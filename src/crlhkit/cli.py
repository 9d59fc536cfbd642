"""Command-line front end.

Subcommands: idc, cell calibrate, dispersion, scan-angles, pattern, sweep,
reproduce. Options go after the subcommand, and each subcommand takes only
the options it reads. Numbers are serialized with 9 significant digits so
identical configs give byte-identical output on any platform.

Importing this module loads only what the parser needs: each command
imports the modules it runs, so `--version` loads none of the config, cell
or numpy modules, and `idc` and `cell calibrate` start without numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import stat
import sys
from typing import TYPE_CHECKING

from . import DEFAULT_LEAKAGE_NP_PER_CELL, PROFILE_ENV_VAR, __version__
from .errors import BracketError, CrlhError

if TYPE_CHECKING:
    from .config import RunConfig

_GHZ = 1e9


def fmt(x: float) -> str:
    """9-significant-digit scientific notation, the on-disk float format."""
    return _fmt(x, "value")


def _fmt(x: float, field: str) -> str:
    """x as fmt writes it. A value that is not finite has no such form and
    is a ValueError naming its field; every command formats its output
    before it writes any, so such a value leaves nothing written."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot print the non-finite {field} {x}")
    return f"{x:.8e}"


def _jsonify(obj, field="value"):
    """Round every float to the on-disk precision before dumping; a float
    is named by the key it is found under."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(_fmt(obj, field))
    if isinstance(obj, dict):
        return {k: _jsonify(v, k) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v, field) for v in obj]
    if hasattr(obj, "tolist"):  # numpy scalar or array
        return _jsonify(obj.tolist(), field)
    return obj


def _dumps(obj) -> str:
    import json

    return json.dumps(_jsonify(obj), indent=2, sort_keys=True)


def _write_text(text: str, out_dir: str | None, filename: str) -> None:
    """To a file under out_dir when given, else stdout."""
    if not text.endswith("\n"):
        text += "\n"
    _write_chunks([text], out_dir, filename)


def _write_chunks(chunks, out_dir: str | None, filename: str) -> None:
    """Text chunks, the last one ending in a newline, written one at a time
    to a file under out_dir when given, else stdout."""
    if out_dir is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    _write_files(((0, chunk) for chunk in chunks), out_dir, [filename])


def _write_files(chunks, out_dir: str, filenames: list[str]) -> None:
    """(i, text) chunks written to files under out_dir, text going to
    filenames[i]; the paths are printed once all are written. Every file
    is opened, without truncating it, before any is written: a directory
    or file that cannot be made is a CrlhError naming it, the files this
    call created are removed again, and an earlier run's files keep their
    bytes. Only then are the regular files truncated. An error while
    writing, such as a closed pipe, is left to the caller."""
    paths = [os.path.join(out_dir, name) for name in filenames]
    created = []
    with contextlib.ExitStack() as stack:
        try:
            os.makedirs(out_dir, exist_ok=True)
            files = []
            for path in paths:
                existed = os.path.lexists(path)
                fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
                files.append(stack.enter_context(open(fd, "w", encoding="utf-8", newline="")))
                if not existed:
                    created.append(path)
        except OSError as exc:
            stack.close()
            for path in created:
                os.remove(path)
            raise CrlhError(f"cannot write {exc.filename or out_dir}: {exc.strerror}") from None
        for file in files:
            if stat.S_ISREG(os.fstat(file.fileno()).st_mode):
                os.ftruncate(file.fileno(), 0)
        for i, chunk in chunks:
            files[i].write(chunk)
    for path in paths:
        print(path)


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    """Header and rows as CSV; no field ever holds a comma or a quote."""
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _kv_csv(pairs: dict) -> str:
    rows = [[k, _fmt(v, k) if isinstance(v, float) else str(v)] for k, v in pairs.items()]
    return _csv_text(["key", "value"], rows)


# ---------------------------------------------------------------- commands


def cmd_idc(config: RunConfig, args) -> int:
    from .idc import extract, modulus_from_geometry

    g = config.idc_geometry()
    model = extract(
        g, config.substrate, sheet_resistivity=config.sheet_resistance, z0=config.z0_line
    )
    doc = {
        "n_fingers": g.n_fingers,
        "finger_length_m": g.finger_length,
        "finger_width_m": g.finger_width,
        "gap_m": g.gap,
        "modulus_k": modulus_from_geometry(g),
        "c_series_F": model.c_series,
        "c_shunt_F": model.c_shunt,
        "l_series_H": model.l_series,
        "r_series_ohm": model.r_series,
        "c_series_pF": model.c_series * 1e12,
        "c_shunt_pF": model.c_shunt * 1e12,
        "l_series_nH": model.l_series * 1e9,
    }
    if args.format == "csv":
        _write_text(_kv_csv(doc), args.out, f"idc_{g.n_fingers}f.csv")
    else:
        _write_text(_dumps(doc), args.out, f"idc_{g.n_fingers}f.json")
    return 0


def cmd_cell_calibrate(config: RunConfig, args) -> int:
    from .cell import is_balanced, resonances

    cell = config.cell()
    pair = resonances(cell)
    doc = {
        "n_fingers": config.fingers,
        "target_Hz": config.targets[config.fingers],
        "l_r_H": cell.l_r,
        "c_r_F": cell.c_r,
        "l_l_H": cell.l_l,
        "c_l_F": cell.c_l,
        "r_series_ohm": cell.r_series,
        "period_m": cell.period,
        "l_r_nH": cell.l_r * 1e9,
        "c_r_pF": cell.c_r * 1e12,
        "l_l_nH": cell.l_l * 1e9,
        "c_l_pF": cell.c_l * 1e12,
        "omega_se_rad_per_s": pair.omega_se,
        "omega_sh_rad_per_s": pair.omega_sh,
        "f_se_Hz": pair.omega_se / (2.0 * math.pi),
        "f_sh_Hz": pair.omega_sh / (2.0 * math.pi),
        "balanced": is_balanced(cell),
    }
    if args.format == "csv":
        _write_text(_kv_csv(doc), args.out, f"cell_{config.fingers}f.csv")
    else:
        _write_text(_dumps(doc), args.out, f"cell_{config.fingers}f.json")
    return 0


def cmd_dispersion(config: RunConfig, args) -> int:
    from .bloch import dispersion_sweep
    from .table import _dispersion_csvs, _dispersion_json

    cell = config.cell()
    sweep = dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)
    if args.format == "json":
        _write_chunks(
            _dispersion_json(sweep, cell.period), args.out, f"dispersion_{config.fingers}f.json"
        )
    else:
        _write_chunks(
            _dispersion_csvs([(sweep, cell.period)]),
            args.out,
            f"dispersion_{config.fingers}f.csv",
        )
    return 0


def cmd_scan_angles(config: RunConfig, args) -> int:
    from .bloch import dispersion_sweep

    sweep = dispersion_sweep(config.cell(), config.f_start, config.f_stop, config.n_points)
    profile = sweep.scan_profile()
    if args.format == "json":
        doc = [{"f_Hz": f, "scan_angle_deg": theta} for f, theta in profile]
        _write_text(_dumps(doc), args.out, f"scan_angles_{config.fingers}f.json")
    else:
        rows = [[fmt(f), fmt(theta)] for f, theta in profile]
        _write_text(
            _csv_text(["f_Hz", "scan_angle_deg"], rows),
            args.out,
            f"scan_angles_{config.fingers}f.csv",
        )
    return 0


def cmd_pattern(config: RunConfig, args) -> int:
    if args.polar_data and args.format == "json":
        print("error: --polar-data writes CSV; drop --format json", file=sys.stderr)
        return 1
    import numpy as np

    from .radiation import pattern_for_frequency

    cell = config.cell()
    freqs = (
        [f * _GHZ for f in args.freq]
        if args.freq
        else [config.targets[config.fingers]]
    )
    names = [f"pattern_{config.fingers}f_{f / _GHZ:.6g}GHz.csv" for f in freqs]
    if args.out is not None and args.format == "csv":
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            print(
                f"error: two --freq values would both write {repeated[0]}; "
                "they must differ within 6 significant digits",
                file=sys.stderr,
            )
            return 1
    n_cells = config.cell_geometry.n_cells
    pats = pattern_for_frequency(
        cell, np.array(freqs), n_cells, leakage_np_per_cell=args.leakage
    )
    theta = pats.theta_deg.tolist()
    summary = [
        {"f_Hz": f, "main_beam_deg": beam, "beamwidth_3db_deg": width}
        for f, beam, width in zip(
            freqs, pats.main_beam_deg.tolist(), pats.beamwidth_3db_deg.tolist()
        )
    ]
    if args.format == "json":
        doc = {
            "n_cells": n_cells,
            "patterns": [
                {"f_Hz": f, "theta_deg": theta, "magnitude_db": db}
                for f, db in zip(freqs, pats.magnitude_db.tolist())
            ],
            "summary": summary,
        }
        _write_text(_dumps(doc), args.out, f"pattern_{config.fingers}f.json")
        return 0
    texts = []
    for db in pats.magnitude_db.tolist():
        if args.polar_data:
            header = ["theta_rad", "magnitude_linear"]
            rows = [
                [fmt(math.radians(t)), fmt(10.0 ** (m / 20.0))] for t, m in zip(theta, db)
            ]
        else:
            header = ["theta_deg", "magnitude_db"]
            rows = [[fmt(t), fmt(m)] for t, m in zip(theta, db)]
        texts.append(_csv_text(header, rows))
    summary_text = _dumps(summary) + "\n"
    if args.out is None:
        for f, text in zip(freqs, texts):
            sys.stdout.write(f"# f_Hz = {fmt(f)}\n{text}")
        sys.stdout.write(summary_text)
        return 0
    _write_files(
        enumerate([*texts, summary_text]),
        args.out,
        [*names, f"pattern_{config.fingers}f_summary.json"],
    )
    return 0


def cmd_sweep(config: RunConfig, args) -> int:
    import numpy as np

    from .bloch import solve
    from .radiation import _with_leakage, array_factor
    from .table import _dispersion_csvs

    out_dir = args.out if args.out is not None else "."
    # every state is solved before the first file is written, so a state
    # that fails leaves no output behind; the error reported is the first
    # in state order, and within a state that of its cell, its transition,
    # its sweep, then its Bloch solution at the transition
    solved = {}
    for state in solve(config):
        if isinstance(state.cell, Exception):
            raise state.cell
        if isinstance(state.f0, BracketError):
            print(f"error: {state.fingers}-finger state: {state.f0}", file=sys.stderr)
            return 1
        for slot in (state.f0, state.sweep, state.gamma0):
            if isinstance(slot, Exception):
                raise slot
        beta, alpha = state.gamma0
        gamma = _with_leakage(beta, alpha, state.cell.period, args.leakage)
        solved[state.fingers] = state.cell, state.f0, state.sweep, gamma
    # the broadside beams of every state in one call, on the period and
    # cell count the states share
    _, f0s, _, gammas = zip(*solved.values())
    geom = config.cell_geometry
    pats = array_factor(np.array(gammas), geom.period, geom.n_cells, np.array(f0s))
    csv_names = {n: f"dispersion_{n}f.csv" for n in solved}
    states = {}
    for (n, (_, f0, sweep, _)), beam, width in zip(
        solved.items(), pats.main_beam_deg.tolist(), pats.beamwidth_3db_deg.tolist()
    ):
        angles = sweep.scan_deg[sweep.leaky]
        states[str(n)] = {
            "transition_Hz": f0,
            "target_Hz": config.targets[n],
            "scan_min_deg": float(angles.min()) if angles.size else None,
            "scan_max_deg": float(angles.max()) if angles.size else None,
            "broadside_beam_deg": beam,
            "broadside_beamwidth_3db_deg": width,
            "dispersion_csv": csv_names[n],
        }
    summary = {
        "f_start_Hz": config.f_start,
        "f_stop_Hz": config.f_stop,
        "n_points": config.n_points,
        "n_cells": config.cell_geometry.n_cells,
        "states": states,
    }
    text = _dumps(summary)
    # the states share one grid, so their CSVs are written chunk by chunk
    # in turn, and the summary last
    csvs = _dispersion_csvs([(sweep, cell.period) for cell, _, sweep, _ in solved.values()])
    _write_files(
        itertools.chain(
            ((i % len(csv_names), chunk) for i, chunk in enumerate(csvs)),
            [(len(csv_names), text + "\n")],
        ),
        out_dir,
        [*csv_names.values(), "sweep_summary.json"],
    )
    if args.out is None:
        sys.stdout.write(text + "\n")
    return 0


def cmd_reproduce(config: RunConfig, args) -> int:
    from .selfcheck import format_report, run_all

    results = run_all(config)
    if args.json:
        doc = [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ]
        print(_dumps(doc))
    else:
        print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


# ------------------------------------------------------------------ parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it depends on no input.

    Options come in parent groups, and a subcommand gets only the groups
    its handler reads.
    """
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="PATH", help="config file overlaying the bundled profile")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default="csv", help="tabular output format")
    output.add_argument("--out", metavar="DIR", help="write files here instead of stdout")
    output.add_argument("--fingers", type=int, choices=(2, 3, 4), help="switch state to analyze")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--freq-start", type=float, metavar="GHZ", help="sweep start [GHz]")
    grid.add_argument("--freq-stop", type=float, metavar="GHZ", help="sweep stop [GHz]")
    grid.add_argument("--points", type=int, metavar="N", help="sweep sample count")
    leakage = argparse.ArgumentParser(add_help=False)
    leakage.add_argument(
        "--leakage",
        type=float,
        nargs="?",
        const=DEFAULT_LEAKAGE_NP_PER_CELL,
        default=None,
        metavar="NP_PER_CELL",
        help=f"per-cell leakage of the pattern ({DEFAULT_LEAKAGE_NP_PER_CELL} Np/cell when bare)",
    )

    parser = argparse.ArgumentParser(
        prog="crlhkit",
        description=(
            "Closed-form design toolkit for a switch-reconfigurable "
            "composite right/left-handed leaky-wave antenna. The bundled "
            f"profile is selected by ${PROFILE_ENV_VAR}."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("idc", parents=[config, output], help="extract the lumped capacitor model")
    p.set_defaults(handler=cmd_idc)

    cell = sub.add_parser("cell", help="unit-cell operations")
    cellsub = cell.add_subparsers(dest="cell_command", required=True)
    p = cellsub.add_parser(
        "calibrate", parents=[config, output], help="balanced element values for one state"
    )
    p.set_defaults(handler=cmd_cell_calibrate)

    p = sub.add_parser("dispersion", parents=[config, output, grid], help="Bloch dispersion sweep")
    p.set_defaults(handler=cmd_dispersion)

    p = sub.add_parser(
        "scan-angles", parents=[config, output, grid], help="beam angle vs frequency"
    )
    p.set_defaults(handler=cmd_scan_angles)

    p = sub.add_parser(
        "pattern", parents=[config, output, leakage], help="array-factor radiation pattern"
    )
    p.add_argument(
        "--freq",
        type=float,
        action="append",
        metavar="GHZ",
        help="pattern frequency [GHz], repeatable; defaults to the state's broadside",
    )
    p.add_argument(
        "--polar-data", action="store_true", help="emit theta_rad,magnitude_linear (csv only)"
    )
    p.set_defaults(handler=cmd_pattern)

    p = sub.add_parser(
        "sweep", parents=[config, grid, leakage], help="full per-state reproduction datasets"
    )
    p.add_argument(
        "--out", metavar="DIR", help="write the files here (default the current directory)"
    )
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("reproduce", parents=[config, grid], help="run the consistency checks")
    p.add_argument("--json", action="store_true", help="machine-readable results")
    p.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    from dataclasses import replace

    from .config import resolve_config

    try:
        config = resolve_config(args.config)
        # the state and grid flags exist only on the subcommands that read them
        overrides = {}
        if getattr(args, "fingers", None) is not None:
            overrides["fingers"] = args.fingers
        if getattr(args, "freq_start", None) is not None:
            overrides["f_start"] = args.freq_start * _GHZ
        if getattr(args, "freq_stop", None) is not None:
            overrides["f_stop"] = args.freq_stop * _GHZ
        if getattr(args, "points", None) is not None:
            overrides["n_points"] = args.points
        if overrides:
            config = replace(config, **overrides)
        return args.handler(config, args)
    except (CrlhError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def __getattr__(name: str):
    # crlhkit.cli.resolve_config, which perfbench's worker calls, resolves on
    # first access, so importing the CLI does not load the config module
    if name == "resolve_config":
        from .config import resolve_config

        return resolve_config
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def console_main() -> int:
    """main as the `crlhkit` script and `python -m crlhkit.cli` run it.

    When the reader of stdout closes the pipe early (`crlhkit dispersion |
    head -1`), the process stops quietly with exit code 1, stdout pointed
    at devnull so that the flush at exit cannot raise again: the SIGPIPE
    recipe of the Python docs. It stays out of main, which callers also
    run in process, because it repoints file descriptor 1 for the whole
    process.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(console_main())
