"""Command-line front end.

Subcommands: idc, cell calibrate, dispersion, scan-angles, pattern, sweep,
reproduce. Global flags go after the subcommand. Numbers are serialized
with 9 significant digits so identical configs give byte-identical output
on any platform.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .bloch import REGIONS, DispersionSweep, dispersion_sweep, transition_frequency
from .cell import is_balanced, resonances
from .config import PROFILE_ENV_VAR, RunConfig, resolve_config
from .errors import BracketError, CrlhError
from .idc import extract, modulus_from_geometry
from .radiation import DEFAULT_LEAKAGE_NP_PER_CELL, pattern_for_frequency
from .selfcheck import format_report, run_all

_GHZ = 1e9


def fmt(x: float) -> str:
    """9-significant-digit scientific notation, the on-disk float format."""
    return f"{float(x):.8e}"


def _jfloat(x: float) -> float:
    return float(fmt(x))


def _jsonify(obj):
    """Round every float to the on-disk precision before dumping."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return _jfloat(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if hasattr(obj, "tolist"):  # numpy scalar or array
        return _jsonify(obj.tolist())
    return obj


def _dumps(obj) -> str:
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
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)
    print(path)


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    """Header and rows as CSV; no field ever holds a comma or a quote."""
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _kv_csv(pairs: dict) -> str:
    rows = [[k, fmt(v) if isinstance(v, float) else str(v)] for k, v in pairs.items()]
    return _csv_text(["key", "value"], rows)


def _sweep(cell, config: RunConfig) -> DispersionSweep:
    return dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)


# ---------------------------------------------------------------- commands


def cmd_idc(config: RunConfig, args) -> int:
    g = config.idc_geometry()
    model = extract(
        g, config.substrate, sheet_resistivity=config.sheet_resistance, z0=config.z0_line
    )
    mod = modulus_from_geometry(g)
    doc = {
        "n_fingers": g.n_fingers,
        "finger_length_m": g.finger_length,
        "finger_width_m": g.finger_width,
        "gap_m": g.gap,
        "modulus_k": mod.k,
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


_DISPERSION_HEADER = [
    "f_Hz",
    "beta_rad_per_m",
    "alpha_Np_per_m",
    "k0_rad_per_m",
    "beta_p_over_pi",
    "region",
    "scan_angle_deg",
]
_DISPERSION_ROW = "%.8e,%.8e,%.8e,%.8e,%.8e,%s,%s\n"
_REGION_NAMES = [r.value for r in REGIONS]
# One dispersion row as json.dumps(indent=2, sort_keys=True) lays out a
# dict keyed by _DISPERSION_HEADER, fields in sorted-key order.
_JSON_KEYS = sorted(_DISPERSION_HEADER)
_DISPERSION_JSON_ROW = (
    "  {\n"
    + ",\n".join(f'    "{k}": ' + ('"%s"' if k == "region" else "%s") for k in _JSON_KEYS)
    + "\n  }"
)
_JSON_CHUNK_ROWS = 8192


def _dispersion_columns(sweep: DispersionSweep, period: float, rows=slice(None)) -> list[list]:
    """The columns of _DISPERSION_HEADER as lists, over the given rows of the
    sweep; no scan angle off the leaky band."""
    leaky = sweep.leaky[rows].tolist()
    angles = [a if on else None for a, on in zip(sweep.scan_deg[rows].tolist(), leaky)]
    return [
        sweep.f[rows].tolist(),
        sweep.beta[rows].tolist(),
        sweep.alpha[rows].tolist(),
        sweep.k0[rows].tolist(),
        (sweep.beta[rows] * period / math.pi).tolist(),
        [_REGION_NAMES[code] for code in sweep.region[rows].tolist()],
        angles,
    ]


def _dispersion_csv(sweep: DispersionSweep, period: float) -> str:
    columns = _dispersion_columns(sweep, period)
    columns[-1] = ["" if a is None else fmt(a) for a in columns[-1]]
    rows = map(_DISPERSION_ROW.__mod__, zip(*columns))
    return "".join([",".join(_DISPERSION_HEADER) + "\n", *rows])


def _json_float(x: float) -> str:
    """A finite float as _dumps writes it: rounded by fmt, then repr."""
    return repr(float(fmt(x)))


def _dispersion_json(sweep: DispersionSweep, period: float):
    """The dispersion table as the text _dumps gives for one dict per row,
    in chunks of _JSON_CHUNK_ROWS rows. Every column but the scan angle is
    finite (an overflowing sample raises PoleError), and a missing angle is
    null."""
    order = [_DISPERSION_HEADER.index(k) for k in _JSON_KEYS]
    yield "[\n"
    sep = ""
    for lo in range(0, len(sweep.f), _JSON_CHUNK_ROWS):
        *numbers, regions, angles = _dispersion_columns(
            sweep, period, slice(lo, lo + _JSON_CHUNK_ROWS)
        )
        fields = [
            *(map(_json_float, col) for col in numbers),
            regions,
            ("null" if a is None else _json_float(a) for a in angles),
        ]
        rows = zip(*(fields[i] for i in order))
        yield sep + ",\n".join(map(_DISPERSION_JSON_ROW.__mod__, rows))
        sep = ",\n"
    yield "\n]\n"


def cmd_dispersion(config: RunConfig, args) -> int:
    cell = config.cell()
    sweep = _sweep(cell, config)
    if args.format == "json":
        _write_chunks(
            _dispersion_json(sweep, cell.period), args.out, f"dispersion_{config.fingers}f.json"
        )
    else:
        _write_text(
            _dispersion_csv(sweep, cell.period), args.out, f"dispersion_{config.fingers}f.csv"
        )
    return 0


def cmd_scan_angles(config: RunConfig, args) -> int:
    profile = _sweep(config.cell(), config).scan_profile()
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
    cell = config.cell()
    freqs = (
        [f * _GHZ for f in args.freq]
        if args.freq
        else [config.targets[config.fingers]]
    )
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
    for f, db in zip(freqs, pats.magnitude_db.tolist()):
        if args.polar_data:
            header = ["theta_rad", "magnitude_linear"]
            rows = [
                [fmt(math.radians(t)), fmt(10.0 ** (m / 20.0))] for t, m in zip(theta, db)
            ]
        else:
            header = ["theta_deg", "magnitude_db"]
            rows = [[fmt(t), fmt(m)] for t, m in zip(theta, db)]
        name = f"pattern_{config.fingers}f_{f / _GHZ:.6g}GHz.csv"
        if args.out is None:
            sys.stdout.write(f"# f_Hz = {fmt(f)}\n")
        _write_text(_csv_text(header, rows), args.out, name)
    _write_text(_dumps(summary), args.out, f"pattern_{config.fingers}f_summary.json")
    return 0


def cmd_sweep(config: RunConfig, args) -> int:
    out_dir = args.out if args.out is not None else "."
    states = {}
    for n in sorted(config.targets):
        cell = config.cell(n)
        try:
            f0 = transition_frequency(cell, bracket=(config.f_start, config.f_stop))
        except BracketError as exc:
            print(f"error: {n}-finger state: {exc}", file=sys.stderr)
            return 1
        sweep = _sweep(cell, config)
        csv_name = f"dispersion_{n}f.csv"
        _write_text(_dispersion_csv(sweep, cell.period), out_dir, csv_name)
        angles = sweep.scan_deg[sweep.leaky]
        pat = pattern_for_frequency(
            cell, f0, config.cell_geometry.n_cells, leakage_np_per_cell=args.leakage
        )
        states[str(n)] = {
            "transition_Hz": f0,
            "target_Hz": config.targets[n],
            "scan_min_deg": float(angles.min()) if angles.size else None,
            "scan_max_deg": float(angles.max()) if angles.size else None,
            "broadside_beam_deg": pat.main_beam_deg,
            "broadside_beamwidth_3db_deg": pat.beamwidth_3db_deg,
            "dispersion_csv": csv_name,
        }
    summary = {
        "f_start_Hz": config.f_start,
        "f_stop_Hz": config.f_stop,
        "n_points": config.n_points,
        "n_cells": config.cell_geometry.n_cells,
        "states": states,
    }
    text = _dumps(summary)
    _write_text(text, out_dir, "sweep_summary.json")
    if args.out is None:
        sys.stdout.write(text + "\n")
    return 0


def cmd_reproduce(config: RunConfig, args) -> int:
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="config file overlaying the bundled profile")
    common.add_argument("--format", choices=("csv", "json"), default="csv", help="tabular output format")
    common.add_argument("--out", metavar="DIR", help="write files here instead of stdout")
    common.add_argument("--fingers", type=int, choices=(2, 3, 4), help="switch state to analyze")
    common.add_argument("--freq-start", type=float, metavar="GHZ", help="sweep start [GHz]")
    common.add_argument("--freq-stop", type=float, metavar="GHZ", help="sweep stop [GHz]")
    common.add_argument("--points", type=int, metavar="N", help="sweep sample count")
    common.add_argument("-v", "--verbose", action="store_true", help="log informational events")

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

    p = sub.add_parser("idc", parents=[common], help="extract the lumped capacitor model")
    p.set_defaults(handler=cmd_idc)

    cell = sub.add_parser("cell", help="unit-cell operations")
    cellsub = cell.add_subparsers(dest="cell_command", required=True)
    p = cellsub.add_parser(
        "calibrate", parents=[common], help="balanced element values for one state"
    )
    p.set_defaults(handler=cmd_cell_calibrate)

    p = sub.add_parser("dispersion", parents=[common], help="Bloch dispersion sweep")
    p.set_defaults(handler=cmd_dispersion)

    p = sub.add_parser("scan-angles", parents=[common], help="beam angle vs frequency")
    p.set_defaults(handler=cmd_scan_angles)

    p = sub.add_parser("pattern", parents=[common], help="array-factor radiation pattern")
    p.add_argument(
        "--freq",
        type=float,
        action="append",
        metavar="GHZ",
        help="pattern frequency [GHz], repeatable; defaults to the state's broadside",
    )
    p.add_argument(
        "--leakage",
        type=float,
        nargs="?",
        const=DEFAULT_LEAKAGE_NP_PER_CELL,
        default=None,
        metavar="NP_PER_CELL",
        help=f"inject per-cell leakage (default {DEFAULT_LEAKAGE_NP_PER_CELL} Np/cell when bare)",
    )
    p.add_argument("--polar-data", action="store_true", help="emit theta_rad,magnitude_linear")
    p.set_defaults(handler=cmd_pattern)

    p = sub.add_parser("sweep", parents=[common], help="full per-state reproduction datasets")
    p.add_argument(
        "--leakage",
        type=float,
        nargs="?",
        const=DEFAULT_LEAKAGE_NP_PER_CELL,
        default=None,
        metavar="NP_PER_CELL",
        help="per-cell leakage for the broadside pattern",
    )
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("reproduce", parents=[common], help="run the consistency checks")
    p.add_argument("--json", action="store_true", help="machine-readable results")
    p.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = resolve_config(args.config)
        if args.fingers is not None:
            config = replace(config, fingers=args.fingers)
        overrides = {}
        if args.freq_start is not None:
            overrides["f_start"] = args.freq_start * _GHZ
        if args.freq_stop is not None:
            overrides["f_stop"] = args.freq_stop * _GHZ
        if args.points is not None:
            overrides["n_points"] = args.points
        if overrides:
            config = replace(config, **overrides)
        return args.handler(config, args)
    except (CrlhError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
