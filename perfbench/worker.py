"""The benchmark's client process; `run.py` starts it, one per run.

    worker.py probe                      import crlhkit.cli, resolve the config,
                                         print "ready" (times set-up)
    worker.py traced-cli SPANS ARGV...   run one CLI command under the tracer
    worker.py run --workload W ...       drive one workload, closed loop,
                                         and write a JSON result file

The worker talks to crlhkit only through its CLI (`python -m crlhkit.cli`
or `crlhkit.cli.main`), so the benchmark keeps working while the modules
behind the CLI are rewritten. The tracer is the exception: it wraps the
functions named in `tracing.TARGETS`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
import traceback

import oracle
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROFILE = os.path.join(ROOT, "src", "crlhkit", "profiles", "paper-default.cfg")
STATES = (2, 3, 4)

# (name, argv) in cycle order; "{out}" is replaced by a scratch directory.
CLI_CYCLE = [
    ("version", ["--version"]),
    ("idc", ["idc"]),
    ("cell-calibrate", ["cell", "calibrate"]),
    ("dispersion", ["dispersion"]),
    ("scan-angles", ["scan-angles"]),
    ("pattern", ["pattern"]),
    ("sweep", ["sweep", "--out", "{out}"]),
    ("reproduce", ["reproduce"]),
]
TINY_CLI_CYCLE = [CLI_CYCLE[0], CLI_CYCLE[6], CLI_CYCLE[7]]
DENSE_POINTS = 15001
TINY_DENSE_POINTS = 301
SPOT_ROWS = 32
N_CANDIDATES = 4000
MAX_PROBLEMS = 5


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _import_cli():
    import crlhkit.cli

    here = os.path.realpath(crlhkit.cli.__file__)
    if not here.startswith(os.path.join(os.path.realpath(ROOT), "src") + os.sep):
        raise SystemExit(f"crlhkit.cli was imported from {here}, not from this checkout's src/")
    return crlhkit.cli


def _call_main(main, argv: list[str]) -> tuple[int, str, str]:
    """Run crlhkit.cli.main in process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse exits on bad arguments
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def cell_elements(main, n: int, config_path: str | None = None) -> dict:
    """Element values of the calibrated n-finger cell, read from the CLI."""
    argv = ["cell", "calibrate", "--fingers", str(n), "--format", "json"]
    if config_path is not None:
        argv += ["--config", config_path]
    rc, out, err = _call_main(main, argv)
    if rc != 0:
        raise RuntimeError(f"cell calibrate --fingers {n} failed: {err.strip()}")
    doc = json.loads(out)
    return {
        "l_r": doc["l_r_H"], "c_r": doc["c_r_F"], "l_l": doc["l_l_H"],
        "c_l": doc["c_l_F"], "period": doc["period_m"],
    }


def read_profile_values(keys: tuple[str, ...]) -> dict[str, float]:
    """Numeric `key = value` entries of the bundled paper-default profile."""
    values = {}
    with open(PROFILE, encoding="utf-8") as fh:
        for raw in fh:
            key, sep, value = raw.split("#", 1)[0].partition("=")
            if sep and key.strip() in keys:
                values[key.strip()] = float(value)
    missing = set(keys) - set(values)
    if missing:
        raise RuntimeError(f"profile lacks {sorted(missing)}")
    return values


def design_candidates(seed: int, count: int) -> list[dict[str, float]]:
    """Perturbed paper-default designs, drawn from the workload seed."""
    base = read_profile_values(("finger_length_mm", "gap_mm", "epsilon_r"))
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append({
            "finger_length_mm": base["finger_length_mm"] * rng.uniform(0.7, 1.3),
            "gap_mm": base["gap_mm"] * rng.uniform(0.7, 1.3),
            "epsilon_r": base["epsilon_r"] * rng.uniform(0.9, 1.1),
            **{f"target_{n}_ghz": rng.uniform(8.5, 11.0) for n in STATES},
        })
    return out


class Run:
    """State of one workload run: ops done, traced spans, outputs seen."""

    def __init__(self, args):
        self.args = args
        self.ops: list[dict] = []
        self.problems: list[str] = []
        self.tracer = tracing.Tracer() if args.trace else None
        self.trace_parts: list[dict] = []
        self.traced_bytes = 0
        self.digests: dict[str, str] = {}
        self.main_ms_by_cmd: dict[str, list[float]] = {}

    def record(self, kind: str, seconds: float, problems: list[str], items: int, traced: bool) -> None:
        self.ops.append({
            "kind": kind, "ms": seconds * 1e3, "ok": not problems,
            "items": items, "traced": traced,
        })
        self.problems.extend(problems[: max(0, MAX_PROBLEMS - len(self.problems))])

    # ----------------------------------------------------------- cli-default

    def cli_op(self, name: str, argv: list[str], out_dir: str, traced: bool) -> None:
        argv = [a.replace("{out}", out_dir) for a in argv]
        if traced:
            spans_file = os.path.join(self.args.tmp, "spans.json")
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), "traced-cli", spans_file, *argv]
        else:
            cmd = [sys.executable, "-m", "crlhkit.cli", *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        problems = []
        if proc.returncode != 0:
            problems.append(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        elif not proc.stdout.strip():
            problems.append(f"{name}: no output")
        elif name == "version" and not proc.stdout.startswith("crlhkit "):
            problems.append(f"version: {proc.stdout.strip()!r}")
        elif name == "reproduce":
            problems += oracle.check_reproduce_text(proc.stdout)
        elif name == "sweep":
            expected = {f"dispersion_{n}f.csv" for n in STATES} | {"sweep_summary.json"}
            missing = expected - set(os.listdir(out_dir) if os.path.isdir(out_dir) else ())
            if missing:
                problems.append(f"sweep: missing {sorted(missing)}")
        if traced and not problems:
            with open(spans_file, encoding="utf-8") as fh:
                spans = [tracing.Span.from_json(row) for row in json.load(fh)]
            self.trace_parts.append(tracing.layer_stats(spans, 1))
            main_ns = sum(s.end - s.start for s in spans if s.name == "cli.main")
            self.main_ms_by_cmd.setdefault(name, []).append(main_ns / 1e6)
            written = len(proc.stdout.encode("utf-8"))
            if name == "sweep":
                written += _dir_bytes(out_dir)
            self.traced_bytes += written
        self.record(name, elapsed, problems, 1, traced)

    def run_cli_default(self) -> None:
        cycle = TINY_CLI_CYCLE if self.args.tiny else CLI_CYCLE
        out_dir = os.path.join(self.args.tmp, "sweep-out")
        start = time.perf_counter()
        while True:
            c0 = time.perf_counter()
            for name, argv in cycle:
                self.cli_op(name, argv, out_dir, traced=False)
                if self.tracer:
                    self.cli_op(name, argv, out_dir, traced=True)
            now = time.perf_counter()
            # only whole cycles, so every run sees the same command mix
            if now - start + (now - c0) > self.args.seconds:
                break

    # ---------------------------------------------- in-process workloads

    def in_process_loop(self, cli, kind: str, items: int, argv_for, check, files_written=lambda: 0) -> None:
        """Closed loop of crlhkit.cli.main(argv_for(i)) calls, one per op.

        argv_for(i) prepares op i's input outside the timed region;
        check(i, rc, stdout, stderr) returns its problems, and
        files_written() the bytes the op left in files. A traced run
        repeats every op with the tracer installed, right after the
        untraced one, so the two can be compared.
        """
        start = time.perf_counter()
        i = 0
        while True:
            argv = argv_for(i)
            for traced in (False, True) if self.tracer else (False,):
                out, err = io.StringIO(), io.StringIO()
                if traced:
                    self.tracer.op = i
                    self.tracer.install()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        t0 = time.perf_counter()
                        try:
                            rc = cli.main(argv)  # looked up per call: the tracer rebinds it
                        except Exception:
                            rc = None
                            err.write(traceback.format_exc())
                        elapsed = time.perf_counter() - t0
                finally:
                    if traced:
                        self.tracer.uninstall()
                if rc is None:
                    problems = [f"{kind} {i} raised: {err.getvalue().strip()[-300:]}"]
                else:
                    try:
                        problems = check(i, rc, out.getvalue(), err.getvalue())
                    except (OSError, ValueError, LookupError, TypeError) as exc:
                        # output missing or malformed: a failed op, not a crashed run
                        problems = [f"{kind} {i}: output unreadable: {exc!r}"]
                self.record(kind, elapsed, problems, items, traced)
                if traced and not problems:
                    self.traced_bytes += len(out.getvalue().encode("utf-8")) + files_written()
            i += 1
            if time.perf_counter() - start >= self.args.seconds:
                break
        if self.tracer:
            self.trace_parts.append(tracing.layer_stats(self.tracer.spans, i))

    def run_dense_sweep(self, cli) -> None:
        points = TINY_DENSE_POINTS if self.args.tiny else DENSE_POINTS
        out_dir = os.path.join(self.args.tmp, "dense-out")
        argv = ["sweep", "--out", out_dir, "--points", str(points)]
        elements = {n: cell_elements(cli.main, n) for n in STATES}
        ghz = read_profile_values(("freq_start_ghz", "freq_stop_ghz"))
        grid = (ghz["freq_start_ghz"] * 1e9, ghz["freq_stop_ghz"] * 1e9, points)

        def check(i: int, rc, out: str, err: str) -> list[str]:
            if rc != 0:
                return [f"sweep {i}: exit {rc}: {err.strip()[-300:]}"]
            return self.check_dense(out_dir, elements, grid, i)

        self.in_process_loop(
            cli, "sweep", 3 * points, lambda i: argv, check, lambda: _dir_bytes(out_dir)
        )

    def check_dense(self, out_dir: str, elements: dict, grid: tuple, i: int) -> list[str]:
        names = [f"dispersion_{n}f.csv" for n in STATES] + ["sweep_summary.json"]
        digests = {name: _sha256(os.path.join(out_dir, name)) for name in names}
        if not self.digests:
            self.digests = digests
        problems = [f"{k} changed between identical runs" for k in names if digests[k] != self.digests[k]]
        rng = random.Random(f"{self.args.seed}:{i}")
        n_points = grid[2]
        rows = sorted({0, n_points - 1, *rng.sample(range(n_points), min(SPOT_ROWS, n_points))})
        for n in STATES:
            problems += oracle.check_dispersion_csv(
                os.path.join(out_dir, f"dispersion_{n}f.csv"), elements[n], grid, rows
            )
        with open(os.path.join(out_dir, "sweep_summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        for n in STATES:
            problems += oracle.check_transition(summary["states"][str(n)]["transition_Hz"], elements[n])
        return problems

    def run_design_gate(self, cli) -> None:
        count = 8 if self.args.tiny else N_CANDIDATES
        candidates = design_candidates(self.args.seed, count)
        cfg_path = os.path.join(self.args.tmp, "candidate.cfg")
        argv = ["reproduce", "--json", "--config", cfg_path]

        def argv_for(i: int) -> list[str]:
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.writelines(f"{k} = {v!r}\n" for k, v in candidates[i % count].items())
            return argv

        def check(i: int, rc, out: str, err: str) -> list[str]:
            # exit 1 with a report is a design that failed a check, not an error
            if rc not in (0, 1) or not out:
                return [f"candidate {i}: exit {rc}: {err.strip()[-300:]}"]
            elements = {n: cell_elements(cli.main, n, cfg_path) for n in STATES}
            return oracle.check_reproduce_json(out, elements)

        self.in_process_loop(cli, "candidate", 1, argv_for, check)

    def result(self) -> dict:
        who = resource.RUSAGE_CHILDREN if self.args.workload == "cli-default" else resource.RUSAGE_SELF
        doc = {
            "ops": self.ops,
            "problems": self.problems,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "digests": self.digests,
        }
        if self.tracer is not None:
            doc["trace"] = tracing.merge_stats(self.trace_parts)
            doc["traced_bytes"] = self.traced_bytes
            doc["main_ms_by_cmd"] = self.main_ms_by_cmd
        return doc


def cmd_probe() -> int:
    cli = _import_cli()
    cli.resolve_config()
    print("ready", flush=True)
    return 0


def cmd_traced_cli(spans_file: str, argv: list[str]) -> int:
    t0 = time.perf_counter_ns()
    cli = _import_cli()
    t1 = time.perf_counter_ns()
    tracer = tracing.Tracer()
    tracer.spans.append(tracing.Span("import.crlhkit_cli", t0, t1, None, 0))
    tracer.install()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # --version exits from argparse
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump([s.to_json() for s in tracer.spans], fh)
    return rc


def cmd_run(args) -> int:
    run = Run(args)
    if args.workload == "cli-default":
        run.run_cli_default()
    else:
        cli = _import_cli()
        if args.workload == "dense-sweep":
            run.run_dense_sweep(cli)
        else:
            run.run_design_gate(cli)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(run.result(), fh)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["probe"]:
        return cmd_probe()
    if argv[:1] == ["traced-cli"]:
        return cmd_traced_cli(argv[1], argv[2:])
    p = argparse.ArgumentParser(prog="worker.py run")
    p.add_argument("--workload", required=True, choices=("cli-default", "dense-sweep", "design-gate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tmp", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--tiny", action="store_true")
    if argv[:1] != ["run"]:
        p.error("expected probe, traced-cli or run")
    return cmd_run(p.parse_args(argv[1:]))


if __name__ == "__main__":
    sys.exit(main())
