"""crlhkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object with the verdict (`correct`, `attempted`, `failed`) and the
metrics: the end-to-end ones with `--trace 0`, the per-layer ones with
`--trace 1`. The line before it is a JSON report with the provenance of
the run and the numbers that are not registered metrics. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import importtime

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("cli-default", "dense-sweep", "design-gate")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
IMPORT_RUNS = 3

END_TO_END_UNITS = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Names the end-to-end metrics go by on one workload.
ALIASES = {
    "cli-default": {"cli_wall_ms_p50": "op_ms_p50", "cli_wall_ms_tail": "op_ms_tail"},
    "dense-sweep": {"sweep_points_per_s": "items_per_s"},
    "design-gate": {"gate_ms_p50": "op_ms_p50", "gate_ms_tail": "op_ms_tail"},
}
PER_LAYER_UNITS = {
    "import.crlhkit_cli_ms": "ms",
    "import.scipy_ms": "ms",
    "import.numpy_ms": "ms",
    "config.resolve_config_ms": "ms",
    "cli.main_ms": "ms",
    "cli.self_ms": "ms",
    "cli.bytes_written": "B",
    "idc.extract_calls": "count",
    "idc.extract_us": "us",
    "cell.cell_for_state_calls": "count",
    "cell.cell_for_state_us": "us",
    "bloch.sweep_calls": "count",
    "bloch.sweep_points": "count",
    "bloch.sweep_us_per_point": "us",
    "bloch.sweep_unique_ratio": "ratio",
    "bloch.scan_profile_calls": "count",
    "bloch.scan_profile_self_ms": "ms",
    "bloch.transition_calls": "count",
    "bloch.transition_us": "us",
    "radiation.pattern_calls": "count",
    "radiation.pattern_us": "us",
    "trace.overhead_ratio": "ratio",
}


def child_env(nproc: int) -> dict:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env.pop("CRLH_PROFILE", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in BLAS_VARS:
        env[var] = str(nproc)
    return env


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    i = max(0, len(xs) - 11)
    return xs[i], 100.0 * (i + 1) / len(xs)


def setup_probe(env: dict) -> float:
    """Seconds from starting a fresh worker until it reports ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "probe"], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
    return elapsed


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with open(os.path.join(ROOT, ".git", ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, nproc: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "blas_threads": {var: str(nproc) for var in BLAS_VARS},
        "seed": args.seed,
        "load_1min_before": os.getloadavg()[0],
    }


def reproduce_json_digest(env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "crlhkit.cli", "reproduce", "--json"],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    return {"sha256": hashlib.sha256(proc.stdout).hexdigest(), "exit": proc.returncode}


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, dict]:
    ok = [op for op in result["ops"] if op["ok"] and not op["traced"]]
    ms = [op["ms"] for op in ok]
    tail_ms, tail_pct = tail(ms)
    values = {
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail_ms,
        "items_per_s": sum(op["items"] for op in ok) / (sum(ms) / 1e3),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "op_samples": len(ms),
        "op_ms_tail_percentile": tail_pct,
        "setup_samples": len(setup),
        "setup_s_all": setup,
    }
    return values, notes


def per_layer(result: dict, imports: dict, workload: str) -> tuple[dict, dict]:
    tr = result["trace"]
    n_ops = tr["n_ops"]
    layers = tr["layers"]

    def st(name: str) -> dict:
        return layers.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "failed": 0})

    def per_call(name: str, field: str = "total_ns", scale: float = 1e6) -> float:
        s = st(name)
        return s[field] / s["calls"] / scale if s["calls"] else 0.0

    def per_op(name: str) -> float:
        return st(name)["calls"] / n_ops

    ops = result["ops"]
    traced = [op["ms"] for op in ops if op["traced"] and op["ok"]]
    untraced = [op["ms"] for op in ops if not op["traced"] and op["ok"]]
    sweeps = st("bloch.sweep")
    values = {
        "import.crlhkit_cli_ms": imports.get("crlhkit_cli", 0.0),
        "import.scipy_ms": imports.get("scipy", 0.0),
        "import.numpy_ms": imports.get("numpy", 0.0),
        "config.resolve_config_ms": per_call("config.resolve_config"),
        "cli.main_ms": per_call("cli.main"),
        "cli.self_ms": per_call("cli.main", "self_ns"),
        "cli.bytes_written": result["traced_bytes"] / n_ops,
        "idc.extract_calls": per_op("idc.extract"),
        "idc.extract_us": per_call("idc.extract", scale=1e3),
        "cell.cell_for_state_calls": per_op("cell.cell_for_state"),
        "cell.cell_for_state_us": per_call("cell.cell_for_state", scale=1e3),
        "bloch.sweep_calls": per_op("bloch.sweep"),
        "bloch.sweep_points": tr["sweep_points"] / n_ops,
        "bloch.sweep_us_per_point": sweeps["total_ns"] / tr["sweep_points"] / 1e3 if tr["sweep_points"] else 0.0,
        "bloch.sweep_unique_ratio": tr["sweep_unique"] / sweeps["calls"] if sweeps["calls"] else 0.0,
        "bloch.scan_profile_calls": per_op("bloch.scan_profile"),
        "bloch.scan_profile_self_ms": per_call("bloch.scan_profile", "self_ns"),
        "bloch.transition_calls": per_op("bloch.transition"),
        "bloch.transition_us": per_call("bloch.transition", scale=1e3),
        "radiation.pattern_calls": per_op("radiation.pattern"),
        "radiation.pattern_us": per_call("radiation.pattern", scale=1e3),
        "trace.overhead_ratio": sum(traced) / sum(untraced),
    }
    untraced_mean = sum(untraced) / len(untraced)
    self_mean = tr["self_ns_total"] / n_ops / 1e6
    notes = {
        "traced_ops": n_ops,
        "untraced_op_ms_mean": untraced_mean,
        "summed_self_ms_per_op": self_mean,
        "residual_ms_per_op": untraced_mean - self_mean,
        "layer_failures": {k: v["failed"] for k, v in sorted(layers.items())},
        "import_ms_by_package": imports,
        "selfcheck_ms": {
            k: per_call(k) for k in sorted(layers) if k.startswith("selfcheck.")
        },
    }
    if workload == "cli-default":
        notes["cli.main_ms_by_command"] = {
            k: statistics.median(v) for k, v in sorted(result["main_ms_by_cmd"].items())
        }
    if workload == "dense-sweep":
        notes["cli.main_ms.sweep_dense"] = values["cli.main_ms"]
    return values, notes


def run(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "crlhkit", "cli.py")):
        print(f"error: no crlhkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    prov = provenance(args, nproc)
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    try:
        probes = 1 if args.tiny else SETUP_PROBES
        setup = [setup_probe(env) for _ in range(probes)]
        imports = None
        if args.trace:
            imports = importtime.measure(sys.executable, env, ROOT, 1 if args.tiny else IMPORT_RUNS)
        prov["reproduce_json"] = reproduce_json_digest(env)
        result_file = os.path.join(tmp, "result.json")
        cmd = [
            sys.executable, WORKER, "run", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--tmp", tmp, "--result", result_file,
        ] + (["--tiny"] if args.tiny else [])
        # its own process group, so a timeout also stops the CLI processes it started
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            rc = proc.wait(timeout=args.seconds + 120)
        except subprocess.TimeoutExpired:
            rc = "killed after a timeout"
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if rc != 0:
            print(f"error: worker exited with {rc}", file=sys.stderr)
            return 1
        with open(result_file, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    prov["load_1min_after"] = os.getloadavg()[0]
    prov["output_sha256"] = result["digests"]

    ops = [op for op in result["ops"] if not op["traced"]]
    attempted = len(result["ops"])
    failed = sum(not op["ok"] for op in result["ops"])
    if not any(op["ok"] for op in ops):
        print(f"error: every op failed: {result['problems']}", file=sys.stderr)
        return 1
    if args.trace:
        values, notes = per_layer(result, imports, args.workload)
        units = PER_LAYER_UNITS
    else:
        values, notes = end_to_end(result, setup)
        units = END_TO_END_UNITS
    notes["fail_ratio"] = {"value": failed / attempted, "failed": failed, "attempted": attempted}
    if not args.trace:
        notes.update({alias: values[name] for alias, name in ALIASES[args.workload].items()})
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "notes": notes,
        "problems": result["problems"],
    }
    print(json.dumps({"report": report}, sort_keys=True))
    metrics = {}
    for name, unit in units.items():
        v = float(values[name])
        if not math.isfinite(v):
            print(f"error: metric {name} is {v}", file=sys.stderr)
            return 1
        metrics[name] = {"value": v, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for the benchmark's own tests")
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
