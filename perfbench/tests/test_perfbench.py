"""Tests of the benchmark itself: metric names, oracle, span arithmetic."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import importtime  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def _registered(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_registered_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, report["problems"]
    assert result["attempted"] >= 1
    expected = _registered("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert report["notes"]["fail_ratio"]["attempted"] == result["attempted"]


def test_registered_names_match_the_harness():
    assert _registered("end_to_end") == run.END_TO_END_UNITS
    assert _registered("per_layer") == run.PER_LAYER_UNITS


@pytest.fixture(scope="module")
def dense_csv(tmp_path_factory):
    """A real 4-finger dispersion CSV and its cell elements."""
    import crlhkit.cli

    out = tmp_path_factory.mktemp("sweep")
    rc, _, err = worker._call_main(crlhkit.cli.main, ["sweep", "--out", str(out), "--points", "201"])
    assert rc == 0, err
    return str(out / "dispersion_4f.csv"), worker.cell_elements(crlhkit.cli.main, 4)


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def test_oracle_accepts_every_row_of_a_real_sweep(dense_csv):
    path, elements = dense_csv
    grid = (7.5e9, 12e9, 201)
    assert oracle.check_dispersion_csv(path, elements, grid, list(range(201))) == []


@pytest.mark.parametrize(
    "column, corrupt",
    [
        (1, lambda v: repr(float(v) * 1.001)),          # beta
        (2, lambda v: "1.0"),                           # alpha in a pass band
        (3, lambda v: repr(float(v) * 1.0001)),         # k0
        (5, lambda v: "guided-slow-wave"),              # region
        (6, lambda v: repr(float(v) + 0.5)),            # scan angle
    ],
)
def test_oracle_rejects_a_corrupted_row(dense_csv, column, corrupt):
    path, elements = dense_csv
    rows = _rows(path)
    leaky = next(r for r in rows if r[5] in oracle.LEAKY and abs(float(r[6])) > 10.0)
    assert oracle.check_dispersion_row(leaky, elements) == []
    bad = list(leaky)
    bad[column] = corrupt(bad[column])
    assert oracle.check_dispersion_row(bad, elements)


def test_oracle_rejects_a_moved_transition(dense_csv):
    _, elements = dense_csv
    f0 = oracle.closed_form_transition(elements)
    assert oracle.check_transition(f0 + 400.0, elements) == []
    assert oracle.check_transition(f0 + 5e3, elements)


class _RaisingCli:
    @staticmethod
    def main(argv):
        raise ValueError("boom")


class _SilentCli:
    @staticmethod
    def main(argv):
        return 0


def test_an_op_that_raises_or_leaves_no_output_is_a_failed_op(tmp_path):
    args = argparse.Namespace(trace=0, seconds=0.0, seed=1, tmp=str(tmp_path), tiny=True)

    def check_missing_file(i, rc, out, err):
        with open(tmp_path / "never-written.csv", encoding="utf-8") as fh:
            return [fh.read()]

    for cli, check, message in [
        (_RaisingCli, lambda *a: [], "boom"),
        (_SilentCli, check_missing_file, "output unreadable"),
    ]:
        r = worker.Run(args)
        r.in_process_loop(cli, "candidate", 1, lambda i: [], check)
        assert [op["ok"] for op in r.ops] == [False]
        assert message in r.problems[0]


def test_self_times_on_a_hand_built_tree():
    S = tracing.Span
    spans = [
        S("root", 0, 100, None, 0),
        S("a", 10, 40, 0, 0),
        S("a.child", 15, 25, 1, 0),
        S("b", 30, 60, 0, 0),      # overlaps a: the union is 10..60
        S("c", 90, 120, 0, 0),     # runs past its parent: clipped to 90..100
        S("other", 200, 210, None, 1),
    ]
    assert tracing.self_times(spans) == [100 - 50 - 10, 30 - 10, 10, 30, 30, 10]


def test_layer_stats_counts_distinct_sweeps():
    S = tracing.Span
    key_a = [1.0, 2.0, 7.5e9, 12e9, 451]
    key_b = [1.5, 2.0, 7.5e9, 12e9, 451]
    spans = [
        S("cli.main", 0, 100, None, 0),
        S("bloch.sweep", 10, 20, 0, 0, key=key_a),
        S("bloch.sweep", 20, 30, 0, 0, key=key_a),
        S("bloch.sweep", 30, 40, 0, 0, key=key_b),
        S("bloch.sweep", 110, 120, None, 1, key=key_a),
    ]
    stats = tracing.layer_stats(spans, 2)
    assert stats["layers"]["bloch.sweep"]["calls"] == 4
    assert stats["sweep_unique"] == 3          # two in op 0, one in op 1
    assert stats["sweep_points"] == 4 * 451
    assert stats["layers"]["cli.main"]["self_ns"] == 70


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3.0)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | encodings
import time:        50 |         50 |       numpy.core
import time:       200 |        250 |     numpy
import time:        30 |         30 |         numpy.linalg
import time:       400 |        430 |       scipy.optimize
import time:        20 |         20 |       crlhkit.geometry
import time:        70 |        520 |     crlhkit.bloch
import time:        10 |        780 |   crlhkit
import time:         5 |        790 | crlhkit.cli
"""


def test_importtime_groups_by_top_level_package():
    got = importtime.group(importtime.parse(IMPORTTIME))
    assert got == pytest.approx({
        "crlhkit_cli": 0.79,
        "crlhkit": (5 + 10 + 70 + 20) / 1000,
        "numpy": 0.25,
        "scipy": 0.43,   # numpy.linalg, loaded by scipy, counts as scipy
    })
