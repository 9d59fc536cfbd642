"""Byte-for-byte pins of the paper-default outputs.

The sweep and reproduce digests were taken from the release that swept one
frequency at a time with scalar cmath, the pattern digests from the array
factor that took a complex exp of every steering entry; the current code
must reproduce those outputs exactly.
"""

import hashlib

import pytest

from crlhkit.cli import main

SWEEP_DIGESTS = {
    "dispersion_2f.csv": "8478ceb2a9fd069b5b2f2efbdf2e84d79093b790d5aa8f37c430eb798ad46e79",
    "dispersion_3f.csv": "11ee594533510d3f1164c6d181681838ccf78a697eafc78fc2a1e762a5c3a5d6",
    "dispersion_4f.csv": "52436ac3f20e21c7fdf444f6a86b0f9d186e81ba2e745c42d93f081af2e47f69",
    "sweep_summary.json": "00bf82bda7a84bcd49af0f400af9a90cf407b8b2a7df25fc836df7a99f831b4c",
}
# `sweep --points 15001`: each table spans several CSV chunks
DENSE_SWEEP_DIGESTS = {
    "dispersion_2f.csv": "38d3ce07634dc938030b7154c7377b2c99435b0855f9f94ae5186a81ba7deef7",
    "dispersion_3f.csv": "be6aa8eff0c22e0b152e08d9704ad55ef69b99a02c974e4d5fcfa3194d3d5c7f",
    "dispersion_4f.csv": "53d081649d8bf14014ff9a00de6341ba0ee1d6ce5230fc705d73d1b2739c8bf4",
    "sweep_summary.json": "f2f38fb27c2580239b2381b418d8ca7a63a8278c14d03219ff091ecef75d194f",
}
REPRODUCE_JSON_DIGEST = "47bd231ee334c098364c57c766a8ce80cfa9087ad99a7ce9ad8ea5f475d3f032"
# stdout of `pattern` in its three output forms
PATTERN_DIGESTS = {
    ("--format", "json", "--leakage"): "907bb4d1196ba74040ad04fdc6053ad461f681daa546cb1458ec8ddb8e6c7e25",
    ("--freq", "8.5", "--freq", "11"): "ff04ce985eaa83e0aaa61651b9532d5f3824ffee20840b6455dc1cef2c22d92c",
    ("--polar-data",): "a967f99e82fc7eba05b2b90f2a502dc97bdcf794dc4b1ca522920597784927fa",
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("CRLH_PROFILE", raising=False)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sweep_digests(tmp_path, *flags) -> dict:
    assert main(["sweep", "--out", str(tmp_path), *flags]) == 0
    return {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()}


def test_sweep_files_are_pinned(tmp_path, capsys):
    assert sweep_digests(tmp_path) == SWEEP_DIGESTS


def test_dense_sweep_files_are_pinned(tmp_path, capsys):
    assert sweep_digests(tmp_path, "--points", "15001") == DENSE_SWEEP_DIGESTS


def test_reproduce_json_is_pinned(capsys):
    assert main(["reproduce", "--json"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == REPRODUCE_JSON_DIGEST


@pytest.mark.parametrize("flags", list(PATTERN_DIGESTS))
def test_pattern_output_is_pinned(flags, capsys):
    assert main(["pattern", *flags]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == PATTERN_DIGESTS[flags]
