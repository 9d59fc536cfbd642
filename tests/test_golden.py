"""Byte-for-byte pins of the paper-default outputs.

The dispersion-CSV digests were taken from the release that swept one
frequency at a time with scalar cmath, the pattern digests from the array
factor that took a complex exp of every steering entry; the current code
must reproduce those outputs exactly.

The two sweep_summary.json pins and the reproduce pin moved once, when the
transition frequency became the closed-form shunt resonance f_sh instead of
a Brent root solved to 1 kHz: the 3-finger transition_Hz went from
9500000010.0 to 9500000000.0, and the broadside-tuning detail now reads
0.00e+00 off for every state. Nothing else in those files changed.

The reproduce pin moved once more, when `beam consistency` came to judge the
closed-form single-beam condition k0 p + |beta p| < 2 pi instead of comparing
a grid beam with asin(beta/k0): only that check's detail changed, to report
the largest (k0 p + |beta p|)/2 pi in place of the worst miss.
"""

import hashlib

import pytest

from crlhkit.cli import main

SWEEP_DIGESTS = {
    "dispersion_2f.csv": "8478ceb2a9fd069b5b2f2efbdf2e84d79093b790d5aa8f37c430eb798ad46e79",
    "dispersion_3f.csv": "11ee594533510d3f1164c6d181681838ccf78a697eafc78fc2a1e762a5c3a5d6",
    "dispersion_4f.csv": "52436ac3f20e21c7fdf444f6a86b0f9d186e81ba2e745c42d93f081af2e47f69",
    "sweep_summary.json": "e3c71e9433d3226e6a8a79ac0bdc5af4b29ea4897b16a6ebcebbf9d3920a96b5",
}
# `sweep --points 15001`: each table spans several CSV chunks
DENSE_SWEEP_DIGESTS = {
    "dispersion_2f.csv": "38d3ce07634dc938030b7154c7377b2c99435b0855f9f94ae5186a81ba7deef7",
    "dispersion_3f.csv": "be6aa8eff0c22e0b152e08d9704ad55ef69b99a02c974e4d5fcfa3194d3d5c7f",
    "dispersion_4f.csv": "53d081649d8bf14014ff9a00de6341ba0ee1d6ce5230fc705d73d1b2739c8bf4",
    "sweep_summary.json": "de134243cc284e25f249c3e4039710a22f4bfcce0a4b3b53c31a48595de7a345",
}
REPRODUCE_JSON_DIGEST = "334c62812bdbc39369810d211ec8a377d58d9ed7aeaa045c80377c77847cda60"
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
