"""Byte-for-byte pins of the paper-default outputs.

The digests were taken from the release that swept one frequency at a time
with scalar cmath; the numpy kernel must reproduce those files exactly.
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
REPRODUCE_JSON_DIGEST = "47bd231ee334c098364c57c766a8ce80cfa9087ad99a7ce9ad8ea5f475d3f032"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("CRLH_PROFILE", raising=False)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_sweep_files_are_pinned(tmp_path, capsys):
    assert main(["sweep", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(SWEEP_DIGESTS)
    digests = {name: sha256((tmp_path / name).read_bytes()) for name in SWEEP_DIGESTS}
    assert digests == SWEEP_DIGESTS


def test_reproduce_json_is_pinned(capsys):
    assert main(["reproduce", "--json"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == REPRODUCE_JSON_DIGEST
