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

The `pattern --freq 8.5 --freq 11` pin moved once, when |AF| came to be the
closed-form geometric sum instead of a steering matrix times the excitation:
at +-89.75 degrees and 11 GHz, -6.23830696e-06 dB now prints as
-6.23830697e-06. A 50-digit sum over the same double inputs gives
-6.23830696487e-06, 1.3e-15 dB from the rounding boundary: the old digits
are the correctly rounded ones, and the new |AF| is about 2e-16 relative
off them. No other line moved.
"""

import hashlib
import random

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
    ("--freq", "8.5", "--freq", "11"): "abb1d2dc18988c79e36dcd41ab63b148546caebad58cc03727199daddc2ae245",
    ("--polar-data",): "a967f99e82fc7eba05b2b90f2a502dc97bdcf794dc4b1ca522920597784927fa",
}

# `reproduce --json` on designs off the paper's, most of which fail a check:
# name -> (exit code, sha256 of stdout). FAILURE_DESIGNS builds the inputs.
FAILURE_DIGESTS = {
    "perturbed-00": (1, "5c5f3d01534793bc1ed3a6aea564da6d62c66d7287729a2475ea4037197bb162"),
    "perturbed-01": (1, "6b5d312f921e638c487d3547361836119cae7de133bfdb5419b8986ece531201"),
    "perturbed-02": (1, "cd63f7b8324fcd86a2f81d798570e829b4cfde9d817c515b697dd92fe9756ade"),
    "perturbed-03": (1, "f592801834a17713fdff62b0b32a54440947389046feba5dfaa46bd6759b7a75"),
    "perturbed-04": (1, "9c57112e005386e4106ca9e06986d5628af3f0136db9820aa23865cd84248da2"),
    "perturbed-05": (1, "a12153e8a3a3589d88e51ab14047826590b656c10c00296f209861ba72373cbf"),
    "perturbed-06": (1, "a6ab82a4459b4e4ee358930ad52877602271defe134c18370f13e978c15640a4"),
    "perturbed-07": (1, "a5468536b4d360ef41cb32f4ff77d5ecd58fa5a33ac3b176e41ff3c27e53cad9"),
    "perturbed-08": (1, "dd4005b1021261261e819a1a1be933c21b82394574d0aecd403dd5a5573fefe2"),
    "perturbed-09": (1, "0a523a7d541e2ca032a34f11257149f3841ece9228378c1e738b5792b1726d92"),
    "perturbed-10": (1, "9bfcb6b074b62eec7564dd48aadd47e21669182c297933e0976b87087ce7c200"),
    "perturbed-11": (1, "994ca712f3b87ff28db67ca6c4c0393d2802516168536ed25ef42d1289dd8537"),
    "perturbed-12": (1, "c9812f51df12dee79f424a594dd78d2a5565604ba62b172db47ce833355a2716"),
    "perturbed-13": (1, "a1018683c036c336acf978ea233e84dacca9966790200d63b617e50b88bb8796"),
    "perturbed-14": (1, "1c827710942a29960d2622df8a3a276b72b54460daa92066ca0d3baa0f55def3"),
    "perturbed-15": (1, "2ee7ab1d7e316a6b056e57740206422c3709d5ac757f0bce38863d6c547b24cf"),
    "perturbed-16": (1, "4e5625d824462c6375276606b51f54f6b3385d6df059565af97e69cedca1fae9"),
    "perturbed-17": (1, "e0be711b9ed771fa7d20157ef7b4404d3298fbd5a864030f205d0012de0b93a6"),
    "uncalibrated-3f": (1, "f2b42c199f05c873c6d4ca803a1f2e6679e0d5f38da36d88857af3e3a07e932d"),
    "freq-start-9.4": (1, "57e950f1b93ab5575aec2e5c5b0431f7fb2717640339006450b9cf1dc64fc8e9"),
    "no-target": (1, "97c96ad1a32c6becf252d29c0a1e04cc5fc7a1fde6b7a4d5a2d8949e53bcc6cc"),
    "one-cell": (1, "e40b422614795e688dde0b15d70ace5418abc36f500802941a10c2be67af4091"),
    "grating-lobe": (1, "e16a577bfbda88295bfcad17cc9cc398f27871042568d19f3fb44c3dec61d353"),
    "trace-overflow": (1, "baed63021a4bb61ca6465253f90216995bf4c4f9fc58828799e9f5da82f44c94"),
}


def failure_designs() -> dict[str, tuple[list[str], str]]:
    """name -> (extra argv, config text) of the pinned reproduce runs.

    Eighteen paper-default designs with the capacitor stack and the three
    targets drawn from a fixed seed, then the special cases: a state that
    cannot be calibrated, a band that misses one transition, no target
    state, one cell, a grating lobe and a trace that overflows.
    """
    rng = random.Random(0xFA11)
    designs = {}
    for i in range(18):
        values = {
            "finger_length_mm": 0.86 * rng.uniform(0.7, 1.3),
            "gap_mm": 0.4 * rng.uniform(0.7, 1.3),
            "epsilon_r": 3.8 * rng.uniform(0.9, 1.1),
            **{f"target_{n}_ghz": rng.uniform(8.5, 11.0) for n in (2, 3, 4)},
        }
        designs[f"perturbed-{i:02d}"] = ([], "".join(f"{k} = {v!r}\n" for k, v in values.items()))
    designs["uncalibrated-3f"] = ([], "target_3_ghz = 1e-300\n")
    designs["freq-start-9.4"] = (["--freq-start", "9.4"], "")
    designs["no-target"] = ([], "target_2_ghz = none\ntarget_3_ghz = none\ntarget_4_ghz = none\n")
    designs["one-cell"] = ([], "n_cells = 1\n")
    designs["grating-lobe"] = ([], "period_mm = 20\nfreq_stop_ghz = 12\n")
    designs["trace-overflow"] = ([], "target_4_ghz = 1e-09\n")
    return designs


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


@pytest.mark.parametrize("name", list(failure_designs()))
def test_reproduce_json_of_failing_designs_is_pinned(name, tmp_path, capsys):
    argv, text = failure_designs()[name]
    path = tmp_path / "design.cfg"
    path.write_text(text)
    code = main(["reproduce", "--json", "--config", str(path), *argv])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (code, sha256(captured.out.encode("utf-8"))) == FAILURE_DIGESTS[name]
