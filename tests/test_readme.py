"""The README's library example runs as written, on the exported API."""

import math
import pathlib
import re

import crlhkit
from crlhkit import DispersionSweep

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert math.isclose(namespace["f0"], 9.3e9, rel_tol=1e-6)
    sweep = namespace["sweep"]
    assert isinstance(sweep, DispersionSweep) and len(sweep.f) == 451
    assert namespace["angles"].min() < -45.0 < 45.0 < namespace["angles"].max()
    assert abs(namespace["beam"]) <= 1.0
    assert namespace["beams"].shape == namespace["band"].shape


def test_every_exported_name_resolves():
    namespace = {}
    exec("from crlhkit import *", namespace)
    assert all(name in namespace for name in crlhkit.__all__)
