"""Spans around calls into crlhkit's public functions, recorded from outside.

The tracer wraps each function in TARGETS and rebinds the wrapper in every
crlhkit module namespace that bound the original, because `cli` and
`selfcheck` import names with `from .bloch import ...`. Nothing under `src/`
is changed. Spans are kept in memory; `layer_stats` turns them into the
per-layer numbers the benchmark prints.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# (module, function, span name)
TARGETS = [
    ("crlhkit.config", "resolve_config", "config.resolve_config"),
    ("crlhkit.cli", "main", "cli.main"),
    ("crlhkit.idc", "extract", "idc.extract"),
    ("crlhkit.cell", "cell_for_state", "cell.cell_for_state"),
    ("crlhkit.bloch", "dispersion_sweep", "bloch.sweep"),
    ("crlhkit.bloch", "scan_profile", "bloch.scan_profile"),
    ("crlhkit.bloch", "transition_frequency", "bloch.transition"),
    ("crlhkit.radiation", "pattern_for_frequency", "radiation.pattern"),
    ("crlhkit.selfcheck", "run_all", "selfcheck.run_all"),
]


def _selfcheck_targets() -> list[tuple[str, str, str]]:
    mod = importlib.import_module("crlhkit.selfcheck")
    return [
        ("crlhkit.selfcheck", name, f"selfcheck.{name}")
        for name in sorted(vars(mod))
        if name.startswith("check_") and callable(getattr(mod, name))
    ]


class Span:
    """One call: name, start and end in ns, parent span index, op id."""

    __slots__ = ("name", "start", "end", "parent", "op", "failed", "key")

    def __init__(self, name, start, end, parent, op, failed=False, key=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.failed = failed
        self.key = key

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.failed, self.key]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        return cls(*row)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "crlhkit" or n.startswith("crlhkit.")]
        for modname, attr, span_name in TARGETS + _selfcheck_targets():
            orig = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(orig, span_name)
            for mod in modules:
                if vars(mod).get(attr) is orig:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed.clear()

    def _wrap(self, fn, name: str):
        tracer = self
        describe = _sweep_key if name == "bloch.sweep" else None
        sig = inspect.signature(fn) if describe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = describe(sig, args, kwargs) if describe else None
            span = Span(name, 0, 0, tracer._stack[-1] if tracer._stack else None, tracer.op, key=key)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter_ns()
                tracer._stack.pop()

        return wrapper


def _sweep_key(sig, args, kwargs) -> list:
    """(cell elements, f_start, f_stop, n_points) of a dispersion_sweep call."""
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    cell = a["cell"]
    elements = [cell.l_r, cell.c_r, cell.l_l, cell.c_l, cell.period, cell.r_series]
    return [*elements, float(a["f_start"]), float(a["f_stop"]), int(a["n_points"])]


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        clipped = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        )
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in clipped:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end - s.start - covered)
    return out


def layer_stats(spans: list[Span], n_ops: int) -> dict:
    """Calls, total and self time (ns) and failures per span name, plus
    per-op sweep bookkeeping: points and distinct (cell, grid) sweeps."""
    own = self_times(spans)
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "failed": 0})
    sweep_keys: dict[int, set] = defaultdict(set)
    points = 0
    for s, self_ns in zip(spans, own):
        st = stats[s.name]
        st["calls"] += 1
        st["total_ns"] += s.end - s.start
        st["self_ns"] += self_ns
        st["failed"] += bool(s.failed)
        if s.key is not None:
            sweep_keys[s.op].add(tuple(s.key))
            points += s.key[-1]
    return {
        "n_ops": n_ops,
        "layers": dict(stats),
        "sweep_points": points,
        "sweep_unique": sum(len(k) for k in sweep_keys.values()),
        "self_ns_total": sum(own),
    }


def merge_stats(parts: list[dict]) -> dict:
    """Sum of several layer_stats results (one per traced process)."""
    out = {"n_ops": 0, "layers": {}, "sweep_points": 0, "sweep_unique": 0, "self_ns_total": 0}
    for p in parts:
        for k in ("n_ops", "sweep_points", "sweep_unique", "self_ns_total"):
            out[k] += p[k]
        for name, st in p["layers"].items():
            dst = out["layers"].setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "failed": 0})
            for k, v in st.items():
                dst[k] += v
    return out
