"""End-to-end consistency checks over the full model chain.

Each check exercises one property the design is supposed to have, from
the closed-form capacitance anchor up to the radiated beam, and reports
a pass/fail with the measured numbers. `crlhkit reproduce` runs them all;
the test suite asserts them independently.

All randomness is seeded, so a run is reproducible bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import idc
from .bloch import _FAILURES, REGIONS, DispersionSweep, Region, _cell_values, _chain, _solve
from .cell import CrlhUnitCell
from .config import RunConfig

# Reference-geometry series capacitance and its tolerance.
C_ANCHOR_PF = 0.0867
C_ANCHOR_RTOL = 0.01

ELLIPTIC_RTOL = 0.01
TUNING_RTOL = 1e-3
BROADSIDE_ALPHA_MAX = 1e-9      # Np/m at the crossing of a balanced cell
TRACE_RTOL = 1e-8
# A worst trace error under this is rounding noise whose digits follow the
# platform's SIMD arctan2/arcsinh, so the report prints only the bound.
TRACE_NOISE = 1e-12
SCAN_LIMIT_DEG = 45.0
TRACE_SEED = 0x5EED
N_TRACE_FREQS = 20
DETUNE = 1.2  # scale of each detuned control's shunt capacitance C_R

_EVANESCENT = REGIONS.index(Region.EVANESCENT)

Cells = dict[int, CrlhUnitCell]
Sweeps = dict[int, DispersionSweep]
Transitions = dict[int, float]  # finger count -> beta zero crossing [Hz]
Gammas = dict[int, tuple[float, float] | Exception]  # (beta, alpha) at the crossing
Controls = dict[int, int | Exception]  # detuned control's gap samples, or its error


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _value(slot):
    """A solved slot's value; the error it holds is raised instead."""
    if isinstance(slot, Exception):
        raise slot
    return slot


def _first_error(slots: list) -> Exception | None:
    """The first slot that holds an error, if any."""
    return next((slot for slot in slots if isinstance(slot, Exception)), None)


def _gap_samples(region: np.ndarray) -> int:
    """Evanescent samples of a row of regions between the first and last
    pass-band one, leaky or slow; -1 without any."""
    passing = np.flatnonzero(region != _EVANESCENT)
    if not passing.size:
        return -1
    return int(np.count_nonzero(region[passing[0] : passing[-1] + 1] == _EVANESCENT))


def check_capacitance_anchor(config: RunConfig) -> tuple[bool, str]:
    """Four-finger capacitor of the configured stack lands on the anchor."""
    c_pf = idc.c_series_gap(config.idc_geometry(4), config.substrate) * 1e12
    err = abs(c_pf - C_ANCHOR_PF) / C_ANCHOR_PF
    return (
        err <= C_ANCHOR_RTOL,
        f"C = {c_pf:.6f} pF vs {C_ANCHOR_PF} pF ({err:.2%} off, allow {C_ANCHOR_RTOL:.0%})",
    )


@functools.cache
def check_elliptic_ratio() -> tuple[bool, str]:
    """Closed-form K/K' tracks the exact AGM ratio and is continuous at the split.

    It reads no input, so its result is worked out once per process.
    """
    worst = 0.0
    for k in np.linspace(0.05, 0.95, 50):
        approx = idc.elliptic_ratio(float(k))
        exact = idc.elliptic_ratio_quadrature(float(k))
        worst = max(worst, abs(approx - exact) / exact)
    split = idc._K_BRANCH_SPLIT
    upper = idc.elliptic_ratio(split)
    lower = idc.elliptic_ratio(math.nextafter(split, 0.0))
    jump = abs(upper - lower) / upper
    return (
        worst <= ELLIPTIC_RTOL and jump <= ELLIPTIC_RTOL,
        f"worst error {worst:.2e} over 50 moduli, branch jump {jump:.2e} "
        f"(allow {ELLIPTIC_RTOL:.0%})",
    )


def check_broadside_tuning(config: RunConfig, f0s: Transitions) -> tuple[bool, str]:
    """Each state's beta zero sits on its configured frequency."""
    parts = []
    ok = True
    for n, f0 in f0s.items():
        target = config.targets[n]
        err = abs(f0 - target) / target
        ok = ok and err <= TUNING_RTOL
        parts.append(f"{n}f: {f0 / 1e9:.6f} GHz ({err:.2e} off)")
    return ok, "; ".join(parts) + f" (allow {TUNING_RTOL:.1%})"


def _detuned(cell: CrlhUnitCell) -> CrlhUnitCell | Exception:
    """The detuned control of a cell: its shunt branch's C_R scaled by
    DETUNE, or the error that stops it."""
    try:
        return replace(cell, c_r=DETUNE * cell.c_r)
    except _FAILURES as exc:
        return exc


def check_closed_stopband(sweeps: Sweeps, gamma0s: Gammas, controls: Controls) -> tuple[bool, str]:
    """Balanced cells have no gap at the crossing; detuning opens one.

    controls holds each state's detuned control (_detuned) on the sweep's
    grid as its gap samples, or as the error that stopped it. run_all
    solves the controls as rows of the design's one solve and keeps only
    their regions, so an error of one fails this check alone.
    """
    parts = []
    ok = True
    for n in sweeps:
        gap = _gap_samples(sweeps[n].region)
        alpha0 = _value(gamma0s[n])[1]
        opened = max(_value(controls[n]), 0)
        state_ok = gap == 0 and alpha0 <= BROADSIDE_ALPHA_MAX and opened > 0
        ok = ok and state_ok
        parts.append(
            f"{n}f: gap samples {gap}, alpha(f0) = {alpha0:.2e} Np/m, "
            f"detuned gap {opened}"
        )
    return ok, "; ".join(parts)


def check_beam_consistency(config: RunConfig, cells: Cells, sweeps: Sweeps) -> tuple[bool, str]:
    """One main beam at sin theta = beta/k0, and no grating lobe in view.

    The array factor of N >= 2 cells peaks where k0 p sin theta - beta p is
    a multiple of 2 pi: the main beam at sin theta = beta/k0, and the
    next lobe out of view while k0 p + |beta p| < 2 pi (Balanis, Antenna
    Theory, 3rd ed., sec. 6.3). So the check holds at every leaky sample of
    every state, with the largest (k0 p + |beta p|)/2 pi as its margin; a
    reach that is not finite fails it. One cell radiates a flat pattern.
    """
    n_cells = config.cell_geometry.n_cells
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.concatenate(
            [
                (sweeps[n].k0 + np.abs(sweeps[n].beta))[sweeps[n].leaky] * cell.period
                for n, cell in cells.items()
            ]
        ) / (2.0 * math.pi)
    worst = float(reach.max(initial=0.0))
    detail = (
        f"{len(reach)} leaky samples, {n_cells} cells, largest (k0 p + |beta p|)/2 pi "
        f"{worst:.4g} (allow < 1)"
    )
    if n_cells < 2:
        detail += "; one cell has a flat pattern and no main beam"
    return n_cells >= 2 and len(reach) > 0 and worst < 1.0, detail


def check_scan_coverage(config: RunConfig, sweeps: Sweeps) -> tuple[bool, str]:
    """Scanning reaches both +/- 45 deg and passes broadside exactly once.

    Broadside is crossed at a leaky sample of angle 0, else between two
    consecutive leaky samples of opposite sign, at the linear interpolant.
    """
    parts = []
    ok = True
    for n, sweep in sweeps.items():
        f, t = sweep.f[sweep.leaky], sweep.scan_deg[sweep.leaky]
        f_a, t_a, f_b, t_b = f[:-1], t[:-1], f[1:], t[1:]
        at_zero = t_a == 0.0
        with np.errstate(all="ignore"):
            between = f_a - t_a * (f_b - f_a) / (t_b - t_a)
        crossings = np.where(at_zero, f_a, between)[at_zero | (t_a * t_b < 0.0)].tolist()
        if t.size and t[-1] == 0.0:
            crossings.append(float(f[-1]))
        step = (config.f_stop - config.f_start) / (config.n_points - 1)
        target = config.targets[n]
        state_ok = bool(
            t.size
            and t.min() <= -SCAN_LIMIT_DEG
            and t.max() >= SCAN_LIMIT_DEG
            and len(crossings) == 1
            and abs(crossings[0] - target) <= step
        )
        ok = ok and state_ok
        span = f"{t.min():.1f}..{t.max():.1f} deg" if t.size else "empty"
        at = f"{crossings[0] / 1e9:.4f} GHz" if len(crossings) == 1 else f"{len(crossings)} crossings"
        parts.append(f"{n}f: {span}, broadside at {at}")
    return ok, "; ".join(parts)


@functools.cache
def _trace_variates() -> np.ndarray:
    """The trace identity's seeded unit variates, one row of N_TRACE_FREQS
    per state (three at most), drawn in the order the states draw them.

    They read no input, so they are drawn once per process; lo + (hi - lo) u
    is bit for bit what Generator.uniform(lo, hi) returns from them.
    """
    u = np.random.default_rng(TRACE_SEED).random((3, N_TRACE_FREQS))
    u.flags.writeable = False
    return u


def _eighth_power(a, b, c):
    """Entries (a, b, c) of M^8 for symmetric chain matrices M = [[a, b], [c, a]].

    Three squarings, as np.linalg.matrix_power takes for n = 8; each keeps
    the form, since [[a, b], [c, a]]^2 = [[a^2 + bc, 2ab], [2ac, a^2 + bc]].
    """
    for _ in range(3):
        a, b, c = a * a + b * c, 2.0 * a * b, 2.0 * a * c
    return a, b, c


def check_trace_identity(cells: Cells, traces: list) -> tuple[bool, str]:
    """trace(M^8) equals 2 cosh(8 gamma p) at random frequencies.

    traces holds each state's (f, beta, alpha) at its N_TRACE_FREQS seeded
    frequencies, as run_all's solve gives them, or the error that stopped
    them; the chain entries are formed again at those frequencies. Every
    state's samples are compared at once, and the first that fails, in
    state order, fails the check; a state that could not be solved raises
    its error once the states before it pass.
    """
    solved = next((i for i, row in enumerate(traces) if isinstance(row, Exception)), len(traces))
    states, rows = list(cells.items())[:solved], traces[:solved]
    worst = 0.0
    if rows:
        f, beta, alpha = (np.array(column) for column in zip(*rows))
        values = _cell_values([cell for _, cell in states])
        period = values[5]
        gp8 = np.empty(f.shape, dtype=complex)  # 8 gamma p
        gp8.real = 8.0 * (alpha * period)
        gp8.imag = 8.0 * (beta * period)
        with np.errstate(all="ignore"):
            a, b, c, _ = _chain(values, f)
            trace = 2.0 * _eighth_power(a, b, c)[0]
            expected = 2.0 * np.cosh(gp8)
            rel = np.abs(trace - expected) / np.maximum(1.0, np.abs(expected))
        failed = ~np.isfinite(rel)
        if failed.any():
            i, j = np.unravel_index(failed.argmax(), failed.shape)
            n, at = states[i][0], f"at {f[i, j] / 1e9:.6f} GHz"
            # the cosh of a finite 8 gamma p that is not finite overflowed
            if np.isfinite(gp8[i, j]) and not np.isfinite(expected[i, j]):
                return False, f"{n}f: 2 cosh(8 gamma p) overflows {at}"
            side = "2 cosh(8 gamma p)" if np.isfinite(trace[i, j]) else "trace(M^8)"
            return False, f"{n}f: {side} is not finite {at}"
        worst = float(rel.max())
    if solved < len(traces):
        raise traces[solved]
    shown = f"< {TRACE_NOISE:.0e}" if worst < TRACE_NOISE else f"{worst:.2e}"
    return (
        worst <= TRACE_RTOL,
        f"worst relative error {shown} over {N_TRACE_FREQS} random "
        f"frequencies per state (allow {TRACE_RTOL:.0e})",
    )


def check_backward_slope(sweeps: Sweeps) -> tuple[bool, str]:
    """In-band beta rises with frequency on the backward branch."""
    violations = 0
    pairs = 0
    for sweep in sweeps.values():
        in_band = (sweep.region != _EVANESCENT) & (sweep.beta < 0.0)
        both = in_band[:-1] & in_band[1:]
        pairs += int(np.count_nonzero(both))
        violations += int(np.count_nonzero(both & (np.diff(sweep.beta) <= 0.0)))
    return (
        violations == 0 and pairs > 0,
        f"{violations} non-increasing steps over {pairs} backward in-band pairs",
    )


def _run(name: str, check, *args) -> CheckResult:
    """One check as a named result. A _FAILURES error it raises, or one
    passed in place of its inputs, fails it with the error's message."""
    try:
        for arg in args:
            if isinstance(arg, _FAILURES):
                raise arg
        passed, detail = check(*args)
    except _FAILURES as exc:
        return CheckResult(name, False, str(exc))
    return CheckResult(name, passed, detail)


def run_all(config: RunConfig) -> list[CheckResult]:
    """Every check, in report order; one that cannot run is reported failed.

    Every Bloch evaluation of the run goes through one solve: the design's
    states, each state's detuned control as one more row, and its trace
    frequencies as columns after its own, so at the default grid the
    checks read one kernel pass. The first cell that fails, else the first
    sweep, fails the six per-state checks with its error, as does a config
    without any target state; the first transition that fails fails the
    two checks that read the transitions.
    """
    try:
        states, regions, traces = _solve(config, _detuned, _trace_variates())
    except _FAILURES as exc:
        error = controls = traces = exc
    else:
        controls = {
            s.fingers: region if isinstance(region, Exception) else _gap_samples(region)
            for s, region in zip(states, regions)
        }
        error = _first_error([s.cell for s in states] + [s.sweep for s in states])
    if error is not None:
        cells = sweeps = f0s = gamma0s = error
    else:
        cells = {s.fingers: s.cell for s in states}
        sweeps = {s.fingers: s.sweep for s in states}
        f0s = gamma0s = _first_error([s.f0 for s in states])
        if f0s is None:
            f0s = {s.fingers: s.f0 for s in states}
            gamma0s = {s.fingers: s.gamma0 for s in states}
    return [
        _run("series-capacitance anchor", check_capacitance_anchor, config),
        _run("elliptic-ratio fidelity", check_elliptic_ratio),
        _run("broadside tuning", check_broadside_tuning, config, f0s),
        _run("gapless balanced bands", check_closed_stopband, sweeps, gamma0s, controls),
        _run("beam consistency", check_beam_consistency, config, cells, sweeps),
        _run("full-space scanning", check_scan_coverage, config, sweeps),
        _run("cascade trace identity", check_trace_identity, cells, traces),
        _run("backward-wave slope", check_backward_slope, sweeps),
    ]


def format_report(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
