"""End-to-end consistency checks over the full model chain.

Each check exercises one property the design is supposed to have, from
the closed-form capacitance anchor up to the radiated beam, and reports
a pass/fail with the measured numbers. `crlhkit reproduce` runs them all;
the test suite asserts them independently.

All randomness is seeded, so a run is reproducible bit for bit.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import idc
from .bloch import _FAILURES, REGIONS, DispersionSweep, Region, _kernel, _sweeps, solve
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

_EVANESCENT = REGIONS.index(Region.EVANESCENT)

Cells = dict[int, CrlhUnitCell]
Sweeps = dict[int, DispersionSweep]
Transitions = dict[int, float]  # finger count -> beta zero crossing [Hz]
Gammas = dict[int, tuple[float, float] | Exception]  # (beta, alpha) at the crossing


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


def _gap_samples(sweep: DispersionSweep) -> int:
    """Evanescent samples between the first and last pass-band one, leaky
    or slow; -1 without any."""
    passing = np.flatnonzero(sweep.region != _EVANESCENT)
    if not passing.size:
        return -1
    return int(np.count_nonzero(sweep.region[passing[0] : passing[-1] + 1] == _EVANESCENT))


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


def check_closed_stopband(
    config: RunConfig, cells: Cells, sweeps: Sweeps, gamma0s: Gammas
) -> tuple[bool, str]:
    """Balanced cells have no gap at the crossing; detuning opens one.

    The detuned controls, each shunt branch scaled 20 percent, are swept
    in passes of their own, so an error of one fails this check alone.
    """
    detuned = {}
    for n, cell in cells.items():
        try:
            detuned[n] = replace(cell, c_r=1.2 * cell.c_r)
        except _FAILURES as exc:
            detuned[n] = exc
    built = [cell for cell in detuned.values() if not isinstance(cell, Exception)]
    controls = _sweeps(built, config.f_start, config.f_stop, config.n_points)
    parts = []
    ok = True
    for n in cells:
        gap = _gap_samples(sweeps[n])
        alpha0 = _value(gamma0s[n])[1]
        _value(detuned[n])  # a control that could not be built
        # no name holds a control, so each is dropped once counted
        opened = max(_gap_samples(_value(next(controls))), 0)
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
    """Scanning reaches both +/- 45 deg and passes broadside exactly once."""
    parts = []
    ok = True
    for n, sweep in sweeps.items():
        profile = sweep.scan_profile()
        angles = [theta for _, theta in profile]
        crossings = []
        for (f_a, t_a), (f_b, t_b) in zip(profile, profile[1:]):
            if t_a == 0.0:
                crossings.append(f_a)
            elif t_a * t_b < 0.0:
                crossings.append(f_a - t_a * (f_b - f_a) / (t_b - t_a))
        if profile and profile[-1][1] == 0.0:
            crossings.append(profile[-1][0])
        step = (config.f_stop - config.f_start) / (config.n_points - 1)
        target = config.targets[n]
        state_ok = (
            bool(profile)
            and min(angles) <= -SCAN_LIMIT_DEG
            and max(angles) >= SCAN_LIMIT_DEG
            and len(crossings) == 1
            and abs(crossings[0] - target) <= step
        )
        ok = ok and state_ok
        span = f"{min(angles):.1f}..{max(angles):.1f} deg" if profile else "empty"
        at = f"{crossings[0] / 1e9:.4f} GHz" if len(crossings) == 1 else f"{len(crossings)} crossings"
        parts.append(f"{n}f: {span}, broadside at {at}")
    return ok, "; ".join(parts)


def check_trace_identity(config: RunConfig, cells: Cells) -> tuple[bool, str]:
    """trace(M^8) equals 2 cosh(8 gamma p) at random frequencies.

    Each state draws its frequencies from the seeded generator in turn,
    and one kernel pass and one matrix power take them all.
    """
    rng = np.random.default_rng(TRACE_SEED)
    freqs = [rng.uniform(config.f_start, config.f_stop, N_TRACE_FREQS) for _ in cells]
    solved = _kernel(list(cells.values()), freqs)
    a, b, c = solved.chain
    with np.errstate(all="ignore"):
        m8 = np.linalg.matrix_power(np.stack([a, b, c, a], axis=-1).reshape(-1, 2, 2), 8)
    traces = (m8[:, 0, 0] + m8[:, 1, 1]).tolist()
    betas, alphas = solved.beta.tolist(), solved.alpha.tolist()
    worst = 0.0
    for i, ((n, cell), f_row, error) in enumerate(zip(cells.items(), freqs, solved.errors)):
        if error is not None:
            raise error
        row = slice(i * N_TRACE_FREQS, (i + 1) * N_TRACE_FREQS)
        for f, trace, beta, alpha in zip(f_row.tolist(), traces[row], betas[row], alphas[row]):
            gp = complex(alpha, beta) * cell.period
            try:
                expected = 2.0 * cmath.cosh(8.0 * gp)
            except OverflowError:
                return False, f"{n}f: 2 cosh(8 gamma p) overflows at {f / 1e9:.6f} GHz"
            rel = abs(trace - expected) / max(1.0, abs(expected))
            if not math.isfinite(rel):
                side = "2 cosh(8 gamma p)" if cmath.isfinite(trace) else "trace(M^8)"
                return False, f"{n}f: {side} is not finite at {f / 1e9:.6f} GHz"
            worst = max(worst, rel)
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

    The checks share one solve() of the design. The first cell that
    fails, else the first sweep, fails the six per-state checks with its
    error, as does a config without any target state; the first
    transition that fails fails the two checks that read the transitions.
    """
    try:
        states = solve(config)
    except _FAILURES as exc:
        states, error = [], exc
    else:
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
        _run("gapless balanced bands", check_closed_stopband, config, cells, sweeps, gamma0s),
        _run("beam consistency", check_beam_consistency, config, cells, sweeps),
        _run("full-space scanning", check_scan_coverage, config, sweeps),
        _run("cascade trace identity", check_trace_identity, config, cells),
        _run("backward-wave slope", check_backward_slope, sweeps),
    ]


def format_report(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
