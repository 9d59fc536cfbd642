"""End-to-end consistency checks over the full model chain.

Each check exercises one property the design is supposed to have, from
the closed-form capacitance anchor up to the radiated beam, and reports
a pass/fail with the measured numbers. `crlhkit reproduce` runs them all;
the test suite asserts them independently.

All randomness is seeded, so a run is reproducible bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import idc
from .bloch import (
    REGIONS,
    DispersionSweep,
    Region,
    _chain,
    bloch_gamma,
    dispersion_sweep,
    transition_frequency,
)
from .cell import CrlhUnitCell
from .config import RunConfig
from .errors import CrlhError
from .radiation import pattern_for_frequency

# Reference-geometry series capacitance and its tolerance.
C_ANCHOR_PF = 0.0867
C_ANCHOR_RTOL = 0.01

ELLIPTIC_RTOL = 0.01
TUNING_RTOL = 1e-3
BROADSIDE_ALPHA_MAX = 1e-9      # Np/m at the crossing of a balanced cell
TRACE_RTOL = 1e-8
SCAN_LIMIT_DEG = 45.0
TRACE_SEED = 0x5EED
N_TRACE_FREQS = 20
# Leaky samples per pattern call. It bounds the slice x 721-angle arrays
# that one call holds, whatever the grid size; 64 covers a typical state in
# one or two calls and keeps each of those arrays under 0.4 MB.
BEAM_SLICE = 64

_EVANESCENT = REGIONS.index(Region.EVANESCENT)

Cells = dict[int, CrlhUnitCell]
Sweeps = dict[int, DispersionSweep]
Transitions = dict[int, float]  # finger count -> beta zero crossing [Hz]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _sweep(config: RunConfig, cell: CrlhUnitCell) -> DispersionSweep:
    return dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)


def _gap_samples(sweep: DispersionSweep) -> int:
    """Evanescent samples between the first and last leaky one; -1 without any."""
    leaky = np.flatnonzero(sweep.leaky)
    if not leaky.size:
        return -1
    return int(np.count_nonzero(sweep.region[leaky[0] : leaky[-1] + 1] == _EVANESCENT))


def check_capacitance_anchor(config: RunConfig) -> tuple[bool, str]:
    """Four-finger capacitor of the configured stack lands on the anchor."""
    c_pf = idc.c_series_gap(config.idc_geometry(4), config.substrate) * 1e12
    err = abs(c_pf - C_ANCHOR_PF) / C_ANCHOR_PF
    return (
        err <= C_ANCHOR_RTOL,
        f"C = {c_pf:.6f} pF vs {C_ANCHOR_PF} pF ({err:.2%} off, allow {C_ANCHOR_RTOL:.0%})",
    )


def check_elliptic_ratio() -> tuple[bool, str]:
    """Closed-form K/K' tracks the exact AGM ratio and is continuous at the split."""
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
    config: RunConfig, cells: Cells, sweeps: Sweeps, f0s: Transitions
) -> tuple[bool, str]:
    """Balanced cells have no gap at the crossing; detuning opens one."""
    parts = []
    ok = True
    for n, cell in cells.items():
        gap = _gap_samples(sweeps[n])
        _, alpha0 = bloch_gamma(cell, f0s[n])
        # same sweep with the shunt branch detuned 20 percent
        opened = max(_gap_samples(_sweep(config, replace(cell, c_r=1.2 * cell.c_r))), 0)
        state_ok = gap == 0 and alpha0 <= BROADSIDE_ALPHA_MAX and opened > 0
        ok = ok and state_ok
        parts.append(
            f"{n}f: gap samples {gap}, alpha(f0) = {alpha0:.2e} Np/m, "
            f"detuned gap {opened}"
        )
    return ok, "; ".join(parts)


def check_beam_consistency(config: RunConfig, cells: Cells, sweeps: Sweeps) -> tuple[bool, str]:
    """Array-factor peak agrees with asin(beta/k0) within half a beamwidth."""
    n_cells = config.cell_geometry.n_cells
    worst = 0.0
    count = 0
    ok = True
    for n, cell in cells.items():
        sweep = sweeps[n]
        freqs = sweep.f[sweep.leaky]
        expected = sweep.scan_deg[sweep.leaky]
        for lo in range(0, len(freqs), BEAM_SLICE):
            pat = pattern_for_frequency(cell, freqs[lo : lo + BEAM_SLICE], n_cells)
            miss = np.abs(pat.main_beam_deg - expected[lo : lo + BEAM_SLICE])
            half = pat.beamwidth_3db_deg / 2.0
            ok = ok and bool((miss <= half).all())
            worst = max(worst, float((miss / half).max()))
        count += len(freqs)
    return (
        ok and count > 0,
        f"{count} leaky samples, {n_cells} cells, worst miss {worst:.3f} "
        f"of a half beamwidth",
    )


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
    """trace(M^8) equals 2 cosh(8 gamma p) at random frequencies."""
    rng = np.random.default_rng(TRACE_SEED)
    worst = 0.0
    for cell in cells.values():
        freqs = rng.uniform(config.f_start, config.f_stop, N_TRACE_FREQS)
        betas, alphas = bloch_gamma(cell, freqs)
        with np.errstate(all="ignore"):
            a, b, c = _chain(cell, freqs)
        m = np.stack([a, b, c, a], axis=-1).reshape(-1, 2, 2)
        m8 = np.linalg.matrix_power(m, 8)
        traces = (m8[:, 0, 0] + m8[:, 1, 1]).tolist()
        for trace, beta, alpha in zip(traces, betas.tolist(), alphas.tolist()):
            gp = complex(alpha, beta) * cell.period
            expected = 2.0 * cmath.cosh(8.0 * gp)
            rel = abs(trace - expected) / max(1.0, abs(expected))
            worst = max(worst, rel)
    return (
        worst <= TRACE_RTOL,
        f"worst relative error {worst:.2e} over {N_TRACE_FREQS} random "
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
    """One check as a named result. A CrlhError it raises, or one passed in
    place of its inputs, fails it with the error's message."""
    try:
        for arg in args:
            if isinstance(arg, CrlhError):
                raise arg
        passed, detail = check(*args)
    except CrlhError as exc:
        return CheckResult(name, False, str(exc))
    return CheckResult(name, passed, detail)


def run_all(config: RunConfig) -> list[CheckResult]:
    """Every check, in report order; one that cannot run is reported failed.

    Each state is swept once and its beta zero solved once; the checks
    share those solutions.
    """
    try:
        cells = {n: config.cell(n) for n in sorted(config.targets)}
        sweeps = {n: _sweep(config, cell) for n, cell in cells.items()}
    except CrlhError as exc:
        cells = sweeps = f0s = exc
    else:
        try:
            bracket = (config.f_start, config.f_stop)
            f0s = {n: transition_frequency(cell, bracket=bracket) for n, cell in cells.items()}
        except CrlhError as exc:
            f0s = exc
    return [
        _run("series-capacitance anchor", check_capacitance_anchor, config),
        _run("elliptic-ratio fidelity", check_elliptic_ratio),
        _run("broadside tuning", check_broadside_tuning, config, f0s),
        _run("gapless balanced bands", check_closed_stopband, config, cells, sweeps, f0s),
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
