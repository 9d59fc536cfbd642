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
from dataclasses import dataclass

import numpy as np

from . import idc
from .bloch import (
    Region,
    bloch_gamma,
    dispersion_sweep,
    scan_angle,
    scan_profile,
    transition_frequency,
    unit_cell_abcd,
)
from .cell import CrlhUnitCell, cell_for_state
from .config import RunConfig
from .geometry import state_for_finger_count
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _cells(config: RunConfig) -> dict[int, CrlhUnitCell]:
    return {
        n: cell_for_state(
            state_for_finger_count(n),
            config.substrate,
            config.cell_geometry,
            config.targets,
            z_c=config.z_bloch,
            series_combination=config.series_combination,
            sheet_resistivity=config.sheet_resistance,
            line_z0=config.z0_line,
        )
        for n in sorted(config.targets)
    }


def check_capacitance_anchor(config: RunConfig) -> CheckResult:
    """Four-finger capacitor of the configured stack lands on the anchor."""
    c_pf = idc.c_series_gap(config.idc_geometry(4), config.substrate) * 1e12
    err = abs(c_pf - C_ANCHOR_PF) / C_ANCHOR_PF
    return CheckResult(
        "series-capacitance anchor",
        err <= C_ANCHOR_RTOL,
        f"C = {c_pf:.6f} pF vs {C_ANCHOR_PF} pF ({err:.2%} off, allow {C_ANCHOR_RTOL:.0%})",
    )


def check_elliptic_ratio() -> CheckResult:
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
    ok = worst <= ELLIPTIC_RTOL and jump <= ELLIPTIC_RTOL
    return CheckResult(
        "elliptic-ratio fidelity",
        ok,
        f"worst error {worst:.2e} over 50 moduli, branch jump {jump:.2e} "
        f"(allow {ELLIPTIC_RTOL:.0%})",
    )


def check_broadside_tuning(config: RunConfig, cells: dict[int, CrlhUnitCell]) -> CheckResult:
    """Each state's beta zero sits on its configured frequency."""
    parts = []
    ok = True
    for n, cell in cells.items():
        f0 = transition_frequency(cell, bracket=(config.f_start, config.f_stop))
        target = config.targets[n]
        err = abs(f0 - target) / target
        ok = ok and err <= TUNING_RTOL
        parts.append(f"{n}f: {f0 / 1e9:.6f} GHz ({err:.2e} off)")
    return CheckResult(
        "broadside tuning",
        ok,
        "; ".join(parts) + f" (allow {TUNING_RTOL:.1%})",
    )


def check_closed_stopband(config: RunConfig, cells: dict[int, CrlhUnitCell]) -> CheckResult:
    """Balanced cells have no gap at the crossing; detuning opens one."""
    parts = []
    ok = True
    for n, cell in cells.items():
        pts = dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)
        leaky = [
            i
            for i, pt in enumerate(pts)
            if pt.region in (Region.LEFT_HANDED_LEAKY, Region.RIGHT_HANDED_LEAKY)
        ]
        gap = sum(
            1
            for i in range(leaky[0], leaky[-1] + 1)
            if pts[i].region is Region.EVANESCENT
        ) if leaky else -1
        f0 = transition_frequency(cell, bracket=(config.f_start, config.f_stop))
        _, alpha0 = bloch_gamma(unit_cell_abcd(cell, f0), cell.period)
        # same sweep with the shunt branch detuned 20 percent
        bent = CrlhUnitCell(
            l_r=cell.l_r, c_r=1.2 * cell.c_r, l_l=cell.l_l, c_l=cell.c_l,
            period=cell.period, r_series=cell.r_series,
        )
        bent_pts = dispersion_sweep(bent, config.f_start, config.f_stop, config.n_points)
        bent_leaky = [
            i
            for i, pt in enumerate(bent_pts)
            if pt.region in (Region.LEFT_HANDED_LEAKY, Region.RIGHT_HANDED_LEAKY)
        ]
        opened = sum(
            1
            for i in range(bent_leaky[0], bent_leaky[-1] + 1)
            if bent_pts[i].region is Region.EVANESCENT
        ) if bent_leaky else 0
        state_ok = gap == 0 and alpha0 <= BROADSIDE_ALPHA_MAX and opened > 0
        ok = ok and state_ok
        parts.append(
            f"{n}f: gap samples {gap}, alpha(f0) = {alpha0:.2e} Np/m, "
            f"detuned gap {opened}"
        )
    return CheckResult("gapless balanced bands", ok, "; ".join(parts))


def check_beam_consistency(config: RunConfig, cells: dict[int, CrlhUnitCell]) -> CheckResult:
    """Array-factor peak agrees with asin(beta/k0) within half a beamwidth."""
    n_cells = config.cell_geometry.n_cells
    worst = 0.0
    count = 0
    ok = True
    for cell in cells.values():
        for pt in dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points):
            if pt.region not in (Region.LEFT_HANDED_LEAKY, Region.RIGHT_HANDED_LEAKY):
                continue
            expected = scan_angle(pt.beta, pt.f)
            pat = pattern_for_frequency(cell, pt.f, n_cells)
            miss = abs(pat.main_beam_deg - expected)
            half = pat.beamwidth_3db_deg / 2.0
            ok = ok and miss <= half
            worst = max(worst, miss / half)
            count += 1
    return CheckResult(
        "beam consistency",
        ok and count > 0,
        f"{count} leaky samples, {n_cells} cells, worst miss {worst:.3f} "
        f"of a half beamwidth",
    )


def check_scan_coverage(config: RunConfig, cells: dict[int, CrlhUnitCell]) -> CheckResult:
    """Scanning reaches both +/- 45 deg and passes broadside exactly once."""
    parts = []
    ok = True
    for n, cell in cells.items():
        profile = scan_profile(cell, config.f_start, config.f_stop, config.n_points)
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
    return CheckResult("full-space scanning", ok, "; ".join(parts))


def check_trace_identity(config: RunConfig, cells: dict[int, CrlhUnitCell]) -> CheckResult:
    """trace(M^8) equals 2 cosh(8 gamma p) at random frequencies."""
    rng = np.random.default_rng(TRACE_SEED)
    worst = 0.0
    for cell in cells.values():
        freqs = rng.uniform(config.f_start, config.f_stop, N_TRACE_FREQS)
        for f in freqs:
            m = unit_cell_abcd(cell, float(f))
            beta, alpha = bloch_gamma(m, cell.period)
            gp = complex(alpha, beta) * cell.period
            m8 = np.linalg.matrix_power(m.as_matrix(), 8)
            trace = complex(m8[0, 0] + m8[1, 1])
            expected = 2.0 * cmath.cosh(8.0 * gp)
            rel = abs(trace - expected) / max(1.0, abs(expected))
            worst = max(worst, rel)
    return CheckResult(
        "cascade trace identity",
        worst <= TRACE_RTOL,
        f"worst relative error {worst:.2e} over {N_TRACE_FREQS} random "
        f"frequencies per state (allow {TRACE_RTOL:.0e})",
    )


def check_backward_slope(config: RunConfig, cells: dict[int, CrlhUnitCell]) -> CheckResult:
    """In-band beta rises with frequency on the backward branch."""
    violations = 0
    pairs = 0
    for cell in cells.values():
        pts = dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)
        for a, b in zip(pts, pts[1:]):
            in_band = a.region is not Region.EVANESCENT and b.region is not Region.EVANESCENT
            if in_band and a.beta < 0.0 and b.beta < 0.0:
                pairs += 1
                if b.beta <= a.beta:
                    violations += 1
    return CheckResult(
        "backward-wave slope",
        violations == 0 and pairs > 0,
        f"{violations} non-increasing steps over {pairs} backward in-band pairs",
    )


def run_all(config: RunConfig) -> list[CheckResult]:
    """Every check, in report order."""
    cells = _cells(config)
    return [
        check_capacitance_anchor(config),
        check_elliptic_ratio(),
        check_broadside_tuning(config, cells),
        check_closed_stopband(config, cells),
        check_beam_consistency(config, cells),
        check_scan_coverage(config, cells),
        check_trace_identity(config, cells),
        check_backward_slope(config, cells),
    ]


def format_report(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
