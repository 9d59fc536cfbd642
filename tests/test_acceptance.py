"""Acceptance gate: every shipped claim, one test and one printed line each.

Each criterion is implemented directly against the public API with its own
oracle (quadrature, matrix powers, finite differences), independent of the
selfcheck module that the reproduce command uses; the last test ties the
two together.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.special import ellipk

import bloch_oracle
from crlhkit import selfcheck
from crlhkit.bloch import (
    REGIONS,
    Region,
    bloch_gamma,
    dispersion_sweep,
    scan_profile,
    transition_frequency,
)
from crlhkit.cell import CrlhUnitCell
from crlhkit.geometry import IdcGeometry, SubstrateSpec
from crlhkit.idc import c_series_gap, elliptic_ratio
from crlhkit.radiation import pattern_for_frequency

N_CELLS = 8
EVANESCENT = REGIONS.index(Region.EVANESCENT)


def report(ok: bool, label: str, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"{label}: {detail}"


def sweep(cell, config):
    return dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)


def gap_samples(s):
    """Evanescent samples between the first and last pass-band one, leaky or slow."""
    passing = np.flatnonzero(s.region != EVANESCENT)
    return int(np.count_nonzero(s.region[passing[0] : passing[-1] + 1] == EVANESCENT))


def test_criterion_1_idc_anchor():
    g = IdcGeometry(n_fingers=4, finger_length=0.86e-3, finger_width=0.4e-3, gap=0.4e-3)
    sub = SubstrateSpec(epsilon_r=3.8, h=1.5748e-3)
    c_pf = c_series_gap(g, sub) * 1e12
    err = abs(c_pf - 0.0867) / 0.0867
    report(
        err <= 0.01,
        "1. series-capacitance anchor",
        f"N=4, l=0.86 mm, W'=S=0.4 mm, er=3.8 -> {c_pf:.6f} pF ({err:.3%} from 0.0867 pF, tol 1%)",
    )


def test_criterion_2_elliptic_fidelity():
    def quadrature_ratio(k):
        # scipy's ellipk takes the parameter m = k^2
        return ellipk(k * k) / ellipk(1.0 - k * k)

    worst = 0.0
    for k in np.linspace(0.05, 0.95, 50):
        exact = quadrature_ratio(float(k))
        worst = max(worst, abs(elliptic_ratio(float(k)) - exact) / exact)

    k = 0.707
    sk = math.sqrt(k)
    skp = math.sqrt(math.sqrt(1.0 - k * k))
    upper = math.log(2.0 * (1.0 + sk) / (1.0 - sk)) / math.pi
    lower = math.pi / math.log(2.0 * (1.0 + skp) / (1.0 - skp))
    split = abs(upper - lower) / quadrature_ratio(k)
    report(
        worst <= 0.01 and split <= 0.01,
        "2. elliptic-branch fidelity",
        f"max quadrature error {worst:.2e} over 50 k in [0.05, 0.95], "
        f"branch disagreement {split:.2e} at k=0.707 (tol 1%)",
    )


def test_criterion_3_broadside_tuning(cells):
    errs = {}
    for n, target in ((2, 10.7e9), (3, 9.5e9), (4, 9.3e9)):
        f0 = transition_frequency(cells[n])
        errs[n] = abs(f0 - target) / target
    report(
        all(e <= 1e-3 for e in errs.values()),
        "3. broadside tuning",
        "; ".join(f"{n}f off by {e:.2e}" for n, e in errs.items()) + " (tol 0.1%)",
    )


def test_criterion_4_gapless_balanced_dispersion(config, cells):
    details = []
    ok = True
    for n, cell in cells.items():
        gap = gap_samples(sweep(cell, config))
        f0 = transition_frequency(cell)
        _, alpha0 = bloch_gamma(cell, f0)
        bent = CrlhUnitCell(
            l_r=cell.l_r, c_r=1.2 * cell.c_r, l_l=cell.l_l, c_l=cell.c_l, period=cell.period
        )
        opened = gap_samples(sweep(bent, config))
        ok = ok and gap == 0 and alpha0 <= 1e-9 and opened > 0
        details.append(f"{n}f gap={gap} alpha(f0)={alpha0:.1e} detuned-gap={opened}")
    report(ok, "4. gapless balanced dispersion", "; ".join(details) + " (alpha tol 1e-9)")


def test_criterion_5_scan_angle_consistency(config, cells):
    worst = 0.0
    count = 0
    ok = True
    for cell in cells.values():
        s = sweep(cell, config)
        for f, angle in zip(s.f[s.leaky].tolist(), s.scan_deg[s.leaky].tolist()):
            pat = pattern_for_frequency(cell, f, N_CELLS)
            miss = abs(pat.main_beam_deg - angle)
            half = pat.beamwidth_3db_deg / 2.0
            ok = ok and miss <= half
            worst = max(worst, miss / half)
            count += 1
    report(
        ok and count > 0,
        "5. scan-angle consistency",
        f"{count} leaky samples, N={N_CELLS}: worst |beam - asin| = "
        f"{worst:.3f} half-beamwidths (tol 1.0)",
    )


def test_criterion_6_full_space_attainability(config, cells):
    details = []
    ok = True
    step = (config.f_stop - config.f_start) / (config.n_points - 1)
    for n, target in ((2, 10.7e9), (3, 9.5e9), (4, 9.3e9)):
        profile = scan_profile(cells[n], config.f_start, config.f_stop, config.n_points)
        angles = [theta for _, theta in profile]
        crossings = [f for (f, t) in profile if t == 0.0]
        crossings += [
            f_a - t_a * (f_b - f_a) / (t_b - t_a)
            for (f_a, t_a), (f_b, t_b) in zip(profile, profile[1:])
            if t_a * t_b < 0.0
        ]
        state_ok = (
            min(angles) <= -45.0
            and max(angles) >= 45.0
            and len(crossings) == 1
            and abs(crossings[0] - target) <= step
        )
        ok = ok and state_ok
        details.append(
            f"{n}f spans {min(angles):.1f}..{max(angles):.1f} deg, "
            f"{len(crossings)} zero crossing(s)"
        )
    report(ok, "6. full-space attainability", "; ".join(details) + " (need +-45 deg, one crossing at f0)")


def test_criterion_7_bloch_oracle_equivalence(config, cells):
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for cell in cells.values():
        for f in rng.uniform(config.f_start, config.f_stop, 20):
            m = bloch_oracle.chain_matrix(cell, float(f))
            beta, alpha = bloch_gamma(cell, float(f))
            gp = complex(alpha, beta) * cell.period
            m8 = np.linalg.matrix_power(m, 8)
            trace = complex(m8[0, 0] + m8[1, 1])
            expected = 2.0 * cmath.cosh(8.0 * gp)
            worst = max(worst, abs(trace - expected) / max(1.0, abs(expected)))
    report(
        worst <= 1e-8,
        "7. cascade trace identity",
        f"max |trace(M^8) - 2cosh(8 gamma p)| = {worst:.2e} relative, "
        f"20 random frequencies per state (tol 1e-8)",
    )


def test_criterion_8_antiparallel_velocities(config, cells):
    violations = 0
    pairs = 0
    for cell in cells.values():
        s = sweep(cell, config)
        backward = (s.region != EVANESCENT) & (s.beta < 0.0)
        both = backward[:-1] & backward[1:]
        pairs += int(np.count_nonzero(both))
        violations += int(np.count_nonzero(both & (np.diff(s.beta) <= 0.0)))
    report(
        violations == 0 and pairs > 0,
        "8. antiparallel velocities",
        f"d(beta)/df > 0 at {pairs}/{pairs} backward pass-band steps"
        if violations == 0
        else f"{violations} of {pairs} backward steps non-increasing",
    )


def test_selfcheck_agrees_with_acceptance(config):
    results = selfcheck.run_all(config)
    failed = [r.name for r in results if not r.passed]
    report(
        len(results) == 8 and not failed,
        "reproduce pipeline",
        "all 8 reproduce checks pass" if not failed else f"failed: {', '.join(failed)}",
    )
