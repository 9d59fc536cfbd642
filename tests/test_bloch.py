import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from crlhkit.bloch import (
    Region,
    TwoPortAbcd,
    _brentq,
    bloch_gamma,
    classify,
    dispersion_sweep,
    scan_angle,
    scan_profile,
    transition_frequency,
    unit_cell_abcd,
)
from crlhkit.cell import calibrate_balanced, resonances
from crlhkit.errors import BracketError, PoleError, SlowWaveError
from crlhkit.geometry import CONSTANTS

C0 = CONSTANTS.c0


def k0_of(f):
    return 2.0 * math.pi * f / C0


def beta_function(cell):
    return lambda f: bloch_gamma(unit_cell_abcd(cell, f), cell.period)[0]


class TestAbcd:
    def test_symmetric_cell_has_equal_corners(self, cells):
        # a and d share one expression, so equality is bit-exact
        for cell in cells.values():
            for f in (8.0e9, 9.3e9, 11.5e9):
                m = unit_cell_abcd(cell, f)
                assert m.a == m.d

    def test_reciprocity(self, cells):
        for cell in cells.values():
            for f in np.linspace(7.6e9, 11.9e9, 7):
                m = unit_cell_abcd(cell, float(f))
                assert abs(m.determinant - 1.0) < 1e-10

    def test_cascade_matches_matrix_product(self, cells):
        cell = cells[4]
        m = unit_cell_abcd(cell, 9.0e9)
        via_cascade = m.cascade(m).as_matrix()
        via_matmul = m.as_matrix() @ m.as_matrix()
        assert np.allclose(via_cascade, via_matmul, rtol=1e-12, atol=0.0)

    def test_rejects_nonpositive_frequency(self, cells):
        with pytest.raises(ValueError):
            unit_cell_abcd(cells[4], 0.0)

    def test_overflowing_frequency_is_a_pole_error(self, cells):
        with pytest.raises(PoleError) as err:
            unit_cell_abcd(cells[4], 1e308)
        assert err.value.frequency == 1e308


class TestBlochGamma:
    def test_matches_scalar_arccos_oracle(self, cells):
        # independent route: cos(beta p) = 1 + z y / 2 for the lossless cell,
        # sign negative below the transition
        cell = cells[4]
        f0 = 9.3e9
        for f in (8.6e9, 9.0e9, 9.2e9, 9.4e9, 10.0e9):
            w = 2.0 * math.pi * f
            z = w * cell.l_r - 1.0 / (w * cell.c_l)
            y = w * cell.c_r - 1.0 / (w * cell.l_l)
            x = 1.0 - z * y / 2.0
            assert abs(x) <= 1.0, "chosen frequencies sit in the pass band"
            expected = math.copysign(math.acos(x) / cell.period, f - f0)
            beta, alpha = bloch_gamma(unit_cell_abcd(cell, f), cell.period)
            assert beta == pytest.approx(expected, rel=1e-9)
            assert alpha == pytest.approx(0.0, abs=1e-9)

    def test_zero_phase_at_transition(self, cells):
        for n, f0 in ((2, 10.7e9), (3, 9.5e9), (4, 9.3e9)):
            beta, alpha = bloch_gamma(unit_cell_abcd(cells[n], f0), cells[n].period)
            assert abs(beta) < 1e-6
            assert alpha <= 1e-9

    def test_rejects_nonpositive_period(self, cells):
        m = unit_cell_abcd(cells[4], 9.0e9)
        with pytest.raises(ValueError):
            bloch_gamma(m, 0.0)

    @given(
        st.floats(min_value=1e-14, max_value=1e-13),
        st.floats(min_value=8.5e9, max_value=1.1e10),
        st.floats(min_value=7.6e9, max_value=1.19e10),
    )
    @settings(max_examples=100)
    def test_principal_phase_bound(self, c_l, f0, f):
        cell = calibrate_balanced(c_l, f0)
        beta, alpha = bloch_gamma(unit_cell_abcd(cell, f), cell.period)
        assert abs(beta) * cell.period <= math.pi + 1e-9
        assert alpha >= 0.0


class TestClassify:
    def test_pinned_attenuating_samples_are_evanescent(self):
        p = 3.2e-3
        k0 = k0_of(9.3e9)
        assert classify(0.0, 50.0, k0, p) is Region.EVANESCENT
        assert classify(-math.pi / p, 50.0, k0, p) is Region.EVANESCENT
        assert classify(math.pi / p, 50.0, k0, p) is Region.EVANESCENT

    def test_attenuating_fast_wave_still_leaks(self):
        # dissipative loss does not pin the phase, so the wave radiates
        p = 3.2e-3
        k0 = k0_of(9.3e9)
        assert classify(-0.4 * k0, 5.0, k0, p) is Region.LEFT_HANDED_LEAKY

    def test_fast_and_slow_waves(self):
        p = 3.2e-3
        k0 = k0_of(9.3e9)
        assert classify(-0.5 * k0, 0.0, k0, p) is Region.LEFT_HANDED_LEAKY
        assert classify(0.5 * k0, 0.0, k0, p) is Region.RIGHT_HANDED_LEAKY
        assert classify(0.0, 0.0, k0, p) is Region.RIGHT_HANDED_LEAKY
        assert classify(2.0 * k0, 0.0, k0, p) is Region.GUIDED_SLOW_WAVE
        assert classify(-2.0 * k0, 0.0, k0, p) is Region.GUIDED_SLOW_WAVE


class TestDispersionSweep:
    def test_region_sequence(self, config, cells):
        # stop band, slow LH, fast LH, fast RH, slow RH, stop band
        expected = [
            Region.EVANESCENT,
            Region.GUIDED_SLOW_WAVE,
            Region.LEFT_HANDED_LEAKY,
            Region.RIGHT_HANDED_LEAKY,
            Region.GUIDED_SLOW_WAVE,
            Region.EVANESCENT,
        ]
        for cell in cells.values():
            pts = dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)
            grouped = []
            for pt in pts:
                if not grouped or grouped[-1] is not pt.region:
                    grouped.append(pt.region)
            assert grouped == expected

    def test_single_sign_change(self, config, cells):
        for cell in cells.values():
            pts = dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)
            signs = [math.copysign(1.0, pt.beta) for pt in pts if pt.beta != 0.0]
            flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
            assert flips == 1

    def test_lossless_passband_has_zero_attenuation(self, config, cells):
        for cell in cells.values():
            for pt in dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points):
                if pt.region is not Region.EVANESCENT:
                    assert pt.alpha <= 1e-9

    def test_stopband_phase_is_pinned(self, config, cells):
        cell = cells[4]
        for pt in dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points):
            if pt.region is Region.EVANESCENT:
                bp = abs(pt.beta) * cell.period
                assert min(bp, abs(bp - math.pi)) < 1e-9

    def test_backward_branch_slope(self, config, cells):
        for cell in cells.values():
            pts = dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)
            for a, b in zip(pts, pts[1:]):
                if (
                    a.region is not Region.EVANESCENT
                    and b.region is not Region.EVANESCENT
                    and a.beta < 0.0
                    and b.beta < 0.0
                ):
                    assert b.beta > a.beta

    def test_unbalanced_cell_opens_a_gap(self, config, cells):
        cell = cells[4]
        bent = calibrate_balanced(cell.c_l, 9.3e9)
        bent = type(cell)(
            l_r=bent.l_r, c_r=1.2 * bent.c_r, l_l=bent.l_l, c_l=bent.c_l, period=bent.period
        )
        pair = resonances(bent)
        f_mid = (pair.omega_se + pair.omega_sh) / (4.0 * math.pi)
        pts = dispersion_sweep(bent, config.f_start, config.f_stop, config.n_points)
        nearest = min(pts, key=lambda pt: abs(pt.f - f_mid))
        assert nearest.region is Region.EVANESCENT

    def test_overflowing_grid_point_is_a_pole_error(self, cells):
        # 5e305 Hz overflows the chain matrix; no sample may stand in for it
        with pytest.raises(PoleError) as err:
            dispersion_sweep(cells[4], 1e9, 1e306, 3)
        assert err.value.frequency == 5e305

    def test_invalid_grid_rejected(self, cells):
        with pytest.raises(ValueError):
            dispersion_sweep(cells[4], 9e9, 8e9)
        with pytest.raises(ValueError):
            dispersion_sweep(cells[4], 8e9, 9e9, n_points=1)

    def test_trace_identity_spot(self, cells):
        cell = cells[3]
        m = unit_cell_abcd(cell, 8.9e9)
        beta, alpha = bloch_gamma(m, cell.period)
        gp = complex(alpha, beta) * cell.period
        m8 = np.linalg.matrix_power(m.as_matrix(), 8)
        assert complex(m8[0, 0] + m8[1, 1]) == pytest.approx(
            2.0 * cmath.cosh(8.0 * gp), rel=1e-10
        )


class TestTransition:
    def test_recovers_calibration_targets(self, cells):
        for n, f0 in ((2, 10.7e9), (3, 9.5e9), (4, 9.3e9)):
            found = transition_frequency(cells[n])
            # 1 kHz root tolerance on a ~10 GHz root
            assert found == pytest.approx(f0, rel=1e-6)

    def test_one_sided_bracket_fails(self, cells):
        with pytest.raises(BracketError, match="does not change sign"):
            transition_frequency(cells[4], bracket=(9.4e9, 12.0e9))

    def test_invalid_bracket_rejected(self, cells):
        with pytest.raises(ValueError):
            transition_frequency(cells[4], bracket=(9e9, 8e9))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from([2, 3, 4]),
        scales=st.tuples(*[st.floats(min_value=0.8, max_value=1.25)] * 4),
        r_series=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)),
        f_lo=st.floats(min_value=1e9, max_value=7e9),
        f_hi=st.floats(min_value=14e9, max_value=40e9),
        xtol=st.sampled_from([1e3, 1.0, 1e-3]),
    )
    def test_brent_port_is_bit_identical_to_scipy(self, cells, n, scales, r_series, f_lo, f_hi, xtol):
        base = cells[n]
        cell = replace(
            base,
            l_r=base.l_r * scales[0],
            c_r=base.c_r * scales[1],
            l_l=base.l_l * scales[2],
            c_l=base.c_l * scales[3],
            r_series=r_series,
        )
        beta_of = beta_function(cell)
        b_lo, b_hi = beta_of(f_lo), beta_of(f_hi)
        assume(b_lo != 0.0 and b_hi != 0.0 and (b_lo < 0.0) != (b_hi < 0.0))
        assert _brentq(beta_of, f_lo, f_hi, b_lo, b_hi, xtol) == brentq(beta_of, f_lo, f_hi, xtol=xtol)

    def test_brent_non_convergence_is_a_bracket_error(self, cells):
        beta_of = beta_function(cells[4])
        f_lo, f_hi = 7.5e9, 12.0e9
        with pytest.raises(BracketError, match="did not converge in 1 iterations"):
            _brentq(beta_of, f_lo, f_hi, beta_of(f_lo), beta_of(f_hi), 1e3, maxiter=1)


class TestScanAngle:
    def test_broadside(self):
        assert scan_angle(0.0, 9.3e9) == 0.0

    def test_endfire(self):
        f = 9.3e9
        assert scan_angle(k0_of(f), f) == pytest.approx(90.0)

    def test_backfire_example(self):
        f = 10.0e9
        beta = -k0_of(f) * math.sin(math.radians(55.0))
        assert scan_angle(beta, f) == pytest.approx(-55.0, rel=1e-12)

    def test_slow_wave_rejected(self):
        f = 9.3e9
        with pytest.raises(SlowWaveError):
            scan_angle(1.01 * k0_of(f), f)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            scan_angle(0.0, 0.0)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e9, max_value=2e10),
    )
    def test_odd_symmetry_is_exact(self, frac, f):
        beta = frac * k0_of(f)
        assert scan_angle(-beta, f) == -scan_angle(beta, f)


class TestScanProfile:
    def test_monotone_and_through_broadside(self, config, cells):
        for n, f0 in ((2, 10.7e9), (3, 9.5e9), (4, 9.3e9)):
            profile = scan_profile(
                cells[n], config.f_start, config.f_stop, config.n_points
            )
            angles = [theta for _, theta in profile]
            assert all(b > a for a, b in zip(angles, angles[1:]))
            at_f0 = [theta for f, theta in profile if abs(f - f0) < 1.0]
            assert at_f0 and abs(at_f0[0]) < 1e-3
