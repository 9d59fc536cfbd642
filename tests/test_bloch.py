import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import bloch_oracle
from perturb import CELL_SCALES, R_SERIES, perturbed
from crlhkit import bloch
from crlhkit.bloch import (
    MAX_N_POINTS,
    REGIONS,
    Region,
    _brentq,
    _chain,
    _scan_deg,
    bloch_gamma,
    classify,
    dispersion_sweep,
    scan_profile,
    transition_frequency,
)
from crlhkit.cell import calibrate_balanced, resonances
from crlhkit.cli import fmt
from crlhkit.errors import BracketError, PoleError
from crlhkit.geometry import C0


def k0_of(f):
    return 2.0 * math.pi * f / C0


def beta_function(cell):
    return lambda f: bloch_gamma(cell, f)[0]


def region_runs(sweep):
    """Regions of a sweep with repeats collapsed: the order the bands come in."""
    runs = []
    for code in sweep.region.tolist():
        if not runs or runs[-1] is not REGIONS[code]:
            runs.append(REGIONS[code])
    return runs


def branch_cascade(cell, f: float) -> np.ndarray:
    """Half series branch, shunt branch, half series branch, multiplied out."""
    w = 2.0 * math.pi * f
    zh = 0.5 * complex(cell.r_series, w * cell.l_r - 1.0 / (w * cell.c_l))
    y = complex(0.0, w * cell.c_r - 1.0 / (w * cell.l_l))
    series = np.array([[1.0, zh], [0.0, 1.0]], dtype=complex)
    shunt = np.array([[1.0, 0.0], [y, 1.0]], dtype=complex)
    return series @ shunt @ series


class TestAbcd:
    """The kernel's chain entries (a = d, b, c) of one cell."""

    def test_symmetric_cell_has_equal_corners(self, cells):
        # the kernel returns one a for both corners; the branch cascade
        # must agree that they are equal
        f = np.array([8.0e9, 9.3e9, 11.5e9])
        for cell in cells.values():
            a, b, c = _chain(cell, f)
            for i, fi in enumerate(f.tolist()):
                m = branch_cascade(cell, fi)
                assert m[0, 0] == pytest.approx(m[1, 1], rel=1e-12, abs=1e-12)
                assert [a[i], b[i], c[i]] == pytest.approx([m[0, 0], m[0, 1], m[1, 0]], rel=1e-12)

    def test_reciprocity(self, cells):
        for cell in cells.values():
            a, b, c = _chain(cell, np.linspace(7.6e9, 11.9e9, 7))
            assert (np.abs(a * a - b * c - 1.0) < 1e-10).all()

    def test_rejects_nonpositive_frequency(self, cells):
        for f in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                bloch_gamma(cells[4], f)

    def test_overflowing_frequency_is_a_pole_error(self, cells):
        with pytest.raises(PoleError) as err:
            bloch_gamma(cells[4], 1e308)
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
            beta, alpha = bloch_gamma(cell, f)
            assert beta == pytest.approx(expected, rel=1e-9)
            assert alpha == pytest.approx(0.0, abs=1e-9)

    def test_zero_phase_at_transition(self, cells):
        for n, f0 in ((2, 10.7e9), (3, 9.5e9), (4, 9.3e9)):
            beta, alpha = bloch_gamma(cells[n], f0)
            assert abs(beta) < 1e-6
            assert alpha <= 1e-9

    def test_rejects_nonpositive_period(self, cells):
        # the period comes from the cell, which cannot be built without one
        with pytest.raises(ValueError, match="period"):
            replace(cells[4], period=0.0)
        with pytest.raises(ValueError, match="frequency must be positive"):
            bloch_gamma(cells[4], np.array([9.0e9, 0.0]))

    def test_array_matches_one_frequency_at_a_time(self, cells):
        cell = cells[3]
        freqs = np.linspace(7.5e9, 12.0e9, 37)
        beta, alpha = bloch_gamma(cell, freqs)
        assert beta.shape == alpha.shape == freqs.shape
        singles = [bloch_gamma(cell, f) for f in freqs.tolist()]
        assert all(isinstance(v, float) for pair in singles for v in pair)
        assert [b for b, _ in singles] == beta.tolist()
        assert [a for _, a in singles] == alpha.tolist()

    @given(
        st.floats(min_value=1e-14, max_value=1e-13),
        st.floats(min_value=8.5e9, max_value=1.1e10),
        st.floats(min_value=7.6e9, max_value=1.19e10),
    )
    @settings(max_examples=100)
    def test_principal_phase_bound(self, c_l, f0, f):
        cell = calibrate_balanced(c_l, f0)
        beta, alpha = bloch_gamma(cell, f)
        assert abs(beta) * cell.period <= math.pi + 1e-9
        assert alpha >= 0.0


def region_of(beta, alpha, k0, p):
    return REGIONS[classify(beta, alpha, k0, p)]


class TestClassify:
    def test_pinned_attenuating_samples_are_evanescent(self):
        p = 3.2e-3
        k0 = k0_of(9.3e9)
        assert region_of(0.0, 50.0, k0, p) is Region.EVANESCENT
        assert region_of(-math.pi / p, 50.0, k0, p) is Region.EVANESCENT
        assert region_of(math.pi / p, 50.0, k0, p) is Region.EVANESCENT

    def test_attenuating_fast_wave_still_leaks(self):
        # dissipative loss does not pin the phase, so the wave radiates
        p = 3.2e-3
        k0 = k0_of(9.3e9)
        assert region_of(-0.4 * k0, 5.0, k0, p) is Region.LEFT_HANDED_LEAKY

    def test_fast_and_slow_waves(self):
        p = 3.2e-3
        k0 = k0_of(9.3e9)
        assert region_of(-0.5 * k0, 0.0, k0, p) is Region.LEFT_HANDED_LEAKY
        assert region_of(0.5 * k0, 0.0, k0, p) is Region.RIGHT_HANDED_LEAKY
        assert region_of(0.0, 0.0, k0, p) is Region.RIGHT_HANDED_LEAKY
        assert region_of(2.0 * k0, 0.0, k0, p) is Region.GUIDED_SLOW_WAVE
        assert region_of(-2.0 * k0, 0.0, k0, p) is Region.GUIDED_SLOW_WAVE

    def test_classifies_arrays_elementwise(self):
        p = 3.2e-3
        k0 = k0_of(9.3e9)
        beta = np.array([0.0, -0.5 * k0, 0.5 * k0, 2.0 * k0])
        alpha = np.array([50.0, 0.0, 0.0, 0.0])
        codes = classify(beta, alpha, k0, p)
        assert [REGIONS[c] for c in codes] == [
            Region.EVANESCENT,
            Region.LEFT_HANDED_LEAKY,
            Region.RIGHT_HANDED_LEAKY,
            Region.GUIDED_SLOW_WAVE,
        ]


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
            sweep = dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)
            assert region_runs(sweep) == expected

    def test_single_sign_change(self, config, cells):
        for cell in cells.values():
            sweep = dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)
            signs = np.sign(sweep.beta[sweep.beta != 0.0])
            assert np.count_nonzero(np.diff(signs)) == 1

    def test_lossless_passband_has_zero_attenuation(self, config, cells):
        evanescent = REGIONS.index(Region.EVANESCENT)
        for cell in cells.values():
            sweep = dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)
            assert (sweep.alpha[sweep.region != evanescent] <= 1e-9).all()

    def test_stopband_phase_is_pinned(self, config, cells):
        cell = cells[4]
        sweep = dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)
        bp = np.abs(sweep.beta[sweep.region == REGIONS.index(Region.EVANESCENT)]) * cell.period
        assert bp.size and (np.minimum(bp, np.abs(bp - math.pi)) < 1e-9).all()

    def test_backward_branch_slope(self, config, cells):
        evanescent = REGIONS.index(Region.EVANESCENT)
        for cell in cells.values():
            sweep = dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)
            backward = (sweep.region != evanescent) & (sweep.beta < 0.0)
            pairs = backward[:-1] & backward[1:]
            assert pairs.any()
            assert (np.diff(sweep.beta)[pairs] > 0.0).all()

    def test_unbalanced_cell_opens_a_gap(self, config, cells):
        cell = cells[4]
        bent = calibrate_balanced(cell.c_l, 9.3e9)
        bent = type(cell)(
            l_r=bent.l_r, c_r=1.2 * bent.c_r, l_l=bent.l_l, c_l=bent.c_l, period=bent.period
        )
        pair = resonances(bent)
        f_mid = (pair.omega_se + pair.omega_sh) / (4.0 * math.pi)
        sweep = dispersion_sweep(bent, config.f_start, config.f_stop, config.n_points)
        nearest = int(np.argmin(np.abs(sweep.f - f_mid)))
        assert REGIONS[sweep.region[nearest]] is Region.EVANESCENT

    def test_columns_are_read_only_and_consistent(self, config, cells):
        sweep = dispersion_sweep(cells[4], config.f_start, config.f_stop, config.n_points)
        leaky = [REGIONS.index(Region.LEFT_HANDED_LEAKY), REGIONS.index(Region.RIGHT_HANDED_LEAKY)]
        assert np.array_equal(sweep.leaky, np.isin(sweep.region, leaky))
        assert np.array_equal(np.isnan(sweep.scan_deg), ~sweep.leaky)
        assert np.array_equal(sweep.f, np.linspace(config.f_start, config.f_stop, config.n_points))
        with pytest.raises(ValueError):
            sweep.beta[0] = 0.0

    def test_overflowing_grid_point_is_a_pole_error(self, cells):
        # 5e305 Hz overflows the chain matrix; no sample may stand in for it
        with pytest.raises(PoleError) as err:
            dispersion_sweep(cells[4], 1e9, 1e306, 3)
        assert err.value.frequency == 5e305

    def test_grid_over_one_block_matches_one_pass(self, cells, monkeypatch):
        n = bloch._SWEEP_BLOCK + 1
        blocked = dispersion_sweep(cells[4], 7.5e9, 12e9, n)
        monkeypatch.setattr(bloch, "_SWEEP_BLOCK", n)
        whole = dispersion_sweep(cells[4], 7.5e9, 12e9, n)
        for name, column in vars(whole).items():
            assert getattr(blocked, name).tobytes() == column.tobytes(), name

    def test_pole_in_the_second_block_names_its_frequency(self, cells, monkeypatch):
        # this cell's chain matrix first overflows near 2.86e111 Hz, about
        # two thirds along the grid, so in its second block
        block = bloch._SWEEP_BLOCK
        n, f_stop = 2 * block, 4.3e111
        with pytest.raises(PoleError) as blocked:
            dispersion_sweep(cells[4], 1e9, f_stop, n)
        monkeypatch.setattr(bloch, "_SWEEP_BLOCK", n)
        with pytest.raises(PoleError) as whole:
            dispersion_sweep(cells[4], 1e9, f_stop, n)
        assert blocked.value.frequency == whole.value.frequency
        first_bad = int(np.searchsorted(np.linspace(1e9, f_stop, n), whole.value.frequency))
        assert block < first_bad < n

    def test_invalid_grid_rejected(self, cells):
        with pytest.raises(ValueError):
            dispersion_sweep(cells[4], 9e9, 8e9)
        with pytest.raises(ValueError):
            dispersion_sweep(cells[4], 8e9, 9e9, n_points=1)

    def test_grid_above_the_cap_rejected(self, cells):
        # refused before any array is allocated
        with pytest.raises(ValueError, match=f"within 2..{MAX_N_POINTS}"):
            dispersion_sweep(cells[4], 8e9, 9e9, n_points=MAX_N_POINTS + 1)

    def test_trace_identity_spot(self, cells):
        cell = cells[3]
        m = bloch_oracle.chain_matrix(cell, 8.9e9)
        beta, alpha = bloch_gamma(cell, 8.9e9)
        gp = complex(alpha, beta) * cell.period
        m8 = np.linalg.matrix_power(m, 8)
        assert complex(m8[0, 0] + m8[1, 1]) == pytest.approx(
            2.0 * cmath.cosh(8.0 * gp), rel=1e-10
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2, 3, 4]),
        scales=CELL_SCALES,
        r_series=R_SERIES,
        f_lo=st.floats(min_value=1e8, max_value=2e10),
        span=st.floats(min_value=1e6, max_value=3e10),
        n_points=st.integers(min_value=2, max_value=400),
    )
    def test_kernel_matches_scalar_oracle(self, cells, n, scales, r_series, f_lo, span, n_points):
        cell = perturbed(cells[n], scales, r_series)
        sweep = dispersion_sweep(cell, f_lo, f_lo + span, n_points)
        for i, f in enumerate(sweep.f.tolist()):
            beta, alpha, k0, region, angle = bloch_oracle.sample(cell, f)
            assert REGIONS[sweep.region[i]] is region
            assert bool(sweep.leaky[i]) == (angle is not None)
            beta_i = sweep.beta[i]
            got = [beta_i, sweep.alpha[i], sweep.k0[i], beta_i * cell.period / math.pi]
            want = [beta, alpha, k0, beta * cell.period / math.pi]
            if angle is not None:
                got.append(sweep.scan_deg[i])
                want.append(angle)
            assert [fmt(v) for v in got] == [fmt(v) for v in want], f"sample {i} at {f!r} Hz"


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
        scales=CELL_SCALES,
        r_series=R_SERIES,
        f_lo=st.floats(min_value=1e9, max_value=7e9),
        f_hi=st.floats(min_value=14e9, max_value=40e9),
        xtol=st.sampled_from([1e3, 1.0, 1e-3]),
    )
    def test_brent_port_is_bit_identical_to_scipy(self, cells, n, scales, r_series, f_lo, f_hi, xtol):
        cell = perturbed(cells[n], scales, r_series)
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
    """asin(beta/k0) in degrees, the kernel behind DispersionSweep.scan_deg."""

    def test_broadside(self):
        assert _scan_deg(0.0, k0_of(9.3e9)) == 0.0

    def test_endfire(self):
        k0 = k0_of(9.3e9)
        assert _scan_deg(k0, k0) == pytest.approx(90.0)

    def test_backfire_example(self):
        k0 = k0_of(10.0e9)
        beta = -k0 * math.sin(math.radians(55.0))
        assert _scan_deg(beta, k0) == pytest.approx(-55.0, rel=1e-12)

    def test_slow_wave_rejected(self, cells):
        # a guided slow wave radiates no beam: the sweep gives it no angle
        sweep = dispersion_sweep(cells[4])
        slow = sweep.region == REGIONS.index(Region.GUIDED_SLOW_WAVE)
        assert slow.any()
        assert np.isnan(sweep.scan_deg[~sweep.leaky]).all()
        assert not np.isnan(sweep.scan_deg[sweep.leaky]).any()

    def test_nonpositive_frequency_rejected(self, cells):
        # scan angles come only from a sweep, which takes no such grid
        for f_start, f_stop in ((0.0, 9e9), (-1e9, 9e9), (math.nan, 9e9), (8e9, math.nan)):
            with pytest.raises(ValueError):
                dispersion_sweep(cells[4], f_start, f_stop)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "f_start, f_stop, name",
        [(8e9, math.inf, "f_stop"), (-math.inf, 9e9, "f_start"), (math.inf, math.inf, "f_start")],
    )
    def test_non_finite_band_edge_rejected_at_entry(self, cells, f_start, f_stop, name):
        # rejected before np.linspace could warn about an infinite span
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            dispersion_sweep(cells[4], f_start, f_stop)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e9, max_value=2e10),
    )
    def test_odd_symmetry_is_exact(self, frac, f):
        k0 = k0_of(f)
        beta = frac * k0
        assert _scan_deg(-beta, k0) == -_scan_deg(beta, k0)


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
