import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radiation_oracle
from crlhkit.bloch import bloch_gamma, dispersion_sweep
from crlhkit.geometry import C0
from crlhkit.radiation import (
    _default_grid,
    _inputs,
    _magnitudes,
    _with_leakage,
    array_factor,
    pattern_for_frequency,
)
from perturb import CELL_SCALES, R_SERIES, perturbed

F0 = 9.3e9
P = 3.2e-3

# Broadside 3 dB beamwidths for 4, 8, and 16 cells on the default grid,
# frozen from a direct evaluation of the aperture sum. Four cells are too
# short an aperture to fall 3 dB inside the visible span, so the width
# saturates at the full grid.
BW_BY_CELLS = {4: 180.0, 8: 68.204, 16: 32.389}


class TestArrayFactor:
    def test_single_cell_is_flat(self):
        pat = array_factor(0.0 + 0.0j, P, 1, F0)
        assert np.all(pat.magnitude_db == 0.0)
        assert pat.beamwidth_3db_deg == 180.0

    def test_broadside_peak(self):
        pat = array_factor(0.0 + 0.0j, P, 8, F0)
        assert pat.main_beam_deg == 0.0
        assert pat.magnitude_db.max() == 0.0

    def test_normalization_is_exact(self):
        beta = 0.4 * (2.0 * math.pi * F0 / 299792458.0)
        pat = array_factor(complex(10.0, beta), P, 8, F0)
        assert pat.magnitude_db.max() == 0.0

    def test_mirror_symmetry(self):
        k0 = 2.0 * math.pi * F0 / 299792458.0
        fwd = array_factor(complex(0.0, 0.5 * k0), P, 8, F0)
        bwd = array_factor(complex(0.0, -0.5 * k0), P, 8, F0)
        assert bwd.main_beam_deg == -fwd.main_beam_deg
        assert np.array_equal(bwd.magnitude_db, fwd.magnitude_db[::-1])

    def test_beamwidths_narrow_with_aperture(self, cells):
        cell = cells[4]
        beta, alpha = bloch_gamma(cell, F0)
        widths = {
            n: array_factor(complex(alpha, beta), cell.period, n, F0).beamwidth_3db_deg
            for n in (4, 8, 16)
        }
        for n, expected in BW_BY_CELLS.items():
            assert widths[n] == pytest.approx(expected, abs=1e-3)
        assert widths[4] > widths[8] > widths[16]

    def test_leakage_broadens_broadside_beam(self):
        widths = [
            array_factor(complex(alpha_p / P, 0.0), P, 8, F0).beamwidth_3db_deg
            for alpha_p in (0.0, 0.05, 0.2)
        ]
        assert widths[0] < widths[1] < widths[2]

    def test_theta_grid_default(self):
        grid = array_factor(0.3j, P, 8, F0).theta_deg
        assert grid[0] == -90.0 and grid[-1] == 90.0
        assert len(grid) == 721
        assert np.array_equal(np.diff(grid), np.full(720, 0.25))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            array_factor(0.0j, P, 0, F0)
        with pytest.raises(ValueError):
            array_factor(0.0j, P, 8, -1.0)
        with pytest.raises(ValueError):
            array_factor(0.0j, 0.0, 8, F0)
        with pytest.raises(ValueError):
            array_factor(np.zeros(2, dtype=complex), P, 8, np.array([F0, -1.0]))
        with pytest.raises(ValueError):
            array_factor(np.zeros(2, dtype=complex), P, 8, np.array([F0, F0, F0]))

    @given(st.floats(min_value=-0.9, max_value=0.9), st.integers(min_value=2, max_value=12))
    @settings(max_examples=50)
    def test_peak_tracks_phase_steering(self, frac, n_cells):
        k0 = 2.0 * math.pi * F0 / 299792458.0
        pat = array_factor(complex(0.0, frac * k0), P, n_cells, F0)
        expected = math.degrees(math.asin(frac))
        assert abs(pat.main_beam_deg - expected) <= pat.beamwidth_3db_deg / 2.0

    @settings(deadline=None)
    @given(
        n_cells=st.integers(min_value=2, max_value=79),
        alpha_p=st.floats(min_value=-0.02, max_value=3.0),
    )
    def test_af_does_not_rise_up_to_pi_over_n_minus_1(self, n_cells, alpha_p):
        # |AF|^2 of exp(-n alpha p) is a sum of w_k cos(k psi) with every
        # w_k > 0, so |AF| falls from its lobe centre psi = 0 to pi/(N - 1)
        total = math.fsum(math.exp(-alpha_p * n) for n in range(n_cells))
        psi = np.linspace(0.0, math.pi / (n_cells - 1), 400)
        af = radiation_oracle.magnitude(alpha_p, 1.0, n_cells, psi)
        assert (np.diff(af) <= 1e-12 * total).all()


# The closed form's |AF|, over the sum of |exp(-n gamma p)|, lies within
# ORACLE_BOUND of the direct sum's; the widths of beams that agree lie within
# WIDTH_TOL_DEG. Measured worst over 31,000 rows of TestBeams' distributions,
# 1,000 cells among them: 5.4e-13, on 1,000 cells at k0 p = 43 rad, where
# rounding k0 p sin theta - beta p is multiplied by N/2; and 3.0e-12 degrees.
ORACLE_BOUND = 2e-12
WIDTH_TOL_DEG = 1e-9


def assert_matches_the_oracle(pat, gamma, p, n_cells):
    """A one-frequency pattern agrees with the direct-sum oracle: its |AF|
    within ORACLE_BOUND, its main beam a grid angle whose exact |AF| is
    within ORACLE_BOUND of the grid maximum, and, where the two beams are
    one angle, its -3 dB width within WIDTH_TOL_DEG."""
    theta, sin_theta = _default_grid()
    _, gammas, phase_step = _inputs(gamma, p, n_cells, pat.f)
    decay = abs(gammas[0].real) * p
    closed = _magnitudes(sin_theta, phase_step, gammas, p, n_cells)[0]
    closed /= math.fsum(math.exp(-n * decay) for n in range(n_cells))
    exact = radiation_oracle.normalized_magnitude(gamma, p, n_cells, phase_step[0] * sin_theta)
    assert np.abs(closed - exact).max() <= ORACLE_BOUND
    assert exact[theta == pat.main_beam_deg][0] >= exact.max() - ORACLE_BOUND
    _, beam, width = radiation_oracle.array_factor(gamma, p, n_cells, pat.f, theta)
    if beam == pat.main_beam_deg:
        assert abs(pat.beamwidth_3db_deg - width) <= WIDTH_TOL_DEG


def assert_rows_match_one_at_a_time(pats, gammas, p, n_cells):
    """Each row of a batched pattern equals the one-frequency call bit for
    bit, and that call agrees with the scalar oracle."""
    assert pats.theta_deg is _default_grid()[0]
    assert pats.magnitude_db.shape == (len(pats.f), 721)
    for i, (gamma, f) in enumerate(zip(gammas, pats.f.tolist())):
        one = array_factor(gamma, p, n_cells, f)
        assert pats.main_beam_deg[i] == one.main_beam_deg
        assert pats.beamwidth_3db_deg[i] == one.beamwidth_3db_deg
        assert np.array_equal(pats.magnitude_db[i], one.magnitude_db)
        assert_matches_the_oracle(one, gamma, p, n_cells)


class TestBatchedArrayFactor:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2, 3, 4]),
        scales=CELL_SCALES,
        r_series=R_SERIES,
        freqs=st.lists(st.floats(min_value=6e9, max_value=13e9), min_size=1, max_size=11),
        n_cells=st.integers(min_value=1, max_value=16),
        leakage=st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.3)),
    )
    def test_array_call_matches_one_frequency_at_a_time(
        self, cells, n, scales, r_series, freqs, n_cells, leakage
    ):
        cell = perturbed(cells[n], scales, r_series)
        pats = pattern_for_frequency(cell, np.array(freqs), n_cells, leakage)
        gammas = []
        for f in freqs:
            beta, alpha = bloch_gamma(cell, f)
            if leakage is not None:
                alpha = leakage / cell.period
            gammas.append(complex(alpha, beta))
            one = pattern_for_frequency(cell, f, n_cells, leakage)
            assert isinstance(one.main_beam_deg, float) and one.magnitude_db.ndim == 1
        assert_rows_match_one_at_a_time(pats, gammas, cell.period, n_cells)

    def test_flat_single_cell_rows_fall_back_to_the_grid_edges(self):
        freqs = np.array([8e9, F0, 11e9])
        gammas = np.array([0.3j, 1.0 + 0.0j, -0.5j])
        pats = array_factor(gammas, P, 1, freqs)
        assert (pats.magnitude_db == 0.0).all()
        assert (pats.beamwidth_3db_deg == 180.0).all()
        assert_rows_match_one_at_a_time(pats, gammas, P, 1)

    def test_peaks_on_the_first_and_last_grid_angle(self):
        k0 = 2.0 * math.pi * F0 / 299792458.0
        gammas = np.array([complex(0.0, -k0), complex(0.0, k0), 0j, complex(5.0, 0.2 * k0)])
        pats = array_factor(gammas, P, 8, np.full(4, F0))
        assert pats.main_beam_deg[:3].tolist() == [-90.0, 90.0, 0.0]
        assert_rows_match_one_at_a_time(pats, gammas, P, 8)

    def test_a_band_of_frequencies_matches_one_at_a_time(self, cells):
        freqs = np.linspace(8.8e9, 9.9e9, 23)
        pats = pattern_for_frequency(cells[4], freqs, 8, leakage_np_per_cell=0.05)
        gammas = [complex(0.05 / P, bloch_gamma(cells[4], f)[0]) for f in freqs.tolist()]
        assert_rows_match_one_at_a_time(pats, gammas, cells[4].period, 8)


class TestClosedForm:
    """|AF| is the closed-form geometric sum |1 - z^N| / |1 - z|: its phase
    reduced before it is multiplied by N, and a growing wave taken as the
    decaying one of the same |alpha|."""

    @pytest.mark.parametrize("n_cells", [79, 1_000])
    def test_grating_lobe_peaks_at_n(self, n_cells):
        # a lossless 20 mm line at 2 c/p has k0 p = 4 pi: besides broadside,
        # a grating lobe sits on the +30 and -30 degree rows
        p, f = 20e-3, 2.0 * C0 / 20e-3
        theta, sin_theta = _default_grid()
        _, gammas, phase_step = _inputs(0j, p, n_cells, f)
        magnitude = _magnitudes(sin_theta, phase_step, gammas, p, n_cells)[0]
        assert magnitude[np.abs(theta) == 30.0] == pytest.approx([n_cells] * 2, rel=1e-12)
        assert magnitude.max() == pytest.approx(n_cells, rel=1e-12)
        pats = array_factor(np.array([0j]), p, n_cells, np.array([f]))
        assert_rows_match_one_at_a_time(pats, [0j], p, n_cells)

    @pytest.mark.parametrize("growth", [400.0, 750.0])
    def test_growing_wave_pattern_is_finite(self, growth):
        # N |alpha| p of 400 and 750 over 8 cells: r^N of the growing wave
        # is exp(400) and exp(750), and its square or itself overflows
        gamma = complex(-growth / (8 * P), 50.0)
        pat = array_factor(gamma, P, 8, F0)
        assert np.isfinite(pat.magnitude_db).all()
        assert pat.magnitude_db.max() == 0.0
        assert_rows_match_one_at_a_time(
            array_factor(np.array([gamma]), P, 8, np.array([F0])), [gamma], P, 8
        )

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        log_p=st.floats(min_value=math.log(0.3e-3), max_value=math.log(50e-3)),
    )
    def test_thousand_cells_match_the_oracle(self, seed, log_p):
        # TestBeams' second distribution at the largest line the parser takes
        f, gamma = wide_beam_inputs(seed, 3)
        p = math.exp(log_p)
        assert_rows_match_one_at_a_time(array_factor(gamma, p, 1_000, f), gamma.tolist(), p, 1_000)


class TestMirroredSteering:
    """Rows steered either side of broadside, and tiny phases, agree with
    the oracle on the one grid of 721 angles; inputs that would make any
    |AF| NaN are rejected."""

    FREQS = np.array([8.2e9, 9.0e9, F0, 9.9e9, 10.7e9, 12.5e9])
    GAMMAS = np.array([0.3j, 15.6 - 110.0j, 0j, 15.6 + 40.0j, 2.0 + 160.0j, 15.6 - 260.0j])

    @pytest.mark.parametrize("n_cells", [1, 8])
    def test_matches_the_oracle(self, n_cells):
        pats = array_factor(self.GAMMAS, P, n_cells, self.FREQS)
        assert_rows_match_one_at_a_time(pats, self.GAMMAS.tolist(), P, n_cells)

    def test_phase_that_rounds_to_zero_matches_the_oracle(self):
        # at 1e-312 Hz, k0 p is ~7e-323 and k0 p sin theta is subnormal or
        # zero: the half angle loses digits, but both chords share it
        gamma, f = np.array([0.3j, 0j]), np.array([1e-312, 1e-312])
        phase_step = 2.0 * math.pi * f[0] / C0 * P
        assert phase_step * math.sin(math.radians(0.25)) == 0.0
        assert_rows_match_one_at_a_time(array_factor(gamma, P, 8, f), gamma.tolist(), P, 8)

    def test_cached_default_grid_is_read_only(self):
        pat = array_factor(0.3j, P, 8, F0)
        assert pat.theta_deg is _default_grid()[0]
        with pytest.raises(ValueError, match="read-only"):
            pat.theta_deg[0] = 0.0
        assert not _default_grid()[1].flags.writeable
        assert np.array_equal(_default_grid()[1], np.sin(np.radians(pat.theta_deg)))

    @pytest.mark.parametrize(
        "gamma, match",
        [
            (complex(math.nan, 0.0), "gamma must be finite, got \\(nan"),
            (complex(0.0, math.inf), "gamma must be finite, got infj"),
            (
                -1e5 + 0j,
                r"^sum of \|exp\(-n gamma p\)\| over 8 cells must be finite, got inf "
                r"at gamma \(-100000\+0j\) and period 0\.0032$",
            ),
        ],
        ids=["nan", "inf", "growing"],
    )
    def test_non_finite_excitation_rejected(self, gamma, match):
        # a wave growing at 1e5 Np/m over 8 cells of 3.2 mm: the sum of
        # |exp(-n gamma p)| overflows, and its whole message is pinned
        with pytest.raises(ValueError, match=match):
            array_factor(np.array([0.3j, gamma]), P, 8, np.array([F0, F0]))

    def test_non_finite_grid_or_phase_rejected(self):
        # the grid is fixed and finite; a k0 p that overflows is the case left
        with pytest.raises(ValueError, match="k0 p must be finite"):
            array_factor(0.0j, P, 8, 1e308)

    def test_overflowing_steering_phase_rejected(self):
        # k0 p is 3.3e307 at a 1.7e305 m period; the phase across 7 cells,
        # (n_cells - 1) k0 p, overflows and is rejected; one cell has none
        p = 1.7e305
        assert math.isfinite(2.0 * math.pi * F0 / C0 * p)
        with pytest.raises(ValueError, match=r"\(n_cells - 1\) k0 p must be finite, got inf"):
            array_factor(0.3j, p, 8, F0)
        pat = array_factor(0.3j, p, 1, F0)
        assert (pat.main_beam_deg, pat.beamwidth_3db_deg) == (-90.0, 180.0)


def steered_beam_inputs(seed, n_freqs, p, beta, lossy):
    """Frequencies and gammas of TestBeams' first distribution: 6-20 GHz,
    beta as a fraction of k0, in rad/m or zero, lossless or lossy."""
    rng = np.random.default_rng(seed)
    f = rng.uniform(6e9, 20e9, n_freqs)
    k0 = 2.0 * math.pi * f / C0
    betas = {
        "k0": rng.uniform(-1.3, 1.3, n_freqs) * k0,
        "rad_per_m": rng.uniform(-400.0, 400.0, n_freqs),
        "zero": np.zeros(n_freqs),
    }[beta]
    alphas = np.where(rng.random(n_freqs) < 0.5, 0.0, rng.uniform(0.0, 30.0, n_freqs))
    return f, betas * 1j + (alphas if lossy else 0.0)


def wide_beam_inputs(seed, n_freqs):
    """Frequencies and gammas of TestBeams' second distribution: 0.1-50 GHz,
    beta within 1.3 k0, and growing waves."""
    rng = np.random.default_rng(seed)
    f = np.exp(rng.uniform(math.log(1e8), math.log(5e10), n_freqs))
    beta = rng.uniform(-1.3, 1.3, n_freqs) * (2.0 * math.pi * f / C0)
    alpha = np.where(rng.random(n_freqs) < 0.3, 0.0, rng.uniform(-0.5, 30.0, n_freqs))
    return f, alpha + 1j * beta


class TestBeams:
    """array_factor's grid beam and -3 dB width: held to the scalar oracle
    within ORACLE_BOUND and WIDTH_TOL_DEG, grating lobes and growing waves
    included, and to the beam direction asin(beta/k0) within half a
    beamwidth."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_freqs=st.integers(min_value=1, max_value=69),
        n_cells=st.integers(min_value=1, max_value=40),
        p=st.floats(min_value=5e-3, max_value=20e-3),
        beta=st.sampled_from(["k0", "rad_per_m", "zero"]),
        lossy=st.booleans(),
    )
    def test_equals_array_factor(self, seed, n_freqs, n_cells, p, beta, lossy):
        # 6-20 GHz on 5-20 mm periods puts grating lobes on the grid
        f, gamma = steered_beam_inputs(seed, n_freqs, p, beta, lossy)
        assert_rows_match_one_at_a_time(array_factor(gamma, p, n_cells, f), gamma.tolist(), p, n_cells)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_freqs=st.integers(min_value=1, max_value=20),
        n_cells=st.integers(min_value=1, max_value=79),
        log_p=st.floats(min_value=math.log(0.3e-3), max_value=math.log(50e-3)),
    )
    def test_equals_array_factor_across_bands_and_periods(self, seed, n_freqs, n_cells, log_p):
        # 0.1-50 GHz on 0.3-50 mm periods, from an aperture of a fraction of
        # a wavelength to one with many grating lobes, and growing waves
        f, gamma = wide_beam_inputs(seed, n_freqs)
        p = math.exp(log_p)
        assert_rows_match_one_at_a_time(array_factor(gamma, p, n_cells, f), gamma.tolist(), p, n_cells)

    def test_crossings_beyond_the_grid_fall_back_to_its_edges(self):
        # four cells are too short an aperture to fall 3 dB inside the grid
        pat = array_factor(0j, P, 4, F0)
        assert (pat.main_beam_deg, pat.beamwidth_3db_deg) == (0.0, 180.0)

    @settings(max_examples=50, deadline=None)
    @given(
        states=st.lists(
            st.tuples(st.sampled_from([2, 3, 4]), CELL_SCALES, R_SERIES, st.integers(0, 30)),
            min_size=1,
            max_size=3,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_cells=st.integers(min_value=1, max_value=40),
        leakage=st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.3)),
    )
    def test_one_call_equals_the_per_state_calls(self, cells, states, seed, n_cells, leakage):
        # the states of one config share its period; each state's 0-30
        # frequencies are joined in state order
        rng = np.random.default_rng(seed)
        joined = [
            (perturbed(cells[n], scales, r_series), np.sort(rng.uniform(6e9, 13e9, count)))
            for n, scales, r_series, count in states
        ]
        gamma = np.concatenate(
            [_with_leakage(*bloch_gamma(cell, f), cell.period, leakage) for cell, f in joined]
        )
        f = np.concatenate([f for _, f in joined])
        pats = array_factor(gamma, cells[2].period, n_cells, f)
        each = [pattern_for_frequency(cell, f, n_cells, leakage) for cell, f in joined]
        assert np.array_equal(pats.main_beam_deg, np.concatenate([e.main_beam_deg for e in each]))
        assert np.array_equal(
            pats.beamwidth_3db_deg, np.concatenate([e.beamwidth_3db_deg for e in each])
        )
        assert np.array_equal(pats.magnitude_db, np.concatenate([e.magnitude_db for e in each]))

    @pytest.mark.parametrize("leakage", [None, 0.05], ids=["bloch", "leakage"])
    def test_grid_beam_lies_within_half_a_beamwidth_of_asin(self, config, cells, leakage):
        # the main beam sits at sin theta = beta/k0 exactly; on the paper's
        # 8 cells the 0.25 deg grid resolves it at every leaky sample
        n_cells = config.cell_geometry.n_cells
        for cell in cells.values():
            sweep = dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)
            pats = pattern_for_frequency(cell, sweep.f[sweep.leaky], n_cells, leakage)
            miss = np.abs(pats.main_beam_deg - sweep.scan_deg[sweep.leaky])
            assert len(miss) > 0 and (miss <= pats.beamwidth_3db_deg / 2.0).all()


class TestPatternForFrequency:
    def test_broadside_beam_within_a_degree(self, cells):
        pat = pattern_for_frequency(cells[4], F0, 8)
        assert abs(pat.main_beam_deg) <= 1.0

    def test_leakage_injection_replaces_alpha(self, cells):
        ideal = pattern_for_frequency(cells[4], F0, 8)
        leaky = pattern_for_frequency(cells[4], F0, 8, leakage_np_per_cell=0.05)
        assert leaky.beamwidth_3db_deg > ideal.beamwidth_3db_deg

    def test_negative_leakage_rejected(self, cells):
        with pytest.raises(ValueError):
            pattern_for_frequency(cells[4], F0, 8, leakage_np_per_cell=-0.1)

    def test_many_cells_take_no_memory_per_cell(self, cells):
        # 40 frequencies at 1,000 cells: a few 40 x 721 arrays, 0.23 MB each,
        # whatever the number of cells; a steering tensor would be 461 MB
        f = np.linspace(8.8e9, 9.9e9, 40)
        tracemalloc.start()
        try:
            pats = pattern_for_frequency(cells[4], f, 1_000, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert pats.magnitude_db.shape == (40, 721)


class TestMainBeamVsFrequency:
    """The beam trajectory: array-factor peaks along a sweep's leaky columns."""

    def test_tracks_scan_angle_in_band(self, config, cells):
        cell = cells[4]
        n_cells = config.cell_geometry.n_cells
        # the fast-wave band of the 4-finger state (about 9.0-9.65 GHz)
        sweep = dispersion_sweep(cell, 8.8e9, 9.9e9, 12)
        freqs = sweep.f[sweep.leaky].tolist()
        assert len(freqs) >= 5
        patterns = [pattern_for_frequency(cell, f, n_cells) for f in freqs]
        angles = [pat.main_beam_deg for pat in patterns]
        assert all(b > a for a, b in zip(angles, angles[1:]))
        for pat, expected in zip(patterns, sweep.scan_deg[sweep.leaky].tolist()):
            assert abs(pat.main_beam_deg - expected) <= pat.beamwidth_3db_deg / 2.0

    def test_below_transition_points_backward(self, config, cells):
        sweep = dispersion_sweep(cells[4], 8.8e9, 9.2e9, 5)
        assert sweep.leaky.any() and (sweep.scan_deg[sweep.leaky] < 0.0).all()
        pat = pattern_for_frequency(cells[4], 8.8e9, config.cell_geometry.n_cells)
        assert pat.main_beam_deg < 0.0

    def test_empty_frequency_list_rejected(self, cells):
        for n_points in (0, 1):
            with pytest.raises(ValueError):
                dispersion_sweep(cells[4], 9.0e9, 9.6e9, n_points)
