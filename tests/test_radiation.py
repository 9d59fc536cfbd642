import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import radiation_oracle
from crlhkit import radiation
from crlhkit.bloch import bloch_gamma, dispersion_sweep
from crlhkit.geometry import C0
from crlhkit.radiation import (
    _beams,
    _default_grid,
    _excitation,
    _gamma_for,
    _inputs,
    _screen,
    _sin_squared,
    array_factor,
    beams_for_frequency,
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


def assert_rows_match_one_at_a_time(pats, gammas, p, n_cells):
    """Each row of a batched pattern equals the one-frequency call and the
    scalar oracle, bit for bit, and its beam and width equal _beams'."""
    assert pats.theta_deg is _default_grid()[0]
    assert pats.magnitude_db.shape == (len(pats.f), 721)
    beams, widths = _beams(np.array(gammas), p, n_cells, pats.f)
    assert (beams == pats.main_beam_deg).all() and (widths == pats.beamwidth_3db_deg).all()
    for i, (gamma, f) in enumerate(zip(gammas, pats.f.tolist())):
        one = array_factor(gamma, p, n_cells, f)
        db, beam, width = radiation_oracle.array_factor(gamma, p, n_cells, f, pats.theta_deg)
        assert pats.main_beam_deg[i] == one.main_beam_deg == beam
        assert pats.beamwidth_3db_deg[i] == one.beamwidth_3db_deg == width
        assert np.array_equal(pats.magnitude_db[i], one.magnitude_db)
        assert np.array_equal(one.magnitude_db, db)


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

    def test_more_frequencies_than_one_block(self, cells):
        freqs = np.linspace(8.8e9, 9.9e9, 23)
        pats = pattern_for_frequency(cells[4], freqs, 8, leakage_np_per_cell=0.05)
        gammas = [complex(0.05 / P, bloch_gamma(cells[4], f)[0]) for f in freqs.tolist()]
        assert_rows_match_one_at_a_time(pats, gammas, cells[4].period, 8)


class TestMirroredSteering:
    """array_factor takes one exp per steering entry, on its one grid of
    721 angles, and must match the oracle bit for bit, the exp of each
    angle row its own: mirrored rows share no exp."""

    FREQS = np.array([8.2e9, 9.0e9, F0, 9.9e9, 10.7e9, 12.5e9])
    GAMMAS = np.array([0.3j, 15.6 - 110.0j, 0j, 15.6 + 40.0j, 2.0 + 160.0j, 15.6 - 260.0j])

    @pytest.mark.parametrize("n_cells", [1, 8])
    def test_matches_the_oracle(self, n_cells):
        pats = array_factor(self.GAMMAS, P, n_cells, self.FREQS)
        assert_rows_match_one_at_a_time(pats, self.GAMMAS.tolist(), P, n_cells)

    def test_phase_that_rounds_to_zero_matches_the_oracle(self):
        # at 1e-312 Hz, k0 p is ~7e-323 and k0 p sin theta rounds to zero
        # near broadside, where the signed zero of each phase must be kept
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
            (-1e5 + 0j, "finite, got inf at gamma \\(-100000"),
        ],
        ids=["nan", "inf", "growing"],
    )
    def test_non_finite_excitation_rejected(self, gamma, match):
        # a wave growing at 1e5 Np/m over 8 cells of 3.2 mm: exp(-n gamma p)
        # overflows, and every |AF| would be NaN
        for call in (array_factor, _beams):
            with pytest.raises(ValueError, match=match):
                call(np.array([0.3j, gamma]), P, 8, np.array([F0, F0]))

    def test_non_finite_grid_or_phase_rejected(self):
        # the grid is fixed and finite; a k0 p that overflows is the case left
        for call in (array_factor, _beams):
            with pytest.raises(ValueError, match="k0 p must be finite"):
                call(0.0j, P, 8, 1e308)

    def test_overflowing_steering_phase_rejected(self):
        # k0 p is 3.3e307 at a 1.7e305 m period; over 7 cells of phase it
        # overflows, and every |AF| would be NaN
        p = 1.7e305
        assert math.isfinite(2.0 * math.pi * F0 / C0 * p)
        for call in (array_factor, _beams):
            with pytest.raises(ValueError, match=r"\(n_cells - 1\) k0 p must be finite, got inf"):
                call(0.3j, p, 8, F0)
        assert _beams(0.3j, p, 1, F0) == (-90.0, 180.0)


def exact_rows(gamma, p, n_cells, f):
    """The rows per frequency that _beams evaluates exactly."""
    return np.diff(screened(gamma, p, n_cells, f)[2])


def screened(gamma, p, n_cells, f):
    """(fi, ri, bounds): the (frequency, row) pairs _beams evaluates exactly."""
    _, gammas, phase_step = _inputs(gamma, p, n_cells, f)
    total = _excitation(gammas, p, n_cells)[1]
    return _screen(gammas, p, n_cells, phase_step, _default_grid()[1], total)


def assert_screen_matches_the_oracle(gamma, p, n_cells, f):
    """The screen picks the pairs of the oracle's dense screen, in order."""
    _, gammas, phase_step = _inputs(gamma, p, n_cells, f)
    total = _excitation(gammas, p, n_cells)[1]
    dense = radiation_oracle.screen_mask(
        gammas, p, n_cells, phase_step, _default_grid()[1], total
    )
    fi, ri, bounds = screened(gamma, p, n_cells, f)
    assert np.array_equal(fi, np.nonzero(dense)[0]) and np.array_equal(ri, np.nonzero(dense)[1])
    assert np.array_equal(bounds, np.searchsorted(fi, np.arange(len(f) + 1)))


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


STEERED = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_freqs=st.integers(min_value=1, max_value=69),
    n_cells=st.integers(min_value=1, max_value=40),
    p=st.floats(min_value=5e-3, max_value=20e-3),
    beta=st.sampled_from(["k0", "rad_per_m", "zero"]),
    lossy=st.booleans(),
)
WIDE = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_freqs=st.integers(min_value=1, max_value=20),
    n_cells=st.integers(min_value=1, max_value=79),
    log_p=st.floats(min_value=math.log(0.3e-3), max_value=math.log(50e-3)),
)


class TestBeams:
    """_beams and beams_for_frequency give array_factor's beam and width
    bit for bit, from exact values on the rows the screen picks."""

    @settings(max_examples=150, deadline=None)
    @given(**STEERED)
    def test_equals_array_factor(self, seed, n_freqs, n_cells, p, beta, lossy):
        # 6-20 GHz on 5-20 mm periods puts grating lobes on the grid
        f, gamma = steered_beam_inputs(seed, n_freqs, p, beta, lossy)
        pats = array_factor(gamma, p, n_cells, f)
        beams, widths = _beams(gamma, p, n_cells, f)
        assert (beams == pats.main_beam_deg).all()
        assert (widths == pats.beamwidth_3db_deg).all()

    @settings(max_examples=100, deadline=None)
    @given(**WIDE)
    def test_equals_array_factor_across_bands_and_periods(self, seed, n_freqs, n_cells, log_p):
        # 0.1-50 GHz on 0.3-50 mm periods, from an aperture of a fraction of
        # a wavelength to one with many grating lobes, and growing waves
        f, gamma = wide_beam_inputs(seed, n_freqs)
        pats = array_factor(gamma, math.exp(log_p), n_cells, f)
        beams, widths = _beams(gamma, math.exp(log_p), n_cells, f)
        assert (beams == pats.main_beam_deg).all()
        assert (widths == pats.beamwidth_3db_deg).all()

    # the screen's equivalence properties take the hypothesis profile's
    # example count: 100 by default, 500 under --hypothesis-profile=ci
    @settings(deadline=None)
    @given(**STEERED)
    def test_screen_equals_the_dense_screen(self, seed, n_freqs, n_cells, p, beta, lossy):
        f, gamma = steered_beam_inputs(seed, n_freqs, p, beta, lossy)
        assert_screen_matches_the_oracle(gamma, p, n_cells, f)

    @settings(deadline=None)
    @given(**WIDE)
    def test_screen_equals_the_dense_screen_across_bands_and_periods(
        self, seed, n_freqs, n_cells, log_p
    ):
        f, gamma = wide_beam_inputs(seed, n_freqs)
        assert_screen_matches_the_oracle(gamma, math.exp(log_p), n_cells, f)

    @pytest.mark.parametrize(
        "p, n_cells, lobes",
        [(50e-3, 8, "several"), (50e-3, 24, "several"), (0.2, 8, "past the cap")],
    )
    def test_equals_array_factor_with_grating_lobes(self, p, n_cells, lobes):
        # at 20 GHz a 50 mm period puts six or seven lobe centres on the
        # grid, each screened from its bounds; a 200 mm period puts 26 or
        # 27, past _MAX_LOBES, and every row is estimated
        f = np.linspace(19.5e9, 20.5e9, 9)
        k0 = 2.0 * math.pi * f / C0
        gamma = np.array([0.0, 0.0, 2.0, 5.0, 0.0, 10.0, 1.0, 0.0, 3.0]) + 1j * k0 * np.linspace(
            -0.9, 0.9, 9
        )
        with mock.patch.object(radiation, "_estimate", wraps=radiation._estimate) as estimate:
            beams, widths = _beams(gamma, p, n_cells, f)
        estimated = sum(call.args[0].size for call in estimate.call_args_list)
        assert (estimated >= 721 * len(f)) == (lobes == "past the cap")
        pats = array_factor(gamma, p, n_cells, f)
        assert (beams == pats.main_beam_deg).all()
        assert (widths == pats.beamwidth_3db_deg).all()
        assert_screen_matches_the_oracle(gamma, p, n_cells, f)

    def test_crossings_beyond_the_grid_fall_back_to_its_edges(self):
        # four cells are too short an aperture to fall 3 dB inside the grid
        assert _beams(0j, P, 4, F0) == (0.0, 180.0)
        assert array_factor(0j, P, 4, F0).beamwidth_3db_deg == 180.0

    def test_steers_only_the_screened_pairs(self):
        # 8 cells keep a handful of rows a frequency, steered in one call;
        # one cell keeps every row, 721 x 11 pairs, steered a block at a time
        f = np.linspace(8.8e9, 9.9e9, 11)
        gamma = 5.0 + 1j * np.linspace(-0.5, 0.5, 11) * (2.0 * math.pi * f / C0)
        sin_theta = _default_grid()[1]
        for n_cells, calls in ((8, 1), (1, 3)):
            fi, ri, _ = screened(gamma, P, n_cells, f)
            assert (len(fi) < 12 * len(f)) == (n_cells == 8)
            phase_step = _inputs(gamma, P, n_cells, f)[2]
            with mock.patch.object(radiation, "_steer", wraps=radiation._steer) as steer:
                _beams(gamma, P, n_cells, f)
            assert steer.call_count == calls
            steered = []
            for call in steer.call_args_list:
                # within one block buffer's rows, each pair steered once per cell
                assert call.args[2].shape[0] <= radiation._BLOCK * len(sin_theta)
                assert call.args[2].shape[1] == n_cells
                fis = [np.flatnonzero(phase_step == x)[0] for x in call.args[0]]
                ris = [np.flatnonzero(sin_theta == x)[0] for x in call.args[1]]
                steered += zip(fis, ris)
            assert steered == list(zip(fi, ri))

    def test_many_frequencies_take_the_memory_of_one_slice(self, cells):
        # 20,000 frequencies in one call: screened whole, the frequency x
        # angle arrays would take over 300 MB
        f = np.linspace(7.5e9, 12.0e9, 20_000)
        tracemalloc.start()
        try:
            beams, widths = beams_for_frequency(cells[4], f, 8, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        slices = [
            beams_for_frequency(cells[4], f[lo : lo + 64], 8, 0.05) for lo in range(0, 20_000, 64)
        ]
        assert np.array_equal(beams, np.concatenate([b for b, _ in slices]))
        assert np.array_equal(widths, np.concatenate([w for _, w in slices]))

    def test_many_cells_take_the_memory_of_one_slice(self, cells):
        # 5,000 frequencies at 1,000 cells: an excitation built whole would
        # take 80 MB, and its |exp(-n gamma p)| as much again
        f = np.linspace(7.5e9, 12.0e9, 5_000)
        tracemalloc.start()
        try:
            beams_for_frequency(cells[4], f, 1_000, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60e6

    def test_every_row_exact_takes_the_memory_of_one_block(self):
        # a 2 m period at 300 cells puts N k0 p past the screen's limit, so
        # every row is exact; steered all at once, the slice's 64 x 721 x
        # 300 entries would take 220 MB, twice over
        f = np.linspace(8.0e9, 12.0e9, 64)
        gamma = 0.05 + 1j * np.linspace(-0.5, 0.5, 64) * (2.0 * math.pi * f / C0)
        assert (exact_rows(gamma, 2.0, 300, f) == 721).all()
        tracemalloc.start()
        try:
            beams, widths = _beams(gamma, 2.0, 300, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60e6
        pats = array_factor(gamma, 2.0, 300, f)
        assert (beams == pats.main_beam_deg).all()
        assert (widths == pats.beamwidth_3db_deg).all()

    def test_tan_form_of_sin_squared(self):
        # the screen takes it of psi/2 in [-pi/2, pi/2] and of N psi/2, N < 80
        x = np.concatenate(
            [
                [0.0, -0.0, math.pi / 2, -math.pi / 2, 1e-300, -1e-300],
                np.linspace(-math.pi / 2, math.pi / 2, 100_001),
                np.linspace(-40.0 * math.pi, 40.0 * math.pi, 100_001),
            ]
        )
        assert np.abs(_sin_squared(x.copy()) - np.sin(x) ** 2).max() <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2, 3, 4]),
        scales=CELL_SCALES,
        r_series=R_SERIES,
        freqs=st.lists(st.floats(min_value=6e9, max_value=13e9), min_size=1, max_size=11),
        n_cells=st.integers(min_value=1, max_value=40),
        leakage=st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.3)),
    )
    def test_cell_beams_equal_the_patterns(self, cells, n, scales, r_series, freqs, n_cells, leakage):
        cell = perturbed(cells[n], scales, r_series)
        pats = pattern_for_frequency(cell, np.array(freqs), n_cells, leakage_np_per_cell=leakage)
        beams, widths = beams_for_frequency(cell, np.array(freqs), n_cells, leakage)
        assert (beams == pats.main_beam_deg).all()
        assert (widths == pats.beamwidth_3db_deg).all()
        one = pattern_for_frequency(cell, freqs[0], n_cells, leakage_np_per_cell=leakage)
        beam, width = beams_for_frequency(cell, freqs[0], n_cells, leakage)
        assert isinstance(beam, float) and isinstance(width, float)
        assert (beam, width) == (one.main_beam_deg, one.beamwidth_3db_deg)

    @settings(max_examples=50, deadline=None)
    @given(
        states=st.lists(
            st.tuples(st.sampled_from([2, 3, 4]), CELL_SCALES, R_SERIES, st.integers(0, 600)),
            min_size=1,
            max_size=3,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_cells=st.integers(min_value=1, max_value=40),
        leakage=st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.3)),
    )
    # at 1,000 cells the slice shrinks to 64 frequencies
    @example(
        states=[(2, (1.0,) * 4, 0.0, 150), (4, (1.1, 0.9, 1.0, 1.2), 1.0, 37)],
        seed=1,
        n_cells=1_000,
        leakage=None,
    )
    def test_one_call_equals_the_per_state_calls(self, cells, states, seed, n_cells, leakage):
        # the states of one config share its period; each state's 0-600
        # frequencies, joined in state order, cross the slice length
        rng = np.random.default_rng(seed)
        joined = [
            (perturbed(cells[n], scales, r_series), np.sort(rng.uniform(6e9, 13e9, count)))
            for n, scales, r_series, count in states
        ]
        gamma = np.concatenate([_gamma_for(cell, f, leakage) for cell, f in joined])
        f = np.concatenate([f for _, f in joined])
        beams, widths = _beams(gamma, cells[2].period, n_cells, f)
        each = [beams_for_frequency(cell, f, n_cells, leakage) for cell, f in joined]
        assert np.array_equal(beams, np.concatenate([b for b, _ in each]))
        assert np.array_equal(widths, np.concatenate([w for _, w in each]))

    def test_screen_keeps_a_handful_of_rows_in_the_leaky_band(self, config, cells):
        n_cells = config.cell_geometry.n_cells
        for cell in cells.values():
            sweep = dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)
            f = sweep.f[sweep.leaky]
            gamma = sweep.alpha[sweep.leaky] + 1j * sweep.beta[sweep.leaky]
            rows = exact_rows(gamma, cell.period, n_cells, f)
            assert np.median(rows) <= 12 and rows.max() < 60
            beams, widths = beams_for_frequency(cell, f, n_cells)
            pats = pattern_for_frequency(cell, f, n_cells)
            assert (beams == pats.main_beam_deg).all()
            assert (widths == pats.beamwidth_3db_deg).all()

    def test_flat_cut_evaluates_every_row(self):
        # one cell has |AF| = 1 on every row: each row is a peak candidate
        gamma, f = np.array([0.3j, 2.0 + 40.0j]), np.array([F0, 11e9])
        assert exact_rows(gamma, P, 1, f).tolist() == [721, 721]
        assert_rows_match_one_at_a_time(array_factor(gamma, P, 1, f), gamma.tolist(), P, 1)

    def test_vanishing_denominator_takes_the_limit(self):
        # lossless broadside: the closed form is 0/0 on the broadside row,
        # where |AF| is the sum of the excitations, and nearly so beside it
        for gamma in (0j, complex(1e-80, 1e-80)):
            assert exact_rows(np.array([gamma]), P, 8, np.array([F0]))[0] < 12
            beam, width = _beams(gamma, P, 8, F0)
            pat = array_factor(gamma, P, 8, F0)
            assert (beam, width) == (pat.main_beam_deg, pat.beamwidth_3db_deg)
            assert beam == 0.0

    def test_overflowing_estimate_evaluates_every_row(self):
        # a growing wave, r^8 = e^768: the estimate overflows, the sum does not
        gamma, f = np.array([-3e4 + 0j, 0.3j]), np.array([F0, F0])
        assert exact_rows(gamma, P, 8, f)[0] == 721
        assert_rows_match_one_at_a_time(array_factor(gamma, P, 8, f), gamma.tolist(), P, 8)

    def test_phases_past_the_limit_evaluate_every_row(self):
        # 40 cells at 100 THz: N k0 p is 2.7e5, and rounding in the phases
        # could reach the margin
        gamma, f = np.array([0.3j, 0.3j]), np.array([1e14, F0])
        assert exact_rows(gamma, P, 40, f).tolist()[0] == 721
        assert_rows_match_one_at_a_time(array_factor(gamma, P, 40, f), gamma.tolist(), P, 40)


def bound_inputs(n_cells, alpha_p):
    """(r, S, Q, exact |AF| as a function of psi) of a cut: r = exp(-alpha p),
    S the sum of r^n over n < N and Q the sum of r^(2n+1) over n < N - 1."""
    r = math.exp(-alpha_p)
    total = math.fsum(r**n for n in range(n_cells))
    q = math.fsum(r ** (2 * n + 1) for n in range(n_cells - 1))
    return r, total, q, lambda psi: radiation_oracle.magnitude(alpha_p, 1.0, n_cells, psi)


class TestScreenBounds:
    """The closed-form bounds the screen decides rows by, held to the
    oracle's exact |AF| on random cuts, growing waves included. They take
    the hypothesis profile's example count, like the screen's equivalence
    properties."""

    CUTS = dict(
        n_cells=st.integers(min_value=2, max_value=79),
        alpha_p=st.floats(min_value=-0.02, max_value=3.0),
    )

    @settings(deadline=None)
    @given(**CUTS, u=st.floats(min_value=-1.0, max_value=1.0))
    def test_the_three_inequalities(self, n_cells, alpha_p, u):
        r, total, q, exact = bound_inputs(n_cells, alpha_p)
        psi = u * math.pi
        af = exact([psi])[0]
        tol = 1e-12 * total
        sin2 = math.sin(psi / 2.0) ** 2
        # peak radius: |AF|^2 <= S^2 - 4 Q sin^2(psi/2)
        assert af**2 <= total**2 - 4.0 * q * sin2 + tol * total
        # surely below: |AF| <= (1 + r^N)/sqrt((1 - r)^2 + 4 r sin^2(psi/2))
        assert af * math.sqrt((1.0 - r) ** 2 + 4.0 * r * sin2) <= 1.0 + r**n_cells + tol
        # surely above, on |psi| <= pi/(N - 1): |AF| >= S cos((N - 1) psi/2)
        psi /= n_cells - 1
        assert exact([psi])[0] >= total * math.cos((n_cells - 1) * psi / 2.0) - tol

    @settings(deadline=None)
    @given(**CUTS)
    def test_af_does_not_rise_up_to_pi_over_n_minus_1(self, n_cells, alpha_p):
        _, total, _, exact = bound_inputs(n_cells, alpha_p)
        af = exact(np.linspace(0.0, math.pi / (n_cells - 1), 400))
        assert (np.diff(af) <= 1e-12 * total).all()

    @settings(deadline=None)
    @given(
        **CUTS,
        low=st.floats(min_value=0.3, max_value=1.0),
        u=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_radii_clear_the_margin_on_the_exact_sum(self, n_cells, alpha_p, low, u):
        # every row the radii decide lies a margin past its threshold on the
        # exact |AF|, leaving room for the estimate's own error
        exact = bound_inputs(n_cells, alpha_p)[3]
        alpha_p = np.array([alpha_p])
        total = _excitation(alpha_p + 0j, 1.0, n_cells)[1]
        low_top = low * total
        coefficients = radiation._series_coefficients(alpha_p, n_cells)
        sampled = radiation._estimate(
            radiation._samples(n_cells)[None], coefficients[:, :, None], n_cells, total[:, None]
        )
        peak, above, below = radiation._radii(
            alpha_p, n_cells, total, coefficients, low_top, sampled
        )
        assert 0.0 <= above[0] <= below[0] <= math.pi and 0.0 <= peak[0] <= math.pi
        m = radiation._SCREEN_MARGIN * total[0]
        half_power = radiation._HALF_POWER
        if peak[0] < math.pi:
            d = peak[0] + u * (math.pi - peak[0])
            assert exact([d])[0] < low_top[0] - 3.0 * m
        if above[0] > 0.0:
            d = u * above[0]
            assert exact([d])[0] > (total[0] + 2.0 * m) * half_power * (1.0 + 1e-9) + 2.0 * m
        if below[0] < math.pi:
            d = below[0] + u * (math.pi - below[0])
            assert exact([d])[0] < (low_top[0] - m) * half_power * (1.0 - 1e-9) - 2.0 * m


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
