import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radiation_oracle
from crlhkit import radiation
from crlhkit.bloch import bloch_gamma, dispersion_sweep
from crlhkit.radiation import (
    _default_grid,
    _mirror_rows,
    array_factor,
    default_theta_grid,
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
        grid = default_theta_grid()
        assert grid[0] == -90.0 and grid[-1] == 90.0
        assert len(grid) == 721
        assert np.all(np.diff(grid) > 0.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            array_factor(0.0j, P, 0, F0)
        with pytest.raises(ValueError):
            array_factor(0.0j, P, 8, -1.0)
        with pytest.raises(ValueError):
            array_factor(0.0j, 0.0, 8, F0)
        with pytest.raises(ValueError):
            array_factor(0.0j, P, 8, F0, theta_grid=np.array([1.0, 0.0]))
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
    scalar oracle, bit for bit."""
    assert pats.magnitude_db.shape == (len(pats.f), len(pats.theta_deg))
    for i, (gamma, f) in enumerate(zip(gammas, pats.f.tolist())):
        one = array_factor(gamma, p, n_cells, f, pats.theta_deg)
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
        grid=st.one_of(
            st.none(),
            st.lists(
                st.floats(min_value=-90.0, max_value=90.0), min_size=2, max_size=200, unique=True
            ).map(sorted),
        ),
    )
    def test_array_call_matches_one_frequency_at_a_time(
        self, cells, n, scales, r_series, freqs, n_cells, leakage, grid
    ):
        cell = perturbed(cells[n], scales, r_series)
        theta = None if grid is None else np.array(grid)
        pats = pattern_for_frequency(cell, np.array(freqs), n_cells, theta, leakage)
        gammas = []
        for f in freqs:
            beta, alpha = bloch_gamma(cell, f)
            if leakage is not None:
                alpha = leakage / cell.period
            gammas.append(complex(alpha, beta))
            one = pattern_for_frequency(cell, f, n_cells, theta, leakage)
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
        # a grid that stops short of the beam puts the peak on its edge
        grid = np.linspace(10.0, 60.0, 41)
        pats = array_factor(gammas, P, 8, np.full(4, F0), grid)
        assert pats.main_beam_deg[1:3].tolist() == [60.0, 10.0]
        assert_rows_match_one_at_a_time(pats, gammas, P, 8)

    def test_more_frequencies_than_one_block(self, cells):
        freqs = np.linspace(8.8e9, 9.9e9, 23)
        pats = pattern_for_frequency(cells[4], freqs, 8, leakage_np_per_cell=0.05)
        gammas = [complex(0.05 / P, bloch_gamma(cells[4], f)[0]) for f in freqs.tolist()]
        assert_rows_match_one_at_a_time(pats, gammas, cells[4].period, 8)


class TestMirroredSteering:
    """array_factor takes one exp per own row and fills mirror rows with
    conjugates; every grid below must still match the oracle bit for bit."""

    FREQS = np.array([8.2e9, 9.0e9, F0, 9.9e9, 10.7e9, 12.5e9])
    GAMMAS = np.array([0.3j, 15.6 - 110.0j, 0j, 15.6 + 40.0j, 2.0 + 160.0j, 15.6 - 260.0j])

    @pytest.mark.parametrize(
        "grid",
        [
            default_theta_grid(),
            np.linspace(-89.5, 89.5, 180),  # symmetric, even length, no broadside row
            np.linspace(-90.0, 90.0, 1801),  # 0.1 degree steps: not bit-symmetric
            np.linspace(10.0, 60.0, 41),  # one-sided: no mirror rows
            np.array([-60.0, -45.0, -30.0, -0.0, 1e-320, 30.0, 60.0, 89.0]),
        ],
        ids=["default", "even", "step-0.1", "one-sided", "signed-zero"],
    )
    @pytest.mark.parametrize("n_cells", [1, 8])
    def test_matches_the_oracle(self, grid, n_cells):
        pats = array_factor(self.GAMMAS, P, n_cells, self.FREQS, grid)
        assert_rows_match_one_at_a_time(pats, self.GAMMAS.tolist(), P, n_cells)

    def test_default_grid_mirrors_every_negative_angle(self):
        sin_theta = np.sin(np.radians(default_theta_grid()))
        own, mirror, source = _mirror_rows(sin_theta, np.array([0.6]))
        rows = np.arange(len(sin_theta))
        assert rows[own].tolist() == list(range(360, 721))
        assert np.array_equal(sin_theta[mirror], -sin_theta[source])
        assert (sin_theta[mirror] < 0.0).all() and len(rows[mirror]) == 360

    @pytest.mark.parametrize("phase_step", [1e-300, 0.03, 0.6, 40.0, 1e300])
    def test_cached_default_split_equals_a_fresh_one(self, phase_step):
        theta, sin_theta, split, least_sin = _default_grid()
        assert np.array_equal(theta, default_theta_grid())
        assert np.array_equal(sin_theta, np.sin(np.radians(default_theta_grid())))
        assert phase_step * least_sin > 0.0
        fresh = _mirror_rows(sin_theta, np.array([phase_step]))
        rows = np.arange(len(theta))
        for cached, row in zip(split, fresh):
            assert np.array_equal(rows[cached], rows[row])

    def test_cached_default_grid_is_read_only(self):
        pat = array_factor(0.3j, P, 8, F0)
        assert pat.theta_deg is _default_grid()[0]
        with pytest.raises(ValueError, match="read-only"):
            pat.theta_deg[0] = 0.0
        assert not _default_grid()[1].flags.writeable

    def test_default_grid_falls_back_when_a_mirror_phase_rounds_to_zero(self):
        # at 1e-312 Hz, k0 p is ~7e-323 and k0 p sin(0.25 deg) rounds to
        # zero, so the rows near broadside must not be mirrored: the cached
        # split does not hold, and the call works out its own
        gamma, f = np.array([0.3j]), np.array([1e-312])
        phase_step = np.array([2.0 * math.pi * f[0] / 299792458.0 * P])
        assert phase_step[0] * _default_grid()[3] == 0.0
        rows = np.arange(len(default_theta_grid()))
        assert len(rows[_mirror_rows(_default_grid()[1], phase_step)[1]]) < 360
        with mock.patch.object(radiation, "_mirror_rows", wraps=radiation._mirror_rows) as split:
            array_factor(0.3j, P, 8, F0)
            assert split.call_count == 0
            pats = array_factor(gamma, P, 8, f)
            assert split.call_count == 1
        assert_rows_match_one_at_a_time(pats, gamma.tolist(), P, 8)

    def test_pair_whose_phase_rounds_to_zero_is_not_mirrored(self):
        # sin theta = +-5e-324: k0 p sin theta is zero at 5 GHz, and a zero
        # phase has no sign to conjugate
        sin_theta = np.sin(np.radians(np.array([-3e-322, 3e-322])))
        for f, mirrored in ((5e9, 0), (F0, 1)):
            phase_step = np.array([2.0 * math.pi * f / 299792458.0 * P])
            assert len(_mirror_rows(sin_theta, phase_step)[1]) == mirrored

    def test_non_finite_grid_or_phase_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            array_factor(0.0j, P, 8, F0, theta_grid=np.array([0.0, np.inf]))
        with pytest.raises(ValueError, match="finite"):
            array_factor(0.0j, P, 8, 1e308)


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
