import cmath
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import bloch_oracle
from perturb import CELL_SCALES, R_SERIES, perturbed
from crlhkit import bloch, selfcheck
from crlhkit.bloch import (
    MAX_N_POINTS,
    REGIONS,
    Region,
    _cell_values,
    _chain,
    _scan_deg,
    bloch_gamma,
    classify,
    dispersion_sweep,
    scan_profile,
    solve,
    transition_frequency,
)
from crlhkit.cell import calibrate_balanced, resonances
from crlhkit.cli import fmt
from crlhkit.errors import BracketError, PoleError
from crlhkit.geometry import C0
from crlhkit.idc import extract


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


def one_cell_chain(cell, f):
    """The kernel's chain entries and overflow mask of one cell at f."""
    return [entry[0] for entry in _chain(_cell_values([cell]), f[None, :])]


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
            a, b, c, overflow = one_cell_chain(cell, f)
            assert not overflow.any()
            for i, fi in enumerate(f.tolist()):
                m = branch_cascade(cell, fi)
                assert m[0, 0] == pytest.approx(m[1, 1], rel=1e-12, abs=1e-12)
                assert [a[i], b[i], c[i]] == pytest.approx([m[0, 0], m[0, 1], m[1, 0]], rel=1e-12)

    def test_reciprocity(self, cells):
        f = np.linspace(7.6e9, 11.9e9, 7)
        for cell in cells.values():
            a, b, c, _ = one_cell_chain(cell, f)
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
        # a balanced cell crosses at its shunt resonance, here exactly the target
        for n, f0 in ((2, 10.7e9), (3, 9.5e9), (4, 9.3e9)):
            assert transition_frequency(cells[n]) == f0

    def test_one_sided_bracket_fails(self, cells):
        with pytest.raises(BracketError, match=r"f_sh = 9\.3e\+09 Hz lies outside"):
            transition_frequency(cells[4], bracket=(9.4e9, 12.0e9))

    def test_invalid_bracket_rejected(self, cells):
        with pytest.raises(ValueError):
            transition_frequency(cells[4], bracket=(9e9, 8e9))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("bracket", [(7.5e9, 12.0e9), (7.5e9, 20.0e9)])
    def test_root_inside_a_stop_band_is_a_bracket_error(self, cells, n, bracket):
        # the shunt branch detuned 20 percent opens a gap between f_sh and
        # f_se where beta is pinned at 0, so there is no single transition
        cell = replace(cells[n], c_r=1.2 * cells[n].c_r)
        edges = "stop band between f_se = [0-9.e+]+ Hz and f_sh = [0-9.e+]+ Hz"
        with pytest.raises(BracketError, match=edges):
            transition_frequency(cell, bracket=bracket)
        # conductor loss does not hide the gap
        with pytest.raises(BracketError, match=edges):
            transition_frequency(replace(cell, r_series=1.0), bracket=bracket)

    def test_series_resonance_below_the_shunt_one_is_a_gap_too(self, cells):
        cell = replace(cells[4], l_r=1.2 * cells[4].l_r)
        pair = resonances(cell)
        f_se, f_sh = (w / (2.0 * math.pi) for w in (pair.omega_se, pair.omega_sh))
        assert f_se < f_sh
        edges = f"f_se = {f_se:.9g} Hz and f_sh = {f_sh:.9g} Hz"
        with pytest.raises(BracketError, match=re.escape(edges)):
            transition_frequency(cell)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lossy_balanced_cell_keeps_its_transition(self, config, cells, n):
        # loss gives alpha of about |beta| near the root (1-3e-2 Np/m here,
        # 1 ohm/sq), far above the stop-band floor, yet there is no gap
        g = replace(config.cell_geometry.idc, n_fingers=n)
        r = extract(g, config.substrate, sheet_resistivity=1.0).r_series
        lossy = replace(cells[n], r_series=r)
        root = transition_frequency(lossy)
        assert root == resonances(lossy).omega_sh / (2.0 * math.pi)
        assert root == pytest.approx(config.targets[n], rel=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(
        c_l=st.floats(min_value=5e-15, max_value=1e-13),
        f0=st.floats(min_value=5e9, max_value=15e9),
        z_c=st.floats(min_value=20.0, max_value=100.0),
        period=st.floats(min_value=1e-3, max_value=1e-2),
    )
    def test_matches_scipy_root_of_beta(self, c_l, f0, z_c, period):
        # scipy's Brent solver on the kernel's beta, an independent oracle
        cell = calibrate_balanced(c_l, f0, z_c=z_c, period=period)
        f_lo, f_hi = 0.9 * f0, 1.1 * f0
        beta_of = beta_function(cell)
        assert beta_of(f_lo) < 0.0 < beta_of(f_hi)
        root = brentq(beta_of, f_lo, f_hi, xtol=1.0)
        assert abs(transition_frequency(cell, bracket=(f_lo, f_hi)) - root) <= 1e3


def stacked_cells(cells, states):
    return [perturbed(cells[n], scales, r_series) for n, scales, r_series in states]


def one_row_sweeps(cells, f_start, f_stop, n_points):
    """dispersion_sweep of each cell, or the PoleError it raises."""
    out = []
    for cell in cells:
        try:
            out.append(dispersion_sweep(cell, f_start, f_stop, n_points))
        except PoleError as exc:
            out.append(exc)
    return out


def one_row_gammas(cell, f):
    """bloch_gamma of a cell at f, or the error it raises."""
    try:
        return bloch_gamma(cell, f)
    except (PoleError, ValueError) as exc:
        return exc


def own_slots(width):
    """The slot of each of a row's own columns: midpoint, f_sh, then trace."""
    return [(bloch._MIDPOINT, bloch._AT_F0, bloch._TRACE)[min(j, 2)] for j in range(width)]


def stacked(cells, grid, extra, states, budget):
    """_columns over the cells under a _SWEEP_BLOCK budget."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bloch, "_SWEEP_BLOCK", budget)
        return bloch._columns(cells, np.linspace(*grid), np.array(extra), states)


STACKED_STATES = st.lists(
    st.tuples(st.sampled_from([2, 3, 4]), CELL_SCALES, R_SERIES), min_size=1, max_size=6
)
# grid lengths off the 8-lane SIMD width, and block budgets that split the
# grid into one column a block, into several columns, or keep the default
SPLIT_GRID = st.integers(min_value=2, max_value=400).filter(lambda n: n % 8)
PASS_BUDGETS = st.sampled_from([5, 64, 450, bloch._SWEEP_BLOCK])


class TestStackedKernel:
    """Cells stacked into one cells x columns kernel get the bits of their
    one-row calls."""

    @settings(max_examples=60, deadline=None)
    @given(
        states=STACKED_STATES,
        n_points=SPLIT_GRID,
        budget=PASS_BUDGETS,
        data=st.data(),
    )
    def test_stacked_sweeps_equal_the_one_row_calls(self, cells, states, n_points, budget, data):
        # the first rows are states, the rest keep their regions only, as
        # the detuned controls of `reproduce` do; every row has its own
        # columns after the grid
        stack = stacked_cells(cells, states)
        n_states = data.draw(st.integers(min_value=1, max_value=len(stack)))
        width = data.draw(st.integers(min_value=0, max_value=24))
        in_band = st.floats(min_value=6.0e9, max_value=13.0e9)
        extra = [data.draw(st.lists(in_band, min_size=width, max_size=width)) for _ in stack]
        grid = (6.0e9, 13.0e9, n_points)
        sweeps, beta_all, alpha_all, region, errors = stacked(stack, grid, extra, n_states, budget)
        assert errors == {}
        for i, (cell, one) in enumerate(zip(stack, one_row_sweeps(stack, *grid))):
            assert region[i].tobytes() == one.region.tobytes()
            if i >= n_states:
                continue
            for name, column in vars(one).items():
                assert getattr(sweeps[i], name).tobytes() == column.tobytes(), name
            beta, alpha = bloch_gamma(cell, np.concatenate([one.f, extra[i]]))
            assert beta_all[i].tobytes() == beta.tobytes()
            assert alpha_all[i].tobytes() == alpha.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        states=STACKED_STATES,
        n_points=SPLIT_GRID,
        budget=PASS_BUDGETS,
        # the paper-default cells' chain matrices overflow from about
        # 1.3e111 Hz (2 fingers) to 2.9e111 Hz (4 fingers), so some rows of
        # a stack fail and others do not
        f_stop=st.floats(min_value=1e111, max_value=5e111),
        data=st.data(),
    )
    def test_a_row_that_overflows_names_its_own_frequency(
        self, cells, states, n_points, budget, f_stop, data
    ):
        stack = stacked_cells(cells, states)
        width = data.draw(st.integers(min_value=0, max_value=6))
        around = st.floats(min_value=1e110, max_value=5e111)
        extra = [data.draw(st.lists(around, min_size=width, max_size=width)) for _ in stack]
        grid = (1e9, f_stop, n_points)
        sweeps, _, _, _, errors = stacked(stack, grid, extra, len(stack), budget)
        for i, (cell, one) in enumerate(zip(stack, one_row_sweeps(stack, *grid))):
            # the scalar oracle's first grid point whose chain entries overflow
            first = next(
                (
                    f
                    for f in np.linspace(*grid).tolist()
                    if not all(map(cmath.isfinite, bloch_oracle.chain_entries(cell, f)))
                ),
                None,
            )
            many = sweeps[i]
            if first is None:
                assert many.beta.tobytes() == one.beta.tobytes()
            else:
                assert isinstance(one, PoleError) and isinstance(many, PoleError)
                assert many.frequency == one.frequency == first
                assert str(many) == str(one)
            # each slot of the row's own columns holds the error of its
            # first column that fails, as a one-row call on them raises it
            slots = own_slots(width)
            for slot in set(slots):
                f = np.array([x for x, s in zip(extra[i], slots) if s == slot])
                expected = one_row_gammas(cell, f)
                got = errors.get((i, slot))
                if isinstance(expected, Exception):
                    assert type(got) is type(expected) and str(got) == str(expected)
                else:
                    assert got is None

    def test_one_pass_equals_the_one_row_calls_at_mixed_frequencies(self, cells):
        # each row's own columns after a shared grid, one of them a
        # frequency that is not valid, another one that overflows
        grid = np.linspace(7.5e9, 12e9, 13)
        extra = [[9.3e9, 9.5e9, 8e9], [8e9, -1.0, math.inf], [8e9, 9e9, 2e111]]
        rows = [cells[2], cells[3], cells[4]]
        sweeps, beta, alpha, _, errors = bloch._columns(rows, grid, np.array(extra), 3)
        assert {key: str(exc) for key, exc in errors.items()} == {
            (1, bloch._AT_F0): "frequency must be positive and finite, got -1.0",
            (1, bloch._TRACE): "frequency must be positive and finite, got inf",
        }
        for cell, sweep in zip(rows, sweeps):
            one = bloch_gamma(cell, grid)
            assert [sweep.beta.tobytes(), sweep.alpha.tobytes()] == [x.tobytes() for x in one]
        assert (beta[0, 13], alpha[0, 13]) == bloch_gamma(cells[2], 9.3e9)
        assert (beta[2, 14], alpha[2, 14]) == bloch_gamma(cells[4], 9e9)
        # 2e111 Hz overflows the 2-finger cell alone
        errors = bloch._columns([cells[2]], grid, np.array([[8e9, 9e9, 2e111]]), 1)[-1]
        assert list(errors) == [(0, bloch._TRACE)]
        assert errors[0, bloch._TRACE].frequency == 2e111

    def test_a_dense_solve_holds_one_block_in_flight(self, config):
        # the three 15,001-point states take their columns in blocks of
        # _SWEEP_BLOCK samples, so the solve peaks at its results plus what
        # one block of that many samples allocates
        dense = replace(config, n_points=15001)
        cell = dense.cell(4)
        tracemalloc.start()
        try:
            dispersion_sweep(cell, dense.f_start, dense.f_stop, bloch._SWEEP_BLOCK)
            block = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            states = solve(dense)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the states share their grid and k0 columns, and their other columns
        # are rows of arrays that hold every state's
        columns = [column for s in states for column in vars(s.sweep).values()]
        arrays = {id(a): a for a in (c if c.base is None else c.base for c in columns)}
        results = sum(a.nbytes for a in arrays.values())
        assert peak <= results + block + 64 * 1024, (peak, results, block)

    def test_a_dense_reproduce_peaks_under_4_36_mb(self, config):
        # run_all on a 15,001-point grid: three states, their detuned
        # controls and trace frequencies in one solve, then every check
        dense = replace(config, n_points=15001)
        selfcheck.run_all(dense)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            results = selfcheck.run_all(dense)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in results)
        assert peak <= 4.36e6, peak


class TestSolve:
    @pytest.mark.parametrize("f_start", [7.5e9, 9.4e9], ids=["paper-default", "9.4-ghz-start"])
    def test_each_slot_equals_its_one_state_call(self, config, f_start):
        config = replace(config, f_start=f_start)
        for state in solve(config):
            cell = config.cell(state.fingers)
            assert state.cell == cell
            sweep = dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)
            for name, column in vars(sweep).items():
                assert getattr(state.sweep, name).tobytes() == column.tobytes(), name
            try:
                f0 = transition_frequency(cell, (config.f_start, config.f_stop))
            except BracketError as exc:
                assert type(state.f0) is BracketError and str(state.f0) == str(exc)
                assert state.gamma0 is state.f0
            else:
                assert state.f0 == f0
                assert state.gamma0 == bloch_gamma(cell, f0)


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
