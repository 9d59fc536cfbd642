import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crlhkit.cell import (
    CrlhUnitCell,
    ResonancePair,
    calibrate_balanced,
    cell_for_state,
    is_balanced,
    resonances,
)
from crlhkit.errors import ConfigError
from crlhkit.geometry import CellGeometry, default_idc, default_substrate
from crlhkit.idc import extract

SUB = default_substrate()
GEOM = CellGeometry(period=3.2e-3, idc=default_idc(), n_cells=8)
TARGETS = {2: 10.7e9, 3: 9.5e9, 4: 9.3e9}

# Frozen calibrations for the three states (z_c = 50 ohm, half combination),
# computed by hand through the closure formulas before implementation.
EXPECTED = {
    2: (1.4447732056175e-14, 1.5313449447222382e-08, 6.125379778888953e-12, 3.61193301404375e-11),
    3: (2.889546411235e-14, 9.713223419459782e-09, 3.8852893677839126e-12, 7.2238660280875e-11),
    4: (4.3343196168525e-14, 6.7569924353971195e-09, 2.702796974158848e-12, 1.083579904213125e-10),
}


def state_cell(n, **kw):
    return cell_for_state(n, SUB, GEOM, TARGETS, **kw)


class TestResonances:
    def test_reference_series_resonance(self):
        cell = CrlhUnitCell(
            l_r=6.76e-9, c_r=2.7e-12, l_l=0.108e-9, c_l=0.04335e-12, period=3.2e-3
        )
        f_se = resonances(cell).omega_se / (2.0 * math.pi)
        assert f_se == pytest.approx(9297201267.895926, rel=1e-12)
        assert f_se == pytest.approx(9.3e9, rel=1e-3)

    def test_balanced_when_products_match(self):
        cell = CrlhUnitCell(l_r=8e-9, c_r=4e-12, l_l=0.1e-9, c_l=0.05e-12, period=3.2e-3)
        # L_R C_L = 4e-22 = L_L C_R
        pair = resonances(cell)
        assert pair.omega_se == pytest.approx(pair.omega_sh, rel=1e-12)

    def test_uniform_element_scaling(self):
        base = CrlhUnitCell(l_r=6e-9, c_r=2e-12, l_l=0.1e-9, c_l=0.05e-12, period=3.2e-3)
        scaled = CrlhUnitCell(
            l_r=4.0 * base.l_r,
            c_r=4.0 * base.c_r,
            l_l=4.0 * base.l_l,
            c_l=4.0 * base.c_l,
            period=base.period,
        )
        a, b = resonances(base), resonances(scaled)
        assert b.omega_se == pytest.approx(a.omega_se / 4.0, rel=1e-12)
        assert b.omega_sh == pytest.approx(a.omega_sh / 4.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            CrlhUnitCell(l_r=0.0, c_r=2e-12, l_l=1e-10, c_l=5e-14, period=3.2e-3)
        with pytest.raises(ValueError):
            CrlhUnitCell(l_r=6e-9, c_r=2e-12, l_l=1e-10, c_l=5e-14, period=3.2e-3, r_series=-1.0)
        with pytest.raises(ValueError):
            ResonancePair(omega_se=0.0, omega_sh=1.0)


class TestIsBalanced:
    def test_calibrated_cell_is_balanced(self):
        assert is_balanced(calibrate_balanced(4.33e-14, 9.3e9))

    def test_doubled_shunt_capacitance_unbalances(self):
        cell = calibrate_balanced(4.33e-14, 9.3e9)
        assert not is_balanced(replace(cell, c_r=2.0 * cell.c_r))


class TestCalibrateBalanced:
    @given(
        st.floats(min_value=1e-15, max_value=1e-12),
        st.floats(min_value=1e9, max_value=2e10),
        st.floats(min_value=10.0, max_value=200.0),
    )
    @settings(max_examples=100)
    def test_round_trip_and_impedance_closure(self, c_l, f0, z_c):
        cell = calibrate_balanced(c_l, f0, z_c=z_c)
        pair = resonances(cell)
        assert pair.omega_se / (2.0 * math.pi) == pytest.approx(f0, rel=1e-9)
        assert pair.omega_sh == pytest.approx(pair.omega_se, rel=1e-12)
        assert math.sqrt(cell.l_r / cell.c_r) == pytest.approx(z_c, rel=1e-12)
        assert math.sqrt(cell.l_l / cell.c_l) == pytest.approx(z_c, rel=1e-12)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            calibrate_balanced(0.0, 9.3e9)
        with pytest.raises(ValueError):
            calibrate_balanced(4.33e-14, -1.0)

    @pytest.mark.parametrize(
        "c_l, f0, z_c, element",
        [
            (4.33e-14, 1e-291, 50.0, "underflows"),  # w0^2 C_L is 0
            (4.33e-14, 9.3e9, 1e-170, "underflows"),  # z_c^2 is 0
            (4.33e-14, 1e-150, 50.0, "l_r"),  # 1 / (w0^2 C_L) overflows
            (4.33e-14, 9.3e9, 1e-160, "c_r"),  # L_R / z_c^2 overflows
            (4.33e-14, 9.3e9, 1e155, "c_r"),  # z_c^2 overflows, C_R is 0
            (1e300, 1e-5, 1e5, "l_l"),  # z_c^2 C_L overflows
        ],
    )
    def test_rejects_elements_out_of_range(self, c_l, f0, z_c, element):
        with pytest.raises(ValueError, match=element):
            calibrate_balanced(c_l, f0, z_c=z_c)


class TestCellForState:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_frozen_calibrations(self, n):
        cell = state_cell(n)
        c_l, l_r, c_r, l_l = EXPECTED[n]
        assert cell.c_l == pytest.approx(c_l, rel=1e-12)
        assert cell.l_r == pytest.approx(l_r, rel=1e-12)
        assert cell.c_r == pytest.approx(c_r, rel=1e-12)
        assert cell.l_l == pytest.approx(l_l, rel=1e-12)
        assert cell.period == GEOM.period
        assert cell.r_series == 0.0
        assert is_balanced(cell)

    def test_half_combination_is_half_the_extraction(self):
        cell = state_cell(4)
        model = extract(replace(GEOM.idc, n_fingers=4), SUB)
        assert cell.c_l == model.c_series / 2.0

    def test_full_combination(self):
        cell = state_cell(4, series_combination="full")
        model = extract(replace(GEOM.idc, n_fingers=4), SUB)
        assert cell.c_l == model.c_series

    def test_unknown_combination_rejected(self):
        with pytest.raises(ConfigError):
            state_cell(4, series_combination="quarter")

    def test_missing_target_is_config_error(self):
        with pytest.raises(ConfigError, match="4-finger"):
            cell_for_state(4, SUB, GEOM, {2: 10.7e9})

    def test_monotone_orderings(self):
        cells = {n: state_cell(n) for n in (2, 3, 4)}
        c_ls = [cells[n].c_l for n in (2, 3, 4)]
        f0s = [resonances(cells[n]).omega_se for n in (2, 3, 4)]
        assert c_ls[0] < c_ls[1] < c_ls[2]
        assert f0s[0] > f0s[1] > f0s[2]
