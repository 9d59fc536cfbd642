import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipk

from crlhkit.geometry import IdcGeometry, default_idc, default_substrate
from crlhkit.idc import (
    c_series_gap,
    effective_permittivity,
    elliptic_ratio,
    elliptic_ratio_quadrature,
    extract,
    l_c_from_line_theory,
    microstrip_impedance,
    modulus_from_geometry,
    r_series,
)

SUB = default_substrate()

# Frozen reference outputs, evaluated independently before implementation.
K_DEFAULT = 0.1715728752538099        # tan^2(pi/8) = 3 - 2 sqrt(2)
C2_F = 2.889546411235e-14
C3_F = 5.77909282247e-14
C4_F = 8.668639233705e-14
L_AT_50 = 2.7960153475694534e-10
C_AT_50 = 5.5920306951389077e-14
Z0_DEFAULT = 127.64489587190435
L_AT_Z0 = 7.137941757934987e-10
C_AT_Z0 = 2.1904638869190212e-14
EEFF_DEFAULT = 2.632725796441381


def finger_lengths(**kw):
    return st.floats(min_value=1e-5, max_value=1e-2, allow_nan=False, **kw)


class TestEllipticRatio:
    def test_default_modulus_value(self):
        # K/K' at tan^2(pi/8) is exactly 1/2 by a Landen step; the closed
        # form reproduces it to well below a ppm
        assert elliptic_ratio(K_DEFAULT) == pytest.approx(0.5, abs=1e-9)

    def test_truncated_modulus(self):
        assert elliptic_ratio(0.17157) == pytest.approx(0.49984, abs=5e-4)

    def test_symmetry_point(self):
        # K(k) = K'(k) at k = 1/sqrt(2)
        assert elliptic_ratio(0.7071) == pytest.approx(1.0, rel=1e-3)

    def test_high_modulus_against_quadrature(self):
        exact = elliptic_ratio_quadrature(0.99)
        assert elliptic_ratio(0.99) == pytest.approx(exact, rel=5e-3)

    def test_branch_continuity(self):
        eps = 1e-6
        below = elliptic_ratio(0.707 - eps)
        above = elliptic_ratio(0.707 + eps)
        assert abs(below - above) < 0.01

    @pytest.mark.parametrize("k", [-0.1, 0.0, 1.0, 1.5])
    def test_domain(self, k):
        with pytest.raises(ValueError):
            elliptic_ratio(k)

    @pytest.mark.parametrize("k", [1e-9, 5e-324])
    def test_modulus_too_small_to_resolve(self, k):
        with pytest.raises(ValueError, match="too small"):
            elliptic_ratio(k)

    def test_largest_modulus_below_one_resolves(self):
        assert math.isfinite(elliptic_ratio(math.nextafter(1.0, 0.0)))

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_strictly_increasing(self, k1, k2):
        # Near k = 0.01 one ulp of k moves the exact ratio by ~8e-18, below
        # one ulp of the ratio, so adjacent moduli may round to the same
        # value: non-decreasing always, strictly increasing once apart.
        lo, hi = sorted((k1, k2))
        assert elliptic_ratio(lo) <= elliptic_ratio(hi)
        if hi - lo > 1e-12:
            assert elliptic_ratio(lo) < elliptic_ratio(hi)

    def test_quadrature_sanity(self):
        assert elliptic_ratio_quadrature(1.0 / math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("k", np.linspace(0.001, 0.999, 41))
    def test_agm_ratio_matches_scipy_ellipk(self, k):
        # scipy's ellipk takes the parameter m = k^2
        expected = ellipk(k * k) / ellipk(1.0 - k * k)
        assert elliptic_ratio_quadrature(float(k)) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("k", [0.0, 1.0, float("nan")])
    def test_agm_ratio_domain(self, k):
        with pytest.raises(ValueError):
            elliptic_ratio_quadrature(k)


class TestModulus:
    def test_reference_dimensions(self):
        assert modulus_from_geometry(default_idc()) == pytest.approx(K_DEFAULT, rel=1e-12)

    def test_scale_invariance_when_width_equals_gap(self):
        g1 = IdcGeometry(n_fingers=4, finger_length=1e-3, finger_width=1e-4, gap=1e-4)
        g2 = IdcGeometry(n_fingers=4, finger_length=1e-3, finger_width=7e-4, gap=7e-4)
        assert modulus_from_geometry(g1) == pytest.approx(modulus_from_geometry(g2), rel=1e-12)

    def test_wide_gap_limit(self):
        g = IdcGeometry(n_fingers=4, finger_length=1e-3, finger_width=1e-4, gap=1.0)
        assert modulus_from_geometry(g) < 1e-6


class TestSeriesCapacitance:
    def test_frozen_values(self):
        for n, expected in ((2, C2_F), (3, C3_F), (4, C4_F)):
            assert c_series_gap(default_idc(n), SUB) == pytest.approx(expected, rel=1e-12)

    def test_single_finger_is_zero(self):
        assert c_series_gap(default_idc(1), SUB) == 0.0

    def test_linear_in_finger_pairs(self):
        # (N - 1) scaling: three fingers give two thirds of four
        assert c_series_gap(default_idc(3), SUB) == pytest.approx(
            c_series_gap(default_idc(4), SUB) * 2.0 / 3.0, rel=1e-12
        )

    def test_monotone_in_gap(self):
        tight = IdcGeometry(n_fingers=4, finger_length=0.86e-3, finger_width=0.4e-3, gap=0.2e-3)
        loose = IdcGeometry(n_fingers=4, finger_length=0.86e-3, finger_width=0.4e-3, gap=0.8e-3)
        base = c_series_gap(default_idc(), SUB)
        assert c_series_gap(tight, SUB) > base > c_series_gap(loose, SUB)

    @given(finger_lengths())
    def test_doubling_length_is_exact(self, l):
        g1 = IdcGeometry(n_fingers=4, finger_length=l, finger_width=4e-4, gap=4e-4)
        g2 = IdcGeometry(n_fingers=4, finger_length=2.0 * l, finger_width=4e-4, gap=4e-4)
        assert c_series_gap(g2, SUB) == 2.0 * c_series_gap(g1, SUB)


class TestSeriesResistance:
    def test_reference_value(self):
        assert r_series(default_idc(4), 1.0) == pytest.approx(0.7166666666666666, rel=1e-12)

    def test_lossless_default(self):
        assert r_series(default_idc(4)) == 0.0

    def test_doubling_fingers_halves_resistance(self):
        r4 = r_series(default_idc(4), 1.0)
        g8 = IdcGeometry(n_fingers=8, finger_length=0.86e-3, finger_width=0.4e-3, gap=0.4e-3)
        assert r_series(g8, 1.0) == r4 / 2.0

    def test_negative_sheet_resistance_rejected(self):
        with pytest.raises(ValueError):
            r_series(default_idc(4), -1.0)


class TestLineTheory:
    def test_frozen_values_at_50_ohm(self):
        l, c = l_c_from_line_theory(default_idc(), SUB, z0=50.0)
        assert l == pytest.approx(L_AT_50, rel=1e-12)
        assert c == pytest.approx(C_AT_50, rel=1e-12)

    def test_default_impedance_is_microstrip(self):
        assert microstrip_impedance(0.4e-3, SUB.h, SUB.epsilon_r) == pytest.approx(
            Z0_DEFAULT, rel=1e-12
        )
        l, c = l_c_from_line_theory(default_idc(), SUB)
        assert l == pytest.approx(L_AT_Z0, rel=1e-12)
        assert c == pytest.approx(C_AT_Z0, rel=1e-12)

    def test_effective_permittivity(self):
        eeff = effective_permittivity(0.4e-3, SUB.h, SUB.epsilon_r)
        assert eeff == pytest.approx(EEFF_DEFAULT, rel=1e-12)
        assert 1.0 < eeff < SUB.epsilon_r

    def test_impedance_falls_with_width(self):
        narrow = microstrip_impedance(0.5 * SUB.h, SUB.h, SUB.epsilon_r)
        wide = microstrip_impedance(2.0 * SUB.h, SUB.h, SUB.epsilon_r)
        assert wide < narrow

    @given(
        finger_lengths(),
        st.floats(min_value=10.0, max_value=300.0, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_lc_product_identity(self, l, z0):
        g = IdcGeometry(n_fingers=4, finger_length=l, finger_width=4e-4, gap=4e-4)
        ls, cs = l_c_from_line_theory(g, SUB, z0=z0)
        target = SUB.epsilon_r * l * l / (299792458.0 ** 2)
        assert ls * 2.0 * cs == pytest.approx(target, rel=1e-12)

    def test_short_length_limit(self):
        g = IdcGeometry(n_fingers=4, finger_length=1e-12, finger_width=4e-4, gap=4e-4)
        l, c = l_c_from_line_theory(g, SUB, z0=50.0)
        assert l == pytest.approx(0.0, abs=1e-18)
        assert c == pytest.approx(0.0, abs=1e-22)

    def test_rejects_nonpositive_impedance(self):
        with pytest.raises(ValueError):
            l_c_from_line_theory(default_idc(), SUB, z0=0.0)


class TestExtract:
    def test_bundles_constituents(self):
        model = extract(default_idc(), SUB, sheet_resistivity=1.0, z0=50.0)
        assert model.c_series == c_series_gap(default_idc(), SUB)
        assert model.r_series == r_series(default_idc(), 1.0)
        l, c = l_c_from_line_theory(default_idc(), SUB, z0=50.0)
        assert (model.l_series, model.c_shunt) == (l, c)

    def test_capacitance_rises_with_fingers(self):
        values = [extract(default_idc(n), SUB).c_series for n in (2, 3, 4)]
        assert values[0] < values[1] < values[2]

    def test_resistance_falls_with_fingers(self):
        values = [extract(default_idc(n), SUB, sheet_resistivity=1.0).r_series for n in (2, 3, 4)]
        assert values[0] > values[1] > values[2]

    @given(finger_lengths())
    @settings(max_examples=50)
    def test_doubling_length_doubles_every_element(self, l):
        g1 = IdcGeometry(n_fingers=4, finger_length=l, finger_width=4e-4, gap=4e-4)
        g2 = IdcGeometry(n_fingers=4, finger_length=2.0 * l, finger_width=4e-4, gap=4e-4)
        m1 = extract(g1, SUB, sheet_resistivity=2.0, z0=50.0)
        m2 = extract(g2, SUB, sheet_resistivity=2.0, z0=50.0)
        assert m2.c_series == 2.0 * m1.c_series
        assert m2.l_series == 2.0 * m1.l_series
        assert m2.c_shunt == 2.0 * m1.c_shunt
        assert m2.r_series == 2.0 * m1.r_series
