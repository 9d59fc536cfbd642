import math

import pytest

from crlhkit.geometry import (
    CellGeometry,
    IdcGeometry,
    SubstrateSpec,
    default_cell_geometry,
    default_idc,
    default_substrate,
    to_cm,
    to_um,
)


def test_unit_scale_factors():
    assert to_cm(1.0) == 100.0
    assert to_um(1e-6) == 1.0


def test_substrate_validation():
    with pytest.raises(ValueError):
        SubstrateSpec(epsilon_r=0.5, h=1e-3)
    with pytest.raises(ValueError):
        SubstrateSpec(epsilon_r=3.8, h=0.0)


def test_idc_validation():
    with pytest.raises(ValueError):
        IdcGeometry(n_fingers=0, finger_length=1e-3, finger_width=1e-4, gap=1e-4)
    with pytest.raises(ValueError):
        IdcGeometry(n_fingers=4, finger_length=-1e-3, finger_width=1e-4, gap=1e-4)
    with pytest.raises(ValueError):
        IdcGeometry(n_fingers=4, finger_length=1e-3, finger_width=1e-4, gap=0.0)


def test_cell_geometry_validation():
    idc = default_idc()
    with pytest.raises(ValueError):
        CellGeometry(period=0.0, idc=idc, n_cells=8)
    with pytest.raises(ValueError):
        CellGeometry(period=3.2e-3, idc=idc, n_cells=0)


def test_reference_defaults():
    sub = default_substrate()
    assert sub.epsilon_r == 3.8
    assert sub.h == pytest.approx(1.5748e-3)
    g = default_idc()
    assert g.n_fingers == 4
    assert g.finger_length == pytest.approx(0.86e-3)
    assert g.finger_width == g.gap == pytest.approx(0.4e-3)
    geom = default_cell_geometry()
    assert geom.period == pytest.approx(3.2e-3)
    assert geom.n_cells == 8


def test_geometry_is_immutable():
    g = default_idc()
    with pytest.raises(Exception):
        g.n_fingers = 2


def test_default_idc_finger_count_override():
    assert default_idc(2).n_fingers == 2
    assert math.isclose(default_idc(2).finger_length, default_idc(4).finger_length)
