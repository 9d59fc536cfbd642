"""Balanced CRLH unit-cell circuit and its calibration.

The cell is a symmetric composite right/left-handed section: a series
branch (L_R in series with C_L) and a shunt branch (C_R in parallel with
L_L). Only the left-handed series capacitance follows from the printed
capacitor geometry; the remaining elements are closed by two conventions,
balance at a target broadside frequency and a chosen image impedance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

from . import idc
from .errors import ConfigError
from .geometry import CellGeometry, SubstrateSpec

DEFAULT_Z_BLOCH = 50.0
DEFAULT_BALANCE_TOL = 1e-3


@dataclass(frozen=True)
class CrlhUnitCell:
    """Lumped CRLH section: elements in H and F, period in m.

    r_series carries optional conductor loss into the series branch; the
    default of zero keeps the ideal lossless topology.
    """

    l_r: float
    c_r: float
    l_l: float
    c_l: float
    period: float
    r_series: float = 0.0

    def __post_init__(self):
        for name in ("l_r", "c_r", "l_l", "c_l", "period"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0.0 <= self.r_series < math.inf:
            raise ValueError(f"r_series must be >= 0 and finite, got {self.r_series}")


@dataclass(frozen=True)
class ResonancePair:
    """Series and shunt angular resonance frequencies [rad/s]."""

    omega_se: float
    omega_sh: float

    def __post_init__(self):
        if self.omega_se <= 0.0 or self.omega_sh <= 0.0:
            raise ValueError("resonance frequencies must be positive")


def resonances(cell: CrlhUnitCell) -> ResonancePair:
    """Resonances of the two branches: 1/sqrt(L_R C_L) and 1/sqrt(L_L C_R)."""
    return ResonancePair(
        omega_se=1.0 / math.sqrt(cell.l_r * cell.c_l),
        omega_sh=1.0 / math.sqrt(cell.l_l * cell.c_r),
    )


def is_balanced(cell: CrlhUnitCell) -> bool:
    """True when the series and shunt resonances coincide within DEFAULT_BALANCE_TOL."""
    pair = resonances(cell)
    return abs(pair.omega_se - pair.omega_sh) <= DEFAULT_BALANCE_TOL * pair.omega_se


def calibrate_balanced(
    c_l: float,
    f_broadside: float,
    z_c: float = DEFAULT_Z_BLOCH,
    period: float = 3.2e-3,
) -> CrlhUnitCell:
    """Close the remaining elements around a target broadside frequency.

    Given the series capacitance, pick L_R so the series branch resonates
    at f_broadside, then size the shunt branch to resonate there too with
    image impedance z_c:

        L_R = 1 / (w0^2 C_L),  C_R = L_R / z_c^2,  L_L = z_c^2 C_L

    The result is balanced by construction, w_se = w_sh = w0, with
    sqrt(L_R/C_R) = sqrt(L_L/C_L) = z_c.
    """
    if c_l <= 0.0 or f_broadside <= 0.0 or z_c <= 0.0 or period <= 0.0:
        raise ValueError("calibration inputs must all be positive")
    w0 = 2.0 * math.pi * f_broadside
    try:
        l_r = 1.0 / (w0 * w0 * c_l)
        c_r = l_r / (z_c * z_c)
    except ZeroDivisionError:
        raise ValueError(
            f"calibration underflows (C_L = {c_l} F, f = {f_broadside} Hz, z_c = {z_c} ohm)"
        ) from None
    # CrlhUnitCell rejects an element that over- or underflowed
    return CrlhUnitCell(
        l_r=l_r,
        c_r=c_r,
        l_l=z_c * z_c * c_l,
        c_l=c_l,
        period=period,
    )


def cell_for_state(
    n: int,
    sub: SubstrateSpec,
    geom: CellGeometry,
    targets: Mapping[int, float],
    *,
    z_c: float = DEFAULT_Z_BLOCH,
    series_combination: str = "half",
) -> CrlhUnitCell:
    """Calibrated lossless cell for the switch state with n active fingers.

    The series capacitance is the capacitor's gap capacitance at n
    fingers, and the broadside frequency is looked up in `targets` (finger
    count to broadside frequency in Hz). Each period carries two capacitors
    in its through path, so the default combination is 'half' (C_L =
    C_series / 2, the two in series); 'full' assigns one capacitor per
    period instead.
    """
    try:
        f0 = targets[n]
    except KeyError:
        raise ConfigError(f"no broadside target configured for the {n}-finger state") from None
    c_series = idc.c_series_gap(replace(geom.idc, n_fingers=n), sub)
    if series_combination == "half":
        c_l = c_series / 2.0
    elif series_combination == "full":
        c_l = c_series
    else:
        raise ConfigError(
            f"series_combination must be 'half' or 'full', got {series_combination!r}"
        )
    try:
        return calibrate_balanced(c_l, f0, z_c=z_c, period=geom.period)
    except ValueError as exc:
        raise ValueError(f"cannot calibrate the {n}-finger state: {exc}") from None
