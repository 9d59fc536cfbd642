"""Closed-form RLC extraction for an interdigital capacitor.

The series capacitance comes from the conformal-mapping gap formula built on
the ratio of complete elliptic integrals of the first kind. The series
inductance and the per-side shunt capacitance come from microstrip line
theory, and the series resistance from the parallel-finger sheet model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import C0, IdcGeometry, SubstrateSpec, to_um

# Handoff point of the two logarithmic approximations, nominally 1/sqrt(2).
_K_BRANCH_SPLIT = 0.707


@dataclass(frozen=True)
class IdcLumpedModel:
    """Extracted series RLC plus the per-side shunt capacitance C'."""

    c_series: float   # [F]
    c_shunt: float    # [F] per side
    l_series: float   # [H]
    r_series: float   # [ohm]

    def __post_init__(self):
        for name in ("c_series", "c_shunt", "l_series", "r_series"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def elliptic_ratio(k: float) -> float:
    """K(k)/K'(k) via the standard logarithmic approximations.

    Upper branch for k >= 0.707, lower branch below. Both are tight
    closed forms, accurate to a few ppm against direct quadrature of the
    elliptic integrals, and they agree at the handoff.
    """
    if not 0.0 < k < 1.0:
        raise ValueError(f"modulus k must lie strictly inside (0, 1), got {k}")
    if k >= _K_BRANCH_SPLIT:
        return math.log(2.0 * (1.0 + math.sqrt(k)) / (1.0 - math.sqrt(k))) / math.pi
    k_prime = math.sqrt(1.0 - k * k)
    if k_prime == 1.0:
        # below k ~ 1e-8 the lower branch would divide by 1 - sqrt(k') = 0
        raise ValueError(f"modulus k = {k} is too small for K/K' in double precision")
    return math.pi / math.log(2.0 * (1.0 + math.sqrt(k_prime)) / (1.0 - math.sqrt(k_prime)))


def _agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean; converges quadratically."""
    while abs(a - b) > 1e-15 * a:
        a, b = (a + b) / 2.0, math.sqrt(a * b)
    return a


def elliptic_ratio_quadrature(k: float) -> float:
    """Exact K(k)/K'(k) from the arithmetic-geometric mean.

    K(k) = pi / (2 AGM(1, k')) (Abramowitz & Stegun 17.6), so the ratio is
    AGM(1, k) / AGM(1, k'), good to machine precision. Test oracle for
    elliptic_ratio; the extraction path never calls it.
    """
    if not 0.0 < k < 1.0:
        raise ValueError(f"modulus k must lie strictly inside (0, 1), got {k}")
    return _agm(1.0, k) / _agm(1.0, math.sqrt(1.0 - k * k))


def modulus_from_geometry(g: IdcGeometry) -> float:
    """Elliptic modulus k = tan^2(a pi / 4b) of the finger cross-section.

    a = W'/2 is the half finger width and b = (W' + S)/2 the half pitch,
    with S the gap, so k depends only on the width-to-pitch ratio: equal
    width and gap always give k = tan^2(pi/8) regardless of scale.
    """
    a = g.finger_width / 2.0
    b = (g.finger_width + g.gap) / 2.0
    return math.tan(a * math.pi / (4.0 * b)) ** 2


def c_series_gap(g: IdcGeometry, sub: SubstrateSpec) -> float:
    """Series gap capacitance of the finger array [F].

    Conformal-mapping form: C = 1e-3 er / (18 pi) * K/K' * (N - 1) * l,
    with the finger length in micrometers giving picofarads.
    """
    ratio = elliptic_ratio(modulus_from_geometry(g))
    c_pf = (
        1e-3 * sub.epsilon_r / (18.0 * math.pi)
        * ratio
        * (g.n_fingers - 1)
        * to_um(g.finger_length)
    )
    return c_pf * 1e-12


def r_series(g: IdcGeometry, sheet_resistivity: float = 0.0) -> float:
    """Ohmic series resistance of N parallel fingers [ohm].

    R = (4/3) (l / (W' N)) Rs with Rs the conductor sheet resistance in
    ohms per square; zero models a lossless conductor.
    """
    if sheet_resistivity < 0.0:
        raise ValueError(f"sheet resistivity must be >= 0, got {sheet_resistivity}")
    return (4.0 / 3.0) * g.finger_length / (g.finger_width * g.n_fingers) * sheet_resistivity


def effective_permittivity(width: float, h: float, epsilon_r: float) -> float:
    """Quasi-static effective permittivity of a microstrip trace."""
    u = width / h
    term = (1.0 + 12.0 / u) ** -0.5
    if u < 1.0:
        term += 0.04 * (1.0 - u) ** 2
    return (epsilon_r + 1.0) / 2.0 + (epsilon_r - 1.0) / 2.0 * term


def microstrip_impedance(width: float, h: float, epsilon_r: float) -> float:
    """Characteristic impedance of a microstrip trace [ohm].

    Hammerstad closed forms, narrow and wide branches switching at
    w/h = 1; good to about 1% over the usual design range.
    """
    if width <= 0.0 or h <= 0.0:
        raise ValueError("width and substrate thickness must be positive")
    u = width / h
    e_eff = effective_permittivity(width, h, epsilon_r)
    if u <= 1.0:
        return 60.0 / math.sqrt(e_eff) * math.log(8.0 / u + u / 4.0)
    return 120.0 * math.pi / (math.sqrt(e_eff) * (u + 1.393 + 0.667 * math.log(u + 1.444)))


def l_c_from_line_theory(
    g: IdcGeometry, sub: SubstrateSpec, z0: float | None = None
) -> tuple[float, float]:
    """Series inductance and per-side shunt capacitance from line theory.

    L = z0 sqrt(er) l / c and C' = sqrt(er) l / (2 z0 c), so the pair
    always satisfies L * 2C' = er l^2 / c^2. The sqrt(er) follows the
    source formulas as written; a rigorous line model would use the
    effective permittivity of the loaded trace instead.

    z0 defaults to the microstrip impedance of a finger-width trace on the
    given substrate.
    """
    if z0 is None:
        z0 = microstrip_impedance(g.finger_width, sub.h, sub.epsilon_r)
    if z0 <= 0.0:
        raise ValueError(f"line impedance must be positive, got {z0}")
    root_er = math.sqrt(sub.epsilon_r)
    l_series = z0 * root_er / C0 * g.finger_length
    c_shunt = 0.5 * root_er / (z0 * C0) * g.finger_length
    return l_series, c_shunt


def extract(
    g: IdcGeometry,
    sub: SubstrateSpec,
    sheet_resistivity: float = 0.0,
    z0: float | None = None,
) -> IdcLumpedModel:
    """Full RLC extraction of one capacitor."""
    l_series, c_shunt = l_c_from_line_theory(g, sub, z0)
    return IdcLumpedModel(
        c_series=c_series_gap(g, sub),
        c_shunt=c_shunt,
        l_series=l_series,
        r_series=r_series(g, sheet_resistivity),
    )
