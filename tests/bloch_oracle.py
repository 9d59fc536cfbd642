"""Scalar reference for the Bloch kernel in `crlhkit.bloch`.

One frequency at a time with `cmath`, the way the toolkit computed every
sample before its sweep became one numpy array kernel. The tests compare
the kernel against this, so its rules (forward-power sign, band-edge pin,
region thresholds) are written out here a second time on purpose.
"""

import cmath
import math

import numpy as np

from crlhkit.bloch import Region
from crlhkit.geometry import C0

EVANESCENT_ALPHA_NP_PER_M = 1e-6
DEGENERATE_SINH = 1e-12
EDGE_TOL = 1e-9
BAND_EDGE_PIN = 1e-6


def chain_entries(cell, f: float) -> tuple[complex, complex, complex]:
    """(a, b, c) of the symmetric-T chain matrix: a = d = 1 + zy/2,
    b = z + z^2 y/4, c = y."""
    w = 2.0 * math.pi * f
    z = complex(cell.r_series, w * cell.l_r - 1.0 / (w * cell.c_l))
    y = complex(0.0, w * cell.c_r - 1.0 / (w * cell.l_l))
    zh = 0.5 * z
    return 1.0 + zh * y, z + zh * zh * y, y


def chain_matrix(cell, f: float) -> np.ndarray:
    """The 2 x 2 chain matrix [[a, b], [c, a]] of one cell at f."""
    a, b, c = chain_entries(cell, f)
    return np.array([[a, b], [c, a]])


def bloch_gamma(cell, f: float) -> tuple[float, float]:
    """(beta, alpha) from cosh(gamma p) = a on the forward-power branch."""
    a, b, _ = chain_entries(cell, f)
    p = cell.period
    gp = cmath.acosh(a)
    s = cmath.sinh(gp)
    if abs(s) > DEGENERATE_SINH:
        z_bloch = b / s
        if abs(z_bloch.real) > 1e-9 * abs(z_bloch):
            if z_bloch.real < 0.0:
                gp = -gp
            return gp.imag / p, gp.real / p + 0.0
    alpha = abs(gp.real) / p
    beta_p = gp.imag
    if abs(abs(beta_p) - math.pi) < EDGE_TOL and b.imag != 0.0:
        beta_p = -math.copysign(math.pi, b.imag)
    return beta_p / p, alpha


def classify(beta: float, alpha: float, k0: float, period: float) -> Region:
    if alpha > EVANESCENT_ALPHA_NP_PER_M:
        beta_p = abs(beta) * period
        if beta_p < BAND_EDGE_PIN or abs(beta_p - math.pi) < BAND_EDGE_PIN:
            return Region.EVANESCENT
    if abs(beta) < k0:
        return Region.LEFT_HANDED_LEAKY if beta < 0.0 else Region.RIGHT_HANDED_LEAKY
    return Region.GUIDED_SLOW_WAVE


def sample(cell, f: float) -> tuple[float, float, float, Region, float | None]:
    """(beta, alpha, k0, region, scan angle or None) at one frequency."""
    beta, alpha = bloch_gamma(cell, f)
    k0 = 2.0 * math.pi * f / C0
    region = classify(beta, alpha, k0, cell.period)
    leaky = region in (Region.LEFT_HANDED_LEAKY, Region.RIGHT_HANDED_LEAKY)
    angle = math.degrees(math.asin(beta / k0)) if leaky else None
    return beta, alpha, k0, region, angle
