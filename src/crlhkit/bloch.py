"""Bloch analysis of the periodically loaded line.

One cell is a symmetric T network; the per-cell complex propagation
constant gamma = alpha + j beta solves cosh(gamma p) = (A + D)/2. Branch
selection follows the forward-power convention: the principal arccosh
already gives the decaying root (alpha >= 0), and where the Bloch
impedance has a meaningful real part its sign fixes beta so power flows in
+z. That makes beta negative in the left-handed pass band and positive in
the right-handed one, rising through zero at the transition frequency.

Every sample goes through one numpy kernel over an array of frequencies
(_chain, then _gamma, then classify); a scalar caller passes one frequency.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .cell import CrlhUnitCell, resonances
from .errors import BracketError, PoleError
from .geometry import C0, MAX_N_POINTS

DEFAULT_F_START = 7.5e9
DEFAULT_F_STOP = 12.0e9
DEFAULT_N_POINTS = 451
# Frequencies per pass of the kernel in dispersion_sweep. Its complex
# temporaries grow with the block, not the grid, so a sweep peaks at about
# twice its result columns; a dense 15001-point sweep stays one block.
_SWEEP_BLOCK = 65536

# Attenuation floor separating numerical residue from a real stop band.
_EVANESCENT_ALPHA_NP_PER_M = 1e-6
# |sinh(gamma p)| below this means the Bloch impedance b / sinh(gamma p) is
# indeterminate; _gamma forms sinh(gamma p) as sqrt(a - 1) sqrt(a + 1).
_DEGENERATE_SINH = 1e-12
# Band-edge match tolerance on |beta p| against 0 and pi.
_EDGE_TOL = 1e-9
# Phase-pinning tolerance for stop-band classification.
_BAND_EDGE_PIN = 1e-6


class Region(enum.Enum):
    """Where a dispersion sample sits relative to radiation and band gaps."""

    LEFT_HANDED_LEAKY = "left-handed-leaky"
    RIGHT_HANDED_LEAKY = "right-handed-leaky"
    GUIDED_SLOW_WAVE = "guided-slow-wave"
    EVANESCENT = "evanescent"


# DispersionSweep.region and classify() give each region as its index here.
REGIONS = tuple(Region)
_LH, _RH, _SLOW, _EVANESCENT = range(len(REGIONS))


@dataclass(frozen=True)
class DispersionSweep:
    """Classified Bloch samples on a frequency grid, one read-only column each.

    region holds indices into REGIONS. leaky marks the fast-wave samples,
    and scan_deg is their beam angle asin(beta/k0) in degrees, NaN on every
    other sample.
    """

    f: np.ndarray         # [Hz]
    beta: np.ndarray      # [rad/m]
    alpha: np.ndarray     # [Np/m]
    k0: np.ndarray        # [rad/m]
    region: np.ndarray    # int8 index into REGIONS
    leaky: np.ndarray     # bool
    scan_deg: np.ndarray  # [deg]

    def __post_init__(self):
        for column in vars(self).values():
            column.flags.writeable = False

    def scan_profile(self) -> list[tuple[float, float]]:
        """(f, scan angle) of each leaky sample, in grid order."""
        return list(zip(self.f[self.leaky].tolist(), self.scan_deg[self.leaky].tolist()))


def _k0(f):
    """Free-space wavenumber 2 pi f / c0 [rad/m]."""
    return 2.0 * math.pi * f / C0


def _chain(cell: CrlhUnitCell, f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chain-matrix entries a (= d), b and c of one symmetric-T cell at each f.

    Half the series branch z = r + j(w L_R - 1/(w C_L)), the full shunt
    tank y = j(w C_R - 1/(w L_L)), then the other half; the cascade
    collapses to a = d = 1 + zy/2, b = z + z^2 y/4, c = y.

    Raises ValueError for a frequency that is not positive and finite, and
    PoleError at the first frequency where an entry comes out non-finite.
    With positive elements that is float overflow, not a real pole: the
    shunt resonance of this topology is an admittance zero. Callers silence
    numpy's floating-point warnings, since overflow is reported this way.
    """
    invalid = ~((f > 0.0) & (f < math.inf))
    if invalid.any():
        raise ValueError(f"frequency must be positive and finite, got {f[invalid][0]}")
    w = 2.0 * math.pi * f
    z = np.empty(f.shape, dtype=complex)
    z.real = cell.r_series
    z.imag = w * cell.l_r - 1.0 / (w * cell.c_l)
    y = np.empty(f.shape, dtype=complex)
    y.real = 0.0
    y.imag = w * cell.c_r - 1.0 / (w * cell.l_l)
    zh = 0.5 * z
    a = 1.0 + zh * y
    b = z + zh * zh * y
    bad = ~(np.isfinite(a) & np.isfinite(b) & np.isfinite(y))
    if bad.any():
        raise PoleError(float(f[bad.argmax()]), "chain-matrix entries overflow")
    return a, b, y


def _gamma(a: np.ndarray, b: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(beta, alpha) from the chain entries a and b; see bloch_gamma."""
    # principal arccosh in the form of CPython's cmath.acosh (Kahan's
    # sqrt(a - 1), sqrt(a + 1) split), so that a lossless pass band gets
    # alpha of exactly 0 and digits match a scalar cmath evaluation
    s1 = np.sqrt(a - 1.0)
    s2 = np.sqrt(a + 1.0)
    gp = np.empty(a.shape, dtype=complex)
    gp.real = np.arcsinh(s1.real * s2.real + s1.imag * s2.imag)
    gp.imag = 2.0 * np.arctan2(s1.imag, s2.real)
    # sinh(gamma p) of the principal root: sinh(acosh a) = sqrt(a - 1) sqrt(a + 1)
    s = s1 * s2
    z_bloch = b / s
    forward = (np.abs(s) > _DEGENERATE_SINH) & (np.abs(z_bloch.real) > 1e-9 * np.abs(z_bloch))
    gp = np.where(forward & (z_bloch.real < 0.0), -gp, gp)
    edge = ~forward & (np.abs(np.abs(gp.imag) - math.pi) < _EDGE_TOL) & (b.imag != 0.0)
    beta_p = np.where(edge, -np.copysign(math.pi, b.imag), gp.imag)
    # + 0.0 collapses a signed zero from the flip
    alpha = np.where(forward, gp.real / p + 0.0, np.abs(gp.real) / p)
    return beta_p / p, alpha


def bloch_gamma(cell: CrlhUnitCell, f):
    """Per-cell propagation constant (beta [rad/m], alpha [Np/m]) at f.

    f is one frequency (floats come back) or a 1-D array (arrays come
    back). Solves cosh(gamma p) = (a + d)/2 on the principal branch
    (alpha >= 0, |beta p| <= pi). When the Bloch impedance b/sinh(gamma p)
    has a significant real part, its sign selects the forward-power root.
    In lossless stop bands the impedance is purely reactive and beta p is
    pinned at 0 or pi; the pi-edge sign is taken opposite to the series
    reactance so swept curves continue the adjacent pass band instead of
    jumping between +pi and -pi.
    """
    freqs = np.asarray(f, dtype=float)
    with np.errstate(all="ignore"):
        a, b, _ = _chain(cell, freqs.reshape(-1))
        beta, alpha = _gamma(a, b, cell.period)
    if freqs.ndim == 0:
        return float(beta[0]), float(alpha[0])
    return beta, alpha


def classify(beta, alpha, k0, period: float) -> np.ndarray:
    """Region of each (beta, alpha) sample, as indices into REGIONS.

    A sample is evanescent when it attenuates with its phase pinned at a
    band edge (beta p of 0 or +-pi, exact for the lossless topology);
    otherwise fast waves (|beta| < k0) leak and slow waves are guided.
    """
    beta_p = np.abs(beta) * period
    pinned = (alpha > _EVANESCENT_ALPHA_NP_PER_M) & (
        (beta_p < _BAND_EDGE_PIN) | (np.abs(beta_p - math.pi) < _BAND_EDGE_PIN)
    )
    leaky = np.where(beta < 0.0, _LH, _RH)
    return np.where(pinned, _EVANESCENT, np.where(np.abs(beta) < k0, leaky, _SLOW)).astype(np.int8)


def _scan_deg(beta, k0):
    """asin(beta/k0) in degrees; NaN where |beta| > k0."""
    with np.errstate(invalid="ignore"):
        return np.degrees(np.arcsin(beta / k0))


def dispersion_sweep(
    cell: CrlhUnitCell,
    f_start: float = DEFAULT_F_START,
    f_stop: float = DEFAULT_F_STOP,
    n_points: int = DEFAULT_N_POINTS,
) -> DispersionSweep:
    """Classified dispersion samples on a uniform frequency grid, as columns.

    The kernel runs over blocks of _SWEEP_BLOCK frequencies. Raises
    ValueError for a non-finite, empty or reversed band or for n_points
    outside 2..MAX_N_POINTS, and PoleError at the first grid frequency
    whose chain matrix overflows.
    """
    for name, edge in (("f_start", f_start), ("f_stop", f_stop)):
        if not math.isfinite(edge):
            raise ValueError(f"{name} must be finite, got {edge}")
    if not 0.0 < f_start < f_stop:
        raise ValueError(f"need 0 < f_start < f_stop, got ({f_start}, {f_stop})")
    if not 2 <= n_points <= MAX_N_POINTS:
        raise ValueError(f"n_points must be within 2..{MAX_N_POINTS}, got {n_points}")
    f = np.linspace(f_start, f_stop, n_points)
    blocks = [
        _sweep_columns(cell, f[lo : lo + _SWEEP_BLOCK]) for lo in range(0, n_points, _SWEEP_BLOCK)
    ]
    # one block keeps its arrays: joining would copy them into fresh memory
    return DispersionSweep(*(blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))))


def _sweep_columns(cell: CrlhUnitCell, f: np.ndarray) -> tuple[np.ndarray, ...]:
    """The DispersionSweep columns of cell over the frequencies f, in field order."""
    beta, alpha = bloch_gamma(cell, f)
    k0 = _k0(f)
    region = classify(beta, alpha, k0, cell.period)
    leaky = (region == _LH) | (region == _RH)
    return f, beta, alpha, k0, region, leaky, np.where(leaky, _scan_deg(beta, k0), np.nan)


def transition_frequency(
    cell: CrlhUnitCell,
    bracket: tuple[float, float] = (DEFAULT_F_START, DEFAULT_F_STOP),
) -> float:
    """Frequency where beta crosses zero: the shunt resonance f_sh.

    A symmetric-T cell has cosh(gamma p) = 1 - XB/2 + j rB/2, with X the
    series reactance, r the series loss and B the shunt susceptance. That
    is real only where B = 0, so with or without loss the crossing is
    f_sh = 1/(2 pi sqrt(L_L C_R)) (Caloz & Itoh, Electromagnetic
    Metamaterials, 2006, sec. 3.1-3.2). Raises ValueError for a bracket
    that is not 0 < f_lo < f_hi, and BracketError when f_sh lies outside
    the bracket or when the lossless cell has a stop band between its
    series resonance f_se and f_sh (alpha above _EVANESCENT_ALPHA_NP_PER_M
    at their midpoint): beta is pinned at 0 across that gap, so there is
    no single transition frequency.
    """
    f_lo, f_hi = bracket
    if not 0.0 < f_lo < f_hi:
        raise ValueError(f"need 0 < f_lo < f_hi, got ({f_lo}, {f_hi})")
    pair = resonances(cell)
    f_se = pair.omega_se / (2.0 * math.pi)
    f_sh = pair.omega_sh / (2.0 * math.pi)
    if not f_lo <= f_sh <= f_hi:
        raise BracketError(
            f"the transition f_sh = {f_sh:.9g} Hz lies outside [{f_lo:.9g}, {f_hi:.9g}] Hz"
        )
    # loss lifts alpha everywhere, so the gap is judged on the lossless cell
    alpha = bloch_gamma(replace(cell, r_series=0.0), 0.5 * (f_se + f_sh))[1]
    if alpha > _EVANESCENT_ALPHA_NP_PER_M:
        raise BracketError(
            f"stop band between f_se = {f_se:.9g} Hz and f_sh = {f_sh:.9g} Hz "
            f"(alpha = {alpha:.6g} Np/m midway), so the cell has no single "
            f"transition frequency"
        )
    return f_sh


def scan_profile(
    cell: CrlhUnitCell,
    f_start: float = DEFAULT_F_START,
    f_stop: float = DEFAULT_F_STOP,
    n_points: int = DEFAULT_N_POINTS,
) -> list[tuple[float, float]]:
    """(f, scan angle) over the fast-wave samples of a sweep."""
    return dispersion_sweep(cell, f_start, f_stop, n_points).scan_profile()
