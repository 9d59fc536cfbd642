"""Bloch analysis of the periodically loaded line.

One cell is a symmetric T network; the per-cell complex propagation
constant gamma = alpha + j beta solves cosh(gamma p) = (A + D)/2. Branch
selection follows the forward-power convention: the principal arccosh
already gives the decaying root (alpha >= 0), and where the Bloch
impedance has a meaningful real part its sign fixes beta so power flows in
+z. That makes beta negative in the left-handed pass band and positive in
the right-handed one, rising through zero at the transition frequency.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .cell import CrlhUnitCell
from .errors import BracketError, PoleError, SlowWaveError
from .geometry import C0

DEFAULT_F_START = 7.5e9
DEFAULT_F_STOP = 12.0e9
DEFAULT_N_POINTS = 451

# Attenuation floor separating numerical residue from a real stop band.
_EVANESCENT_ALPHA_NP_PER_M = 1e-6
# |sinh(gamma p)| below this means the Bloch impedance is indeterminate.
_DEGENERATE_SINH = 1e-12
# Band-edge match tolerance on |beta p| against 0 and pi.
_EDGE_TOL = 1e-9
# Phase-pinning tolerance for stop-band classification.
_BAND_EDGE_PIN = 1e-6
# Brent root-solve defaults, as in scipy.optimize.brentq.
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


@dataclass(frozen=True)
class TwoPortAbcd:
    """Chain (ABCD) matrix of a two-port: a, d dimensionless, b in ohm, c in S."""

    a: complex
    b: complex
    c: complex
    d: complex

    @property
    def determinant(self) -> complex:
        """ad - bc; unity for any reciprocal network."""
        return self.a * self.d - self.b * self.c

    def cascade(self, other: "TwoPortAbcd") -> "TwoPortAbcd":
        """Chain product self * other (self is the input-side section)."""
        return TwoPortAbcd(
            a=self.a * other.a + self.b * other.c,
            b=self.a * other.b + self.b * other.d,
            c=self.c * other.a + self.d * other.c,
            d=self.c * other.b + self.d * other.d,
        )

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)


class Region(enum.Enum):
    """Where a dispersion sample sits relative to radiation and band gaps."""

    LEFT_HANDED_LEAKY = "left-handed-leaky"
    RIGHT_HANDED_LEAKY = "right-handed-leaky"
    GUIDED_SLOW_WAVE = "guided-slow-wave"
    EVANESCENT = "evanescent"


@dataclass(frozen=True)
class DispersionPoint:
    """One classified sample of the Bloch curve."""

    f: float            # [Hz]
    beta: float         # [rad/m]
    alpha: float        # [Np/m]
    k0: float           # [rad/m]
    region: Region


def series_impedance(cell: CrlhUnitCell, f: float) -> complex:
    """Full series-branch impedance: r + j(w L_R - 1/(w C_L))."""
    w = 2.0 * math.pi * f
    return complex(cell.r_series, w * cell.l_r - 1.0 / (w * cell.c_l))


def shunt_admittance(cell: CrlhUnitCell, f: float) -> complex:
    """Shunt-branch admittance of the C_R parallel L_L tank."""
    w = 2.0 * math.pi * f
    return complex(0.0, w * cell.c_r - 1.0 / (w * cell.l_l))


def unit_cell_abcd(cell: CrlhUnitCell, f: float) -> TwoPortAbcd:
    """Chain matrix of one symmetric-T cell at frequency f.

    Half the series branch (L_R/2 with doubled C_L), the full shunt tank,
    then the other half; the cascade collapses to
    a = d = 1 + zy/2, b = z + z^2 y/4, c = y.

    Raises PoleError if any entry comes out non-finite (an exact branch
    pole); with positive elements and f > 0 that cannot happen for this
    topology, where the shunt resonance is an admittance zero, not a pole.
    """
    if f <= 0.0:
        raise ValueError(f"frequency must be positive, got {f}")
    z = series_impedance(cell, f)
    y = shunt_admittance(cell, f)
    zh = 0.5 * z
    a = 1.0 + zh * y
    m = TwoPortAbcd(a=a, b=z + zh * zh * y, c=y, d=a)
    if not all(cmath.isfinite(v) for v in (m.a, m.b, m.c, m.d)):
        raise PoleError(f, "chain-matrix entries are non-finite at a branch resonance")
    return m


def bloch_gamma(m: TwoPortAbcd, p: float) -> tuple[float, float]:
    """Per-cell propagation constant (beta [rad/m], alpha [Np/m]).

    Solves cosh(gamma p) = (a + d)/2 on the principal branch (alpha >= 0,
    |beta p| <= pi). When the Bloch impedance b/sinh(gamma p) has a
    significant real part, its sign selects the forward-power root. In
    lossless stop bands the impedance is purely reactive and beta p is
    pinned at 0 or pi; the pi-edge sign is taken opposite to the series
    reactance so swept curves continue the adjacent pass band instead of
    jumping between +pi and -pi.
    """
    if p <= 0.0:
        raise ValueError(f"period must be positive, got {p}")
    x = (m.a + m.d) / 2.0
    gp = cmath.acosh(complex(x))
    s = cmath.sinh(gp)
    if abs(s) > _DEGENERATE_SINH:
        z_bloch = m.b / s
        if abs(z_bloch.real) > 1e-9 * abs(z_bloch):
            if z_bloch.real < 0.0:
                gp = -gp
            # + 0.0 collapses a signed zero from the flip
            return gp.imag / p, gp.real / p + 0.0
    # Reactive or degenerate: lossless stop band, band edge, or transition.
    alpha = abs(gp.real) / p
    beta_p = gp.imag
    if abs(abs(beta_p) - math.pi) < _EDGE_TOL and m.b.imag != 0.0:
        beta_p = -math.copysign(math.pi, m.b.imag)
    return beta_p / p, alpha


def classify(beta: float, alpha: float, k0: float, period: float) -> Region:
    """Region of one (beta, alpha) sample.

    A sample is evanescent when it attenuates with its phase pinned at a
    band edge (beta p of 0 or +-pi, exact for the lossless topology);
    otherwise fast waves (|beta| < k0) leak and slow waves are guided.
    """
    if alpha > _EVANESCENT_ALPHA_NP_PER_M:
        beta_p = abs(beta) * period
        if beta_p < _BAND_EDGE_PIN or abs(beta_p - math.pi) < _BAND_EDGE_PIN:
            return Region.EVANESCENT
    if abs(beta) < k0:
        if beta < 0.0:
            return Region.LEFT_HANDED_LEAKY
        return Region.RIGHT_HANDED_LEAKY
    return Region.GUIDED_SLOW_WAVE


def _sample(cell: CrlhUnitCell, f: float) -> DispersionPoint:
    beta, alpha = bloch_gamma(unit_cell_abcd(cell, f), cell.period)
    k0 = 2.0 * math.pi * f / C0
    region = classify(beta, alpha, k0, cell.period)
    return DispersionPoint(f=f, beta=beta, alpha=alpha, k0=k0, region=region)


def dispersion_sweep(
    cell: CrlhUnitCell,
    f_start: float = DEFAULT_F_START,
    f_stop: float = DEFAULT_F_STOP,
    n_points: int = DEFAULT_N_POINTS,
) -> list[DispersionPoint]:
    """Classified dispersion samples on a uniform frequency grid.

    Raises PoleError at the first grid frequency whose chain matrix
    overflows.
    """
    if not 0.0 < f_start < f_stop:
        raise ValueError(f"need 0 < f_start < f_stop, got ({f_start}, {f_stop})")
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    return [_sample(cell, float(f)) for f in np.linspace(f_start, f_stop, n_points)]


def _brentq(f, xpre, xcur, fpre, fcur, xtol, maxiter=_BRENT_MAXITER):
    """Root of f between xpre and xcur, where f has values fpre and fcur
    of opposite sign.

    Brent's bracketed solver (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4) in the operation order of
    scipy.optimize.brentq, so every iterate is bit-identical to scipy's.
    Converged when half the bracket is below (xtol + _BRENT_RTOL |x|) / 2;
    raises BracketError after maxiter steps without convergence.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise BracketError(
        f"root solve did not converge in {maxiter} iterations (last x = {xcur:.9g})"
    )


def transition_frequency(
    cell: CrlhUnitCell,
    bracket: tuple[float, float] = (DEFAULT_F_START, DEFAULT_F_STOP),
    xtol: float = 1e3,
) -> float:
    """Frequency where beta crosses zero, bracketed to 1 kHz by default.

    The bracket endpoints must straddle the sign change; Brent iteration
    (bracketing, derivative-free, with inverse-quadratic and secant steps)
    refines the root. Raises BracketError when beta has the same sign at
    both ends or the iteration does not converge.
    """
    f_lo, f_hi = bracket
    if not 0.0 < f_lo < f_hi:
        raise ValueError(f"need 0 < f_lo < f_hi, got ({f_lo}, {f_hi})")

    def beta_of(f: float) -> float:
        return bloch_gamma(unit_cell_abcd(cell, f), cell.period)[0]

    b_lo, b_hi = beta_of(f_lo), beta_of(f_hi)
    if b_lo == 0.0:
        return f_lo
    if b_hi == 0.0:
        return f_hi
    if math.copysign(1.0, b_lo) == math.copysign(1.0, b_hi):
        raise BracketError(
            f"beta does not change sign over [{f_lo:.9g}, {f_hi:.9g}] Hz "
            f"(beta = {b_lo:.6g} and {b_hi:.6g} rad/m)"
        )
    return float(_brentq(beta_of, f_lo, f_hi, b_lo, b_hi, xtol))


def scan_angle(beta: float, f: float) -> float:
    """Main-beam direction from the phase constant: asin(beta/k0) [deg].

    Negative angles are the backward quadrant. A slow wave (|beta| > k0)
    is guided, radiates no beam, and raises SlowWaveError.
    """
    if f <= 0.0:
        raise ValueError(f"frequency must be positive, got {f}")
    k0 = 2.0 * math.pi * f / C0
    if abs(beta) > k0:
        raise SlowWaveError(
            f"|beta| = {abs(beta):.6g} rad/m exceeds k0 = {k0:.6g} rad/m at "
            f"{f:.6g} Hz: guided slow wave, no radiation angle"
        )
    return math.degrees(math.asin(beta / k0))


def scan_profile(
    cell: CrlhUnitCell,
    f_start: float = DEFAULT_F_START,
    f_stop: float = DEFAULT_F_STOP,
    n_points: int = DEFAULT_N_POINTS,
) -> list[tuple[float, float]]:
    """(f, scan angle) over the fast-wave samples of a sweep."""
    profile = []
    for pt in dispersion_sweep(cell, f_start, f_stop, n_points):
        if pt.region in (Region.LEFT_HANDED_LEAKY, Region.RIGHT_HANDED_LEAKY):
            profile.append((pt.f, scan_angle(pt.beta, pt.f)))
    return profile
