"""Array-factor synthesis for the cascaded leaky aperture.

Each period radiates as an isotropic element excited by the traveling
Bloch wave, so cell n carries exp(-n gamma p). The far-field sum over the
cells gives the frequency-scanned pattern; beam direction and scan trend
are array-factor dominated, so no element pattern is applied. The sum is
geometric and taken in closed form, at a cost that does not grow with N.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bloch import bloch_gamma
from .cell import CrlhUnitCell
from .geometry import C0, MAX_N_CELLS

# Relative magnitude floor so exact pattern nulls stay finite in dB.
_NULL_FLOOR = 1e-15


@dataclass(frozen=True)
class RadiationPattern:
    """Normalized pattern cuts at one frequency or at an array of them.

    Every cut is taken on the one angle grid, theta_deg: -90 to +90
    degrees in 0.25 degree steps, 721 angles, shared and read-only. Each
    cut peaks at exactly 0 dB; main_beam_deg is the grid argmax and
    beamwidth_3db_deg the interpolated -3 dB width around it. For one
    frequency f, main_beam_deg and beamwidth_3db_deg are floats and
    magnitude_db has one entry per angle; for an array of F frequencies
    they are arrays of length F and magnitude_db is F x 721.
    """

    f: float | np.ndarray
    theta_deg: np.ndarray
    magnitude_db: np.ndarray
    main_beam_deg: float | np.ndarray
    beamwidth_3db_deg: float | np.ndarray


@functools.cache
def _default_grid():
    """theta, -90 to +90 degrees in 0.25 degree steps, and sin theta; read-only."""
    theta = np.linspace(-90.0, 90.0, 721)
    sin_theta = np.sin(np.radians(theta))
    theta.flags.writeable = False
    sin_theta.flags.writeable = False
    return theta, sin_theta


def _inputs(gamma, p, n_cells, f):
    """Validated inputs of array_factor: (freqs, gammas, phase_step), gammas
    1-D and phase_step k0 p of each frequency."""
    freqs = np.asarray(f, dtype=float)
    gammas = np.asarray(gamma, dtype=complex)
    if freqs.ndim > 1 or gammas.shape != freqs.shape:
        raise ValueError(
            f"gamma and f must be scalars or 1-D arrays of one length, got shapes "
            f"{gammas.shape} and {freqs.shape}"
        )
    if not 1 <= n_cells <= MAX_N_CELLS:
        raise ValueError(f"n_cells must be within 1..{MAX_N_CELLS}, got {n_cells}")
    if (freqs <= 0.0).any():
        raise ValueError(f"frequency must be positive, got {freqs[freqs <= 0.0].flat[0]}")
    if p <= 0.0:
        raise ValueError(f"period must be positive, got {p}")

    with np.errstate(over="ignore", invalid="ignore"):
        k0 = 2.0 * math.pi * freqs.reshape(-1) / C0
        phase_step = k0 * p
        # the phase across the line at endfire; for one cell, 0 * inf is NaN
        last = (n_cells - 1) * phase_step
    if not np.isfinite(last).all():
        i = np.flatnonzero(~np.isfinite(last))[0]
        raise ValueError(
            f"(n_cells - 1) k0 p must be finite, got {last[i]} from k0 p {phase_step[i]} "
            f"at period {p} and {n_cells} cells"
        )
    if not np.isfinite(gammas).all():
        raise ValueError(f"gamma must be finite, got {gammas[~np.isfinite(gammas)].flat[0]}")
    return freqs, gammas.reshape(-1), phase_step


def _decay(gammas, p, n_cells):
    """|alpha| p of each frequency, once the sum of |exp(-n gamma p)| is
    found finite: exp((N-1) max(-alpha, 0) p) times the sum of
    exp(-n |alpha| p), or NaN where (N-1) beta p overflows. A growing wave is
    the decaying one of the same |alpha| read from the line's far end, so
    both give one normalized pattern."""
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.abs(gammas.real) * p
        total = np.exp(np.maximum(-gammas.real, 0.0) * (n_cells - 1) * p)
        total *= np.where(decay > 0.0, np.expm1(-n_cells * decay) / np.expm1(-decay), n_cells)
        total[~np.isfinite(gammas.imag * (n_cells - 1) * p)] = math.nan
    if not np.isfinite(total).all():
        i = np.flatnonzero(~np.isfinite(total))[0]
        raise ValueError(
            f"sum of |exp(-n gamma p)| over {n_cells} cells must be finite, got {total[i]} "
            f"at gamma {gammas[i]} and period {p}"
        )
    return decay


def _chord(decay, half, m) -> np.ndarray:
    """|1 - z^m| of z = exp(-decay + 2j half): the hypot of 1 - r^m and
    2 r^(m/2) sin(m half), r = exp(-decay), so no term is squared out of range."""
    side = np.multiply(half, m)
    np.sin(side, out=side)
    side *= 2.0 * np.exp(-m * decay / 2.0)
    return np.hypot(np.expm1(-m * decay), side, out=side)


def _magnitudes(sin_theta, phase_step, gammas, p, n_cells) -> np.ndarray:
    """|AF| of each frequency and angle row, as a frequency x angle array.

    The excitation is geometric, z^n with z = r exp(j delta), r = exp(-|alpha| p)
    and delta = k0 p sin theta - beta p, so |AF| = |1 - z^N| / |1 - z|, or N
    where |1 - z| is 0 (Balanis, Antenna Theory, 3rd ed., 6.3). delta/2 is
    reduced to [-pi/2, pi/2], so that N delta/2 keeps its digits on a
    grating lobe, and rounded once for both chords, so that their ratio
    stays N where a subnormal delta/2 loses digits.
    """
    decay = _decay(gammas, p, n_cells)[:, None]
    half = np.multiply(phase_step[:, None], sin_theta)
    half -= (gammas.imag * p)[:, None]
    half /= 2.0
    half -= math.pi * np.round(half / math.pi)
    magnitude = _chord(decay, half, n_cells)
    den = _chord(decay, half, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        magnitude /= den
    magnitude[den == 0.0] = n_cells
    return magnitude


def _crossing_angles(theta, db, j2, step, edge) -> np.ndarray:
    """-3 dB crossing of each cut between its angle j2, the first past its
    peak (walking by step) that is not above -3 dB, and its neighbour
    j2 - step toward the peak, linearly interpolated; edge where j2 is out
    of range, the cut never dropping that far."""
    angle = np.full(len(j2), edge)
    hit = np.flatnonzero((j2 >= 0) & (j2 < len(theta)))
    j2 = j2[hit]
    j = j2 - step
    db_j, db_j2 = db[hit, j], db[hit, j2]
    frac = (-3.0 - db_j) / (db_j2 - db_j)
    angle[hit] = theta[j] + frac * (theta[j2] - theta[j])
    return angle


def _db_beam_and_width(theta, magnitude):
    """(dB, main beam, -3 dB width) of frequency x angle cuts of |AF|.

    Each cut goes to dB as 20 log10(max(|AF|, floor) / peak) minus its
    largest value, so that its peak sits at 0 dB exactly; its main beam is
    its first angle at that peak, and its width lies between the -3 dB
    crossings on either side, falling back to -90 and +90 degrees.
    """
    peak = magnitude.max(axis=1, keepdims=True)
    db = np.maximum(magnitude, peak * _NULL_FLOOR)
    db /= peak
    np.log10(db, out=db)
    db *= 20.0
    db -= db.max(axis=1, keepdims=True)
    i_peak = db.argmax(axis=1)[:, None]
    past = ~(db > -3.0)
    col = np.arange(len(theta))
    right = np.where(past & (col > i_peak), col, len(theta)).min(axis=1)
    left = np.where(past & (col < i_peak), col, -1).max(axis=1)
    upper = _crossing_angles(theta, db, right, +1, 90.0)
    width = upper - _crossing_angles(theta, db, left, -1, -90.0)
    return db, theta[i_peak[:, 0]], width


def array_factor(
    gamma: complex | np.ndarray, p: float, n_cells: int, f: float | np.ndarray
) -> RadiationPattern:
    """Pattern of n_cells isotropic radiators fed by a traveling wave.

    AF(theta) = sum over n of exp(-n gamma p) exp(j n k0 p sin theta),
    taken as the closed-form geometric sum and normalized so the grid peak
    sits at 0 dB exactly. gamma and f are one value each (floats come back)
    or 1-D arrays of one length, one pattern per frequency (arrays come
    back).
    """
    freqs, gammas, phase_step = _inputs(gamma, p, n_cells, f)
    theta, sin_theta = _default_grid()
    magnitude = _magnitudes(sin_theta, phase_step, gammas, p, n_cells)
    db, main, width = _db_beam_and_width(theta, magnitude)
    if freqs.ndim == 0:
        return RadiationPattern(
            f=float(freqs),
            theta_deg=theta,
            magnitude_db=db[0],
            main_beam_deg=float(main[0]),
            beamwidth_3db_deg=float(width[0]),
        )
    return RadiationPattern(
        f=freqs, theta_deg=theta, magnitude_db=db, main_beam_deg=main, beamwidth_3db_deg=width
    )


def _with_leakage(beta, alpha, period: float, leakage_np_per_cell: float | None):
    """gamma = alpha + j beta, the alpha replaced by the per-cell leakage
    when one is given."""
    if leakage_np_per_cell is not None:
        if not 0.0 <= leakage_np_per_cell < math.inf:
            raise ValueError(f"leakage must be >= 0 and finite, got {leakage_np_per_cell}")
        alpha = leakage_np_per_cell / period
    gamma = np.empty(np.shape(beta), dtype=complex)
    gamma.real = alpha
    gamma.imag = beta
    return gamma


def pattern_for_frequency(
    cell: CrlhUnitCell,
    f: float | np.ndarray,
    n_cells: int,
    leakage_np_per_cell: float | None = None,
) -> RadiationPattern:
    """Pattern from the Bloch solution of `cell` at f, one frequency or a 1-D array.

    leakage_np_per_cell, when given, replaces the per-cell attenuation:
    the ideal lossless circuit yields alpha = 0 in-band and so cannot show
    the finite leakage of a real radiating aperture. Left as None the
    Bloch alpha is used unchanged.
    """
    beta, alpha = bloch_gamma(cell, f)
    gamma = _with_leakage(beta, alpha, cell.period, leakage_np_per_cell)
    return array_factor(gamma, cell.period, n_cells, f)


