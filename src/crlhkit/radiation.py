"""Array-factor synthesis for the cascaded leaky aperture.

Each period radiates as an isotropic element excited by the traveling
Bloch wave, so cell n carries exp(-n gamma p). The far-field sum over the
cells gives the frequency-scanned pattern; beam direction and scan trend
are array-factor dominated, so no element pattern is applied.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bloch import bloch_gamma
from .cell import CrlhUnitCell
from .geometry import C0

DEFAULT_THETA_STEP_DEG = 0.25

# Relative magnitude floor so exact pattern nulls stay finite in dB.
_NULL_FLOOR = 1e-15
# Frequencies per block of the steering tensor. One block buffer of
# _BLOCK x len(theta) x n_cells complex values is reused for every block,
# so transient memory does not grow with the number of frequencies.
_BLOCK = 4


def default_theta_grid() -> np.ndarray:
    """Symmetric angle grid over [-90, +90] degrees, inclusive, in steps of
    DEFAULT_THETA_STEP_DEG."""
    return np.linspace(-90.0, 90.0, round(180.0 / DEFAULT_THETA_STEP_DEG) + 1)


@dataclass(frozen=True)
class RadiationPattern:
    """Normalized pattern cuts at one frequency or at an array of them.

    Each cut peaks at exactly 0 dB; main_beam_deg is the grid argmax and
    beamwidth_3db_deg the interpolated -3 dB width around it. For one
    frequency f, main_beam_deg and beamwidth_3db_deg are floats and
    magnitude_db has one entry per angle; for an array of F frequencies
    they are arrays of length F and magnitude_db is F x len(theta_deg).
    """

    f: float | np.ndarray
    theta_deg: np.ndarray
    magnitude_db: np.ndarray
    main_beam_deg: float | np.ndarray
    beamwidth_3db_deg: float | np.ndarray


def _crossing_angles(
    theta: np.ndarray, db: np.ndarray, i_peak: np.ndarray, step: int
) -> np.ndarray:
    """First -3 dB crossing of each row of db, walking from its peak in one direction.

    The crossing lies between the first sample past the peak that is not
    above -3 dB and its neighbour toward the peak, linearly interpolated.
    A row that never drops that far falls back to the grid edge.
    """
    idx = np.arange(db.shape[1])
    ahead = idx > i_peak[:, None] if step > 0 else idx < i_peak[:, None]
    past = ~(db > -3.0) & ahead
    if step > 0:
        j2 = past.argmax(axis=1)
    else:
        j2 = db.shape[1] - 1 - past[:, ::-1].argmax(axis=1)
    angle = np.full(len(db), theta[-1 if step > 0 else 0])
    rows = np.flatnonzero(past[np.arange(len(db)), j2])
    j2 = j2[rows]
    j = j2 - step
    frac = (-3.0 - db[rows, j]) / (db[rows, j2] - db[rows, j])
    angle[rows] = theta[j] + frac * (theta[j2] - theta[j])
    return angle


def _as_slice(rows: np.ndarray) -> slice | np.ndarray:
    """rows as the equal slice when they are evenly spaced, so that indexing
    with them gives a view rather than a gathered copy; otherwise unchanged."""
    if len(rows) > 1:
        step = int(rows[1] - rows[0])
        if step != 0 and (np.diff(rows) == step).all():
            stop = int(rows[-1]) + step
            return slice(int(rows[0]), stop if stop >= 0 else None, step)
    return rows


def _mirror_rows(sin_theta: np.ndarray, phase_step: np.ndarray):
    """Split the angle rows into those that get their own steering phasors
    and mirror rows, whose phasors are the conjugates of a source row's.

    A row mirrors another when its sin theta is the exact negative of that
    row's and the phase step k0 p sin theta of the source stays nonzero at
    every frequency, since a zero phase has no sign to conjugate. Returns
    (own, mirror, source), the last two paired up, each as a slice when it
    can be one (_as_slice).
    """
    order = np.argsort(sin_theta, kind="stable")
    ascending = sin_theta[order]
    at = np.minimum(np.searchsorted(ascending, -sin_theta), len(ascending) - 1)
    is_mirror = (
        (sin_theta < 0.0)
        & (ascending[at] == -sin_theta)
        & (phase_step.min() * -sin_theta != 0.0)
    )
    mirror = np.flatnonzero(is_mirror)
    own = np.flatnonzero(~is_mirror)
    return _as_slice(own), _as_slice(mirror), _as_slice(order[at[mirror]])


@functools.cache
def _default_grid():
    """theta and sin theta of the default grid, read-only, with the mirror
    split _mirror_rows gives it for a phase step that keeps every nonzero
    row's phase nonzero, and the smallest |sin theta| of a mirror row."""
    theta = default_theta_grid()
    sin_theta = np.sin(np.radians(theta))
    split = _mirror_rows(sin_theta, np.ones(1))
    for a in (theta, sin_theta, *split):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return theta, sin_theta, split, float(-sin_theta[split[1]].max())


def array_factor(
    gamma: complex | np.ndarray,
    p: float,
    n_cells: int,
    f: float | np.ndarray,
    theta_grid: np.ndarray | None = None,
) -> RadiationPattern:
    """Pattern of n_cells isotropic radiators fed by a traveling wave.

    AF(theta) = sum over n of exp(-n gamma p) exp(j n k0 p sin theta),
    normalized so the grid peak sits at 0 dB exactly. gamma and f are one
    value each (floats come back) or 1-D arrays of one length, one
    pattern per frequency (arrays come back).
    """
    freqs = np.asarray(f, dtype=float)
    gammas = np.asarray(gamma, dtype=complex)
    if freqs.ndim > 1 or gammas.shape != freqs.shape:
        raise ValueError(
            f"gamma and f must be scalars or 1-D arrays of one length, got shapes "
            f"{gammas.shape} and {freqs.shape}"
        )
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    if (freqs <= 0.0).any():
        raise ValueError(f"frequency must be positive, got {freqs[freqs <= 0.0].flat[0]}")
    if p <= 0.0:
        raise ValueError(f"period must be positive, got {p}")
    if theta_grid is None:
        theta, sin_theta, split, least_sin = _default_grid()
    else:
        theta = np.asarray(theta_grid, dtype=float)
        if theta.ndim != 1 or len(theta) < 2 or not np.all(np.diff(theta) > 0.0):
            raise ValueError("theta grid must be a strictly increasing 1-D array")
        if not np.isfinite(theta).all():
            raise ValueError("theta grid must be finite")
        sin_theta = np.sin(np.radians(theta))

    with np.errstate(over="ignore"):
        k0 = 2.0 * math.pi * freqs.reshape(-1) / C0
        phase_step = k0 * p
    if not np.isfinite(phase_step).all():
        raise ValueError(f"k0 p must be finite, got {phase_step.max()} at period {p}")
    excitation = np.exp(-np.arange(n_cells) * gammas.reshape(-1, 1) * p)
    # Steering entry exp(j n k0 p sin theta) of angle row theta and cell n.
    # Own rows take one complex exp per n >= 1, mirror rows the conjugate
    # of their source row, and n = 0 is 1. The exp argument is the one the
    # complex product (j k0 p sin theta) n gives: real part zero, imaginary
    # part (k0 p sin theta + 0.0) n, so every entry keeps its bits.
    # the default grid's split holds while no mirror row's phase step rounds to zero
    if theta_grid is None and phase_step.min() * least_sin > 0.0:
        own, mirror, source = split
    else:
        own, mirror, source = _mirror_rows(sin_theta, phase_step)
    sin_own = sin_theta[own]
    n = np.arange(1, n_cells)
    # the F x theta x n_cells steering tensor, _BLOCK frequencies at a time
    block_rows = min(_BLOCK, len(k0))
    steering = np.empty((block_rows, len(theta), n_cells), dtype=complex)
    steering.real[..., 0] = 1.0
    phase = np.zeros((block_rows, len(sin_own), n_cells - 1), dtype=complex)
    phasor = np.empty_like(phase)
    field = np.empty((block_rows, len(theta), 1), dtype=complex)
    db = np.empty((len(k0), len(theta)))
    for lo in range(0, len(k0), _BLOCK):
        hi = min(lo + _BLOCK, len(k0))
        block = steering[: hi - lo]
        # + 0.0 as in the complex product: a zero phase is never negative
        step = phase_step[lo:hi, None] * sin_own + 0.0
        np.multiply(step[..., None], n, out=phase[: hi - lo].imag)
        np.exp(phase[: hi - lo], out=phasor[: hi - lo])
        block[:, own, 1:] = phasor[: hi - lo]
        # exp(j 0) = 1 with the zero imaginary part signed like the phase step
        block.imag[:, own, 0] = step * 0.0
        block[:, mirror] = np.conjugate(block[:, source])
        np.matmul(block, excitation[lo:hi, :, None], out=field[: hi - lo])
        np.abs(field[: hi - lo, :, 0], out=db[lo:hi])
    # magnitude to dB in place: 20 log10(max(|AF|, floor) / peak)
    peak = db.max(axis=1, keepdims=True)
    np.maximum(db, peak * _NULL_FLOOR, out=db)
    db /= peak
    np.log10(db, out=db)
    db *= 20.0
    db -= db.max(axis=1, keepdims=True)
    i_peak = np.argmax(db, axis=1)
    width = _crossing_angles(theta, db, i_peak, +1) - _crossing_angles(theta, db, i_peak, -1)
    main = theta[i_peak]
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


def pattern_for_frequency(
    cell: CrlhUnitCell,
    f: float | np.ndarray,
    n_cells: int,
    theta_grid: np.ndarray | None = None,
    leakage_np_per_cell: float | None = None,
) -> RadiationPattern:
    """Pattern from the Bloch solution of `cell` at f, one frequency or a 1-D array.

    leakage_np_per_cell, when given, replaces the per-cell attenuation:
    the ideal lossless circuit yields alpha = 0 in-band and so cannot show
    the finite leakage of a real radiating aperture. Left as None the
    Bloch alpha is used unchanged.
    """
    beta, alpha = bloch_gamma(cell, f)
    if leakage_np_per_cell is not None:
        if not 0.0 <= leakage_np_per_cell < math.inf:
            raise ValueError(f"leakage must be >= 0 and finite, got {leakage_np_per_cell}")
        alpha = leakage_np_per_cell / cell.period
    gamma = np.empty(np.shape(beta), dtype=complex)
    gamma.real = alpha
    gamma.imag = beta
    return array_factor(gamma, cell.period, n_cells, f, theta_grid)
