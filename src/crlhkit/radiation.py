"""Array-factor synthesis for the cascaded leaky aperture.

Each period radiates as an isotropic element excited by the traveling
Bloch wave, so cell n carries exp(-n gamma p). The far-field sum over the
cells gives the frequency-scanned pattern; beam direction and scan trend
are array-factor dominated, so no element pattern is applied.
"""

from __future__ import annotations

import functools
import itertools
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
# The beam screen (_screen): its margin relative to sum r^n, the half-power
# ratio 10^(-3/20), the limit on N (k0 p + |beta p|) below which the
# screen's and the exact sum's rounding stay far inside that margin (both
# are of order N (k0 p + |beta p|) eps sum r^n), the denominator below
# which the closed form is taken at its limit, and the dB value that
# stands in for a row surely above -3 dB.
_SCREEN_MARGIN = 1e-9
_HALF_POWER = 10.0 ** (-3.0 / 20.0)
_SCREEN_PHASE_LIMIT = 1e5
_SCREEN_TINY = 1e-150
_ABOVE_DB = -1.5


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


@functools.cache
def _default_grid():
    """theta and sin theta of the default grid, read-only."""
    theta = default_theta_grid()
    sin_theta = np.sin(np.radians(theta))
    theta.flags.writeable = False
    sin_theta.flags.writeable = False
    return theta, sin_theta


def _inputs(gamma, p, n_cells, f, theta_grid):
    """Validated inputs of array_factor and the arrays every evaluation of
    them shares: (freqs, gammas, theta, sin_theta, phase_step, excitation).
    phase_step is k0 p of each frequency and excitation the frequency x
    cell array exp(-n gamma p)."""
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
        theta, sin_theta = _default_grid()
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
    return freqs, gammas, theta, sin_theta, phase_step, excitation


def _magnitudes(sin_theta, phase_step, excitation, block_rows) -> np.ndarray:
    """|AF| of each frequency and angle row, as a frequency x angle array.

    The frequency x angle x cell steering tensor is built _BLOCK
    frequencies at a time in one reused buffer. block_rows gives, for each
    block in turn, the angle rows to steer, as a slice or an index array.
    A row left out keeps the finite values the buffer already holds, so
    its |AF| means nothing, but it still goes through the matmul: the BLAS
    kernel rounds a row's sum differently depending on where the row sits
    in the call, so every block keeps its full shape.
    """
    n_cells = excitation.shape[1]
    n = np.arange(1, n_cells)
    block_size = min(_BLOCK, len(phase_step))
    steering = np.zeros((block_size, len(sin_theta), n_cells), dtype=complex)
    steering.real[..., 0] = 1.0
    # the phases and phasors of a block's steered rows, sliced from buffers
    # with room for every row
    phase = np.zeros((block_size, len(sin_theta), n_cells - 1), dtype=complex)
    phasor = np.empty_like(phase)
    field = np.empty((block_size, len(sin_theta), 1), dtype=complex)
    magnitude = np.empty((len(phase_step), len(sin_theta)))
    for lo, rows in zip(range(0, len(phase_step), _BLOCK), block_rows):
        hi = min(lo + _BLOCK, len(phase_step))
        block = steering[: hi - lo]
        # Steering entry exp(j n k0 p sin theta) of angle row theta and cell
        # n: one complex exp per n >= 1, and 1 for n = 0. The exp argument
        # is the one the complex product (j k0 p sin theta) n gives: real
        # part zero, imaginary part (k0 p sin theta + 0.0) n, so every entry
        # keeps its bits. + 0.0 as in that product: a zero phase is never
        # negative.
        step = phase_step[lo:hi, None] * sin_theta[rows] + 0.0
        row_phase = phase[: hi - lo, : step.shape[1]]
        row_phasor = phasor[: hi - lo, : step.shape[1]]
        np.multiply(step[..., None], n, out=row_phase.imag)
        np.exp(row_phase, out=row_phasor)
        block[:, rows, 1:] = row_phasor
        # exp(j 0) = 1 with the zero imaginary part signed like the phase step
        block.imag[:, rows, 0] = step * 0.0
        np.matmul(block, excitation[lo:hi, :, None], out=field[: hi - lo])
        np.abs(field[: hi - lo, :, 0], out=magnitude[lo:hi])
    return magnitude


def _to_db(magnitude: np.ndarray) -> np.ndarray:
    """Each row of |AF| to dB in place, 20 log10(max(|AF|, floor) / peak),
    so that its peak sits at 0 dB exactly."""
    peak = magnitude.max(axis=1, keepdims=True)
    np.maximum(magnitude, peak * _NULL_FLOOR, out=magnitude)
    magnitude /= peak
    np.log10(magnitude, out=magnitude)
    magnitude *= 20.0
    magnitude -= magnitude.max(axis=1, keepdims=True)
    return magnitude


def _beam_angles(theta: np.ndarray, db: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(main beam, -3 dB beamwidth) of each row of db: the grid argmax and
    the width between the crossings on either side of it."""
    i_peak = np.argmax(db, axis=1)
    width = _crossing_angles(theta, db, i_peak, +1) - _crossing_angles(theta, db, i_peak, -1)
    return theta[i_peak], width


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
    freqs, _, theta, sin_theta, phase_step, excitation = _inputs(gamma, p, n_cells, f, theta_grid)
    db = _to_db(_magnitudes(sin_theta, phase_step, excitation, itertools.repeat(slice(None))))
    main, width = _beam_angles(theta, db)
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


def _beside(rows: np.ndarray) -> np.ndarray:
    """The angle rows next to a marked row of the same frequency."""
    out = np.zeros_like(rows)
    out[:, 1:] = rows[:, :-1]
    out[:, :-1] |= rows[:, 1:]
    return out


def _screen(gammas, p, n_cells, phase_step, sin_theta, excitation):
    """(exact, above): frequency x angle masks of the rows _beams evaluates
    exactly and of the rows whose |AF| is surely above -3 dB.

    The estimate is the geometric series in closed form (Balanis, Antenna
    Theory, 3rd ed., sec. 6.3): with r = exp(-alpha p) and psi = k0 p sin
    theta - beta p,
    |AF|^2 = ((1 - r^N)^2 + 4 r^N sin^2(N psi/2)) / ((1 - r)^2 + 4 r sin^2(psi/2)).
    It and the exact sum both lie well within the margin m = 1e-9 sum r^n
    of the true |AF|, while N (k0 p + |beta p|) stays under
    _SCREEN_PHASE_LIMIT. A frequency past that limit, or with an estimate
    that overflows, has every row evaluated exactly.
    """
    alpha_p = gammas.real[:, None] * p
    beta_p = gammas.imag[:, None] * p
    # two frequency x angle buffers, each op in place: with a fresh array
    # for each step, `reproduce` peaked about 0.5 MB higher
    half = np.multiply(phase_step[:, None], sin_theta)
    num = np.empty_like(half)
    with np.errstate(all="ignore"):
        # psi/2 reduced to [-pi/2, pi/2] before it is multiplied by N, so
        # that near a grating lobe both sines see one rounded argument
        half -= beta_p
        half *= 0.5
        np.divide(half, math.pi, out=num)
        np.rint(num, out=num)
        num *= math.pi
        half -= num
        np.multiply(half, n_cells, out=num)
        for x, r_p in ((num, n_cells * alpha_p), (half, alpha_p)):
            np.sin(x, out=x)
            x *= x
            x *= 4.0 * np.exp(-r_p)
            x += np.expm1(-r_p) ** 2
        den = half
        num /= den
        estimate = np.sqrt(num, out=num)
    total = np.abs(excitation).sum(axis=1, keepdims=True)
    # a vanishing denominator (r and psi within 1e-75 of 1 and 0, where the
    # quotient is 0/0 or loses its digits to underflow) has |AF| = sum r^n
    np.copyto(estimate, total, where=~(den > _SCREEN_TINY))
    estimate[~np.isfinite(estimate)] = np.nan
    margin = _SCREEN_MARGIN * total
    # a NaN estimate makes its frequency's top NaN, and then every row of
    # that frequency compares false: neither surely above nor surely below
    top = estimate.max(axis=1, keepdims=True)
    top[n_cells * (phase_step[:, None] + np.abs(beta_p)) > _SCREEN_PHASE_LIMIT] = np.nan
    peak = estimate >= top - 2.0 * margin
    above = estimate > (top + margin) * _HALF_POWER * (1.0 + 1e-9) + margin
    below = estimate < (top - margin) * _HALF_POWER * (1.0 - 1e-9) - margin
    exact = peak | ~(above | below) | (_beside(above | peak) & ~above)
    exact |= _beside(exact)
    return exact, above


def _beams(gamma, p, n_cells, f):
    """array_factor's main_beam_deg and beamwidth_3db_deg on the default
    grid, bit for bit, from exact |AF| on the few rows that can decide
    them; see beams_for_frequency."""
    freqs, gammas, theta, sin_theta, phase_step, excitation = _inputs(gamma, p, n_cells, f, None)
    exact, above = _screen(gammas.reshape(-1), p, n_cells, phase_step, sin_theta, excitation)
    # the rows any frequency of a block needs
    block_rows = (
        np.flatnonzero(exact[lo : lo + _BLOCK].any(axis=0))
        for lo in range(0, len(phase_step), _BLOCK)
    )
    magnitude = _magnitudes(sin_theta, phase_step, excitation, block_rows)
    stand_in = ~exact
    magnitude[stand_in] = 0.0
    db = _to_db(magnitude)
    db[stand_in] = -np.inf
    db[stand_in & above] = _ABOVE_DB
    main, width = _beam_angles(theta, db)
    if freqs.ndim == 0:
        return float(main[0]), float(width[0])
    return main, width


def _gamma_for(cell: CrlhUnitCell, f, leakage_np_per_cell: float | None):
    """gamma = alpha + j beta of cell at f, the alpha replaced by the
    per-cell leakage when one is given."""
    beta, alpha = bloch_gamma(cell, f)
    if leakage_np_per_cell is not None:
        if not 0.0 <= leakage_np_per_cell < math.inf:
            raise ValueError(f"leakage must be >= 0 and finite, got {leakage_np_per_cell}")
        alpha = leakage_np_per_cell / cell.period
    gamma = np.empty(np.shape(beta), dtype=complex)
    gamma.real = alpha
    gamma.imag = beta
    return gamma


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
    gamma = _gamma_for(cell, f, leakage_np_per_cell)
    return array_factor(gamma, cell.period, n_cells, f, theta_grid)


def beams_for_frequency(
    cell: CrlhUnitCell,
    f: float | np.ndarray,
    n_cells: int,
    leakage_np_per_cell: float | None = None,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(main_beam_deg, beamwidth_3db_deg) of pattern_for_frequency on the
    default grid, bit for bit, without building the whole pattern.

    f is one frequency (floats come back) or a 1-D array (arrays come
    back); leakage_np_per_cell is as for pattern_for_frequency. Only the
    argmax and the two -3 dB crossings of each cut reach the result, so a
    closed-form screen (_screen) picks the rows that can decide them: the
    peak candidates, within twice the margin m = 1e-9 sum r^n of the
    largest estimate; every row the margin leaves undecided against -3 dB;
    the rows beside a surely-above row or a peak candidate; and the
    neighbours of all of those. Only those rows get exact |AF|, computed by
    array_factor's own steering, matmul and dB steps; the others stand in
    as a value between -3 and 0 dB when surely above, -inf otherwise, and
    the same argmax and crossing walk then run. The matmul keeps its full
    block shape, with the rows left out holding stale finite values,
    because the BLAS kernel rounds a row differently depending on where it
    sits in the call. A flat cut, such as one cell, has every row exact.
    """
    gamma = _gamma_for(cell, f, leakage_np_per_cell)
    return _beams(gamma, cell.period, n_cells, f)
