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
from .geometry import C0, MAX_N_CELLS

# Relative magnitude floor so exact pattern nulls stay finite in dB.
_NULL_FLOOR = 1e-15
# Frequencies per block of the steering tensor. One block buffer of
# _BLOCK x len(theta) x n_cells complex values is reused for every block,
# so transient memory does not grow with the number of frequencies.
_BLOCK = 4
# Frequencies per slice of _beams: its slice x 721-angle arrays stay under
# 0.4 MB each, and as a multiple of _BLOCK it keeps every block's shape.
_BEAM_SLICE = 64
# The beam screen (_screen): its margin relative to sum r^n, the half-power
# ratio 10^(-3/20), the limit on N (k0 p + |beta p|) below which the
# screen's and the exact sum's rounding stay far inside that margin (both
# are of order N (k0 p + |beta p|) eps sum r^n), and the denominator below
# which the closed form is taken at its limit.
_SCREEN_MARGIN = 1e-9
_HALF_POWER = 10.0 ** (-3.0 / 20.0)
_SCREEN_PHASE_LIMIT = 1e5
_SCREEN_TINY = 1e-150


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
        # the largest steering phase; for one cell, 0 * inf is NaN
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


def _excitation(gammas, p, n_cells):
    """(excitation, total): the frequency x cell array exp(-n gamma p) and
    its row sums of |exp(-n gamma p)|, which must be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        excitation = np.exp(-np.arange(n_cells) * gammas[:, None] * p)
        total = np.abs(excitation).sum(axis=1)
    if not np.isfinite(total).all():
        i = np.flatnonzero(~np.isfinite(total))[0]
        raise ValueError(
            f"sum of |exp(-n gamma p)| over {n_cells} cells must be finite, got {total[i]} "
            f"at gamma {gammas[i]} and period {p}"
        )
    return excitation, total


def _steer(phase_step, sin_theta, out: np.ndarray) -> None:
    """Steering entries exp(j n k0 p sin theta) of cells n = 0 .. N-1 into
    out[..., n], for k0 p from phase_step and sin theta from sin_theta,
    broadcast to out.shape[:-1].

    One complex exp per n >= 1, and 1 for n = 0. The exp argument is the
    one the complex product (j k0 p sin theta) n gives: real part zero,
    imaginary part (k0 p sin theta + 0.0) n, so every entry keeps its bits.
    + 0.0 as in that product: a zero phase is never negative.
    """
    step = np.multiply(phase_step, sin_theta)
    step += 0.0
    phase = np.zeros((*out.shape[:-1], out.shape[-1] - 1), dtype=complex)
    np.multiply(step[..., None], np.arange(1, out.shape[-1]), out=phase.imag)
    np.exp(phase, out=out[..., 1:])
    out.real[..., 0] = 1.0
    # exp(j 0) = 1 with the zero imaginary part signed like the phase step
    out.imag[..., 0] = step * 0.0


def _magnitudes(sin_theta, phase_step, excitation, pairs=None) -> np.ndarray:
    """|AF| of each frequency and angle row, as a frequency x angle array;
    given pairs (fi, ri, bounds), only at each (frequency fi, angle row ri)
    pair, the pairs of frequency i being bounds[i]:bounds[i + 1].

    _BLOCK frequencies at a time, one block x angle x cell buffer, reused
    from block to block, is filled with steering entries: every row in
    place, or the block's pairs, steered on their own and written to their
    rows. It is multiplied by the excitation, and |AF| read back from the
    whole rows or at the pairs. Every block is multiplied in its full
    shape, whichever rows were written: the BLAS kernel picked for a
    product depends on its shape, and with it the rounding of a row's sum.
    Measured with scipy-openblas, a one-row product disagreed with the
    721-row call in 1,462 of 1,600 values, while products of 2 to 33
    selected rows matched it in all 139,200; that rests on one BLAS build,
    so no row set is multiplied on its own.
    """
    n_freqs, n_cells = excitation.shape
    steering = np.zeros((min(_BLOCK, n_freqs), len(sin_theta), n_cells), dtype=complex)
    field = np.empty((*steering.shape[:2], 1), dtype=complex)
    if pairs is None:
        magnitude = np.empty((n_freqs, len(sin_theta)))
    else:
        fi, ri, bounds = pairs
        magnitude = np.empty(len(fi))
    for lo in range(0, n_freqs, _BLOCK):
        hi = min(lo + _BLOCK, n_freqs)
        if pairs is None:
            _steer(phase_step[lo:hi, None], sin_theta, steering[: hi - lo])
            at, out = slice(None), magnitude[lo:hi]
        else:
            k = slice(bounds[lo], bounds[hi])
            at, out = (fi[k] - lo, ri[k]), magnitude[k]
            rows = np.empty((len(out), n_cells), dtype=complex)
            _steer(phase_step[fi[k]], sin_theta[ri[k]], rows)
            steering[at] = rows
        np.matmul(steering[: hi - lo], excitation[lo:hi, :, None], out=field[: hi - lo])
        np.abs(field[: hi - lo, :, 0][at], out=out)
    return magnitude


def _crossing_angles(theta_at, db, j2, step, edge) -> np.ndarray:
    """-3 dB crossing of each frequency between sample j2, the first past
    its peak (walking by step) that is not above -3 dB, and its neighbour
    j2 - step toward the peak, linearly interpolated; edge where j2 is out
    of range, the cut never dropping that far."""
    angle = np.full(len(j2), edge)
    hit = np.flatnonzero((j2 >= 0) & (j2 < len(db)))
    j2 = j2[hit]
    j = j2 - step
    frac = (-3.0 - db[j]) / (db[j2] - db[j])
    angle[hit] = theta_at[j] + frac * (theta_at[j2] - theta_at[j])
    return angle


def _db_and_beams(theta_at, magnitude, bounds):
    """(dB, main beam, -3 dB width) of cuts given as runs of samples.

    Frequency i owns samples bounds[i]:bounds[i + 1], at least one, in
    increasing angle; theta_at and magnitude hold each sample's angle and
    |AF|. Each cut goes to dB as 20 log10(max(|AF|, floor) / peak) minus
    its largest value, so that its peak sits at 0 dB exactly; its main
    beam is its first sample at that peak, and its width lies between the
    -3 dB crossings on either side, falling back to -90 and +90 degrees.
    On a whole cut this is the plain argmax and walk outward.
    """
    starts = bounds[:-1]
    counts = np.diff(bounds)
    peak = np.repeat(np.maximum.reduceat(magnitude, starts), counts)
    db = np.maximum(magnitude, peak * _NULL_FLOOR)
    db /= peak
    np.log10(db, out=db)
    db *= 20.0
    top = np.repeat(np.maximum.reduceat(db, starts), counts)
    idx = np.arange(len(db))
    i_peak = np.minimum.reduceat(np.where(db == top, idx, len(db)), starts)
    db -= top
    past = ~(db > -3.0)
    own_peak = np.repeat(i_peak, counts)
    right = np.minimum.reduceat(np.where(past & (idx > own_peak), idx, len(db)), starts)
    left = np.maximum.reduceat(np.where(past & (idx < own_peak), idx, -1), starts)
    upper = _crossing_angles(theta_at, db, right, +1, 90.0)
    width = upper - _crossing_angles(theta_at, db, left, -1, -90.0)
    return db, theta_at[i_peak], width


def array_factor(
    gamma: complex | np.ndarray, p: float, n_cells: int, f: float | np.ndarray
) -> RadiationPattern:
    """Pattern of n_cells isotropic radiators fed by a traveling wave.

    AF(theta) = sum over n of exp(-n gamma p) exp(j n k0 p sin theta),
    normalized so the grid peak sits at 0 dB exactly. gamma and f are one
    value each (floats come back) or 1-D arrays of one length, one
    pattern per frequency (arrays come back).
    """
    freqs, gammas, phase_step = _inputs(gamma, p, n_cells, f)
    theta, sin_theta = _default_grid()
    magnitude = _magnitudes(sin_theta, phase_step, _excitation(gammas, p, n_cells)[0])
    db, main, width = _db_and_beams(
        np.tile(theta, len(phase_step)),
        magnitude.reshape(-1),
        np.arange(0, magnitude.size + 1, len(theta)),
    )
    db = db.reshape(magnitude.shape)
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


def _sin_squared(x: np.ndarray) -> np.ndarray:
    """sin^2 x in place, as 1 / (1 + 1 / tan^2 x): numpy's float64 tan is
    vectorized here and its sin is not (about 2 against 13 ns a value).
    tan x = 0 gives 1 / inf = 0, and near pi/2 1 / tan^2 x vanishes
    against 1."""
    with np.errstate(divide="ignore"):
        np.tan(x, out=x)
        x *= x
        np.reciprocal(x, out=x)
        x += 1.0
        np.reciprocal(x, out=x)
    return x


def _screen(gammas, p, n_cells, phase_step, sin_theta, total):
    """Frequency x angle mask of the rows _beams evaluates exactly, total
    being each frequency's sum of |exp(-n gamma p)|.

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
            _sin_squared(x)
            x *= 4.0 * np.exp(-r_p)
            x += np.expm1(-r_p) ** 2
        den = half
        num /= den
        estimate = np.sqrt(num, out=num)
    total = total[:, None]
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
    return exact


def _beams(gamma, p, n_cells, f):
    """array_factor's main_beam_deg and beamwidth_3db_deg, bit for bit,
    from exact |AF| on the few rows that can decide them; see
    beams_for_frequency. The inputs are checked whole; the excitation is
    built, screened and evaluated _BEAM_SLICE frequencies at a time."""
    freqs, gammas, phase_step = _inputs(gamma, p, n_cells, f)
    theta, sin_theta = _default_grid()
    main, width = np.empty((2, len(phase_step)))
    for lo in range(0, len(phase_step), _BEAM_SLICE):
        k = slice(lo, lo + _BEAM_SLICE)
        excitation, total = _excitation(gammas[k], p, n_cells)
        exact = _screen(gammas[k], p, n_cells, phase_step[k], sin_theta, total)
        fi, ri = np.divmod(np.flatnonzero(exact), exact.shape[1])
        bounds = np.searchsorted(fi, np.arange(len(exact) + 1))
        magnitude = _magnitudes(sin_theta, phase_step[k], excitation, (fi, ri, bounds))
        _, main[k], width[k] = _db_and_beams(theta[ri], magnitude, bounds)
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
    leakage_np_per_cell: float | None = None,
) -> RadiationPattern:
    """Pattern from the Bloch solution of `cell` at f, one frequency or a 1-D array.

    leakage_np_per_cell, when given, replaces the per-cell attenuation:
    the ideal lossless circuit yields alpha = 0 in-band and so cannot show
    the finite leakage of a real radiating aperture. Left as None the
    Bloch alpha is used unchanged.
    """
    gamma = _gamma_for(cell, f, leakage_np_per_cell)
    return array_factor(gamma, cell.period, n_cells, f)


def beams_for_frequency(
    cell: CrlhUnitCell,
    f: float | np.ndarray,
    n_cells: int,
    leakage_np_per_cell: float | None = None,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(main_beam_deg, beamwidth_3db_deg) of pattern_for_frequency, bit
    for bit, without building the whole pattern.

    f is one frequency (floats come back) or a 1-D array of any length
    (arrays come back, built and screened _BEAM_SLICE frequencies at a time
    so that the excitation and the frequency x angle arrays keep their
    size); leakage_np_per_cell is as
    for pattern_for_frequency. Only the argmax and the two -3 dB crossings
    of each cut reach the result, so a closed-form screen (_screen) picks
    the rows that can decide them: the peak candidates, within twice the
    margin m = 1e-9 sum r^n of the largest estimate; every row the margin
    leaves undecided against -3 dB; the rows beside a surely-above row or a
    peak candidate; and the neighbours of all of those. Only those
    (frequency, row) pairs are steered, multiplied and taken to dB, with
    array_factor's own steering, matmul and dB steps, and the argmax and
    crossing walk run over the pairs alone. That is exact because the
    screen's rules always make three rows of each cut exact: the argmax row
    (every row tied with it too), and on each side the first row past it
    that is not above -3 dB, with that row's neighbour toward the peak.
    Every row between the peak and that first row is above -3 dB, so the
    first such pair is that row, and the pair before it is its neighbour. A
    flat cut, such as one cell, has every row exact.
    """
    gamma = _gamma_for(cell, f, leakage_np_per_cell)
    return _beams(gamma, cell.period, n_cells, f)
