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
# Frequencies per slice of _beams (_beam_slice): at most _BEAM_SLICE, so
# that the leaky samples of a median design's three states, about 170, are
# screened in one slice and pay the screen's set-up once; and at most
# _SLICE_ENTRIES / n_cells, so that the slice's frequency x cell
# excitation stays near 1 MB and its screened pairs, steered a block's rows
# at a time, within the block buffer's rows. A multiple of _BLOCK keeps
# every block's shape.
_BEAM_SLICE = 256
_SLICE_ENTRIES = 64_000
# The beam screen (_screen): its margin relative to sum r^n, the half-power
# ratio 10^(-3/20), the limit on N (k0 p + |beta p|) below which the
# screen's and the exact sum's rounding stay far inside that margin (both
# are of order N (k0 p + |beta p|) eps sum r^n), and the denominator below
# which the closed form is taken at its limit.
_SCREEN_MARGIN = 1e-9
_HALF_POWER = 10.0 ** (-3.0 / 20.0)
_SCREEN_PHASE_LIMIT = 1e5
_SCREEN_TINY = 1e-150
# The screen's bounds: the slack, in margins, by which every decision
# clears the margin; the closed-form samples on [0, pi/(N-1)]; the most
# lobe centres 2 pi k a cut is screened around, past which it is screened
# row by row; and the rows added on each side of an undecided band.
_BOUND_SLACK = 4.0
_BOUND_SAMPLES = 16
_MAX_LOBES = 12
_BAND_PAD = 3


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

    One complex exp per n >= 1, and 1 for n = 0, taken in place in out. The
    exp argument is the one the complex product (j k0 p sin theta) n gives:
    real part zero, imaginary part (k0 p sin theta + 0.0) n, so every entry
    keeps its bits. + 0.0 as in that product: a zero phase is never negative.
    """
    step = np.multiply(phase_step, sin_theta)
    step += 0.0
    phase = out[..., 1:]
    phase.real = 0.0
    np.multiply(step[..., None], np.arange(1, out.shape[-1]), out=phase.imag)
    np.exp(phase, out=phase)
    out.real[..., 0] = 1.0
    # exp(j 0) = 1 with the zero imaginary part signed like the phase step
    out.imag[..., 0] = step * 0.0


def _magnitudes(sin_theta, phase_step, excitation, pairs=None) -> np.ndarray:
    """|AF| of each frequency and angle row, as a frequency x angle array;
    given pairs (fi, ri, bounds), only at each (frequency fi, angle row ri)
    pair, the pairs of frequency i being bounds[i]:bounds[i + 1].

    _BLOCK frequencies at a time, one block x angle x cell buffer, reused
    from block to block, is filled with steering entries: every row in
    place, or the block's pairs, copied to their rows. The pairs are
    steered ahead in one call for as many consecutive blocks as fit in one
    block's rows (one call for a whole slice when the screen kept a handful
    of rows a frequency), so the steered pairs take no more memory than
    the block buffer. The block is multiplied by the excitation, and |AF|
    read back from the whole rows or at the pairs. Every block is
    multiplied in its full shape, whichever rows were written: the BLAS
    kernel picked for a product depends on its shape, and with it the
    rounding of a row's sum. Measured with scipy-openblas, a one-row
    product disagreed with the 721-row call in 1,462 of 1,600 values,
    while products of 2 to 33 selected rows matched it in all 139,200;
    that rests on one BLAS build, so no row set is multiplied on its own.
    """
    n_freqs, n_cells = excitation.shape
    steering = np.zeros((min(_BLOCK, n_freqs), len(sin_theta), n_cells), dtype=complex)
    field = np.empty((*steering.shape[:2], 1), dtype=complex)
    if pairs is None:
        magnitude = np.empty((n_freqs, len(sin_theta)))
    else:
        fi, ri, bounds = pairs
        magnitude = np.empty(len(fi))
        # rows[j] holds the steering entries of pair start + j, for the
        # pairs start:end of whole blocks, at most one block's rows of them
        rows = np.empty((min(len(fi), steering[..., 0].size), n_cells), dtype=complex)
        block_ends = bounds[np.r_[_BLOCK:n_freqs:_BLOCK, n_freqs]]
        start = end = 0
    for lo in range(0, n_freqs, _BLOCK):
        hi = min(lo + _BLOCK, n_freqs)
        if pairs is None:
            _steer(phase_step[lo:hi, None], sin_theta, steering[: hi - lo])
            at, out = slice(None), magnitude[lo:hi]
        else:
            if bounds[hi] > end:
                start = bounds[lo]
                end = block_ends[np.searchsorted(block_ends, start + len(rows), "right") - 1]
                _steer(phase_step[fi[start:end]], sin_theta[ri[start:end]], rows[: end - start])
            k = slice(bounds[lo], bounds[hi])
            at, out = (fi[k] - lo, ri[k]), magnitude[k]
            steering[at] = rows[bounds[lo] - start : bounds[hi] - start]
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


def _beside(marked: np.ndarray, link: np.ndarray) -> np.ndarray:
    """The pairs next to a marked pair, link[j] telling whether pairs j and
    j + 1 are neighbouring angle rows of one frequency."""
    out = np.zeros(len(marked), dtype=bool)
    out[1:] = marked[:-1] & link
    out[:-1] |= marked[1:] & link
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


def _series_coefficients(alpha_p, n_cells):
    """The coefficients of _estimate's closed form, a 4 x frequency array:
    4 r^N, (1 - r^N)^2, 4 r and (1 - r)^2 of r = exp(-alpha p)."""
    with np.errstate(all="ignore"):
        r_n_p = n_cells * alpha_p
        return np.array(
            [
                4.0 * np.exp(-r_n_p),
                np.expm1(-r_n_p) ** 2,
                4.0 * np.exp(-alpha_p),
                np.expm1(-alpha_p) ** 2,
            ]
        )


def _estimate(psi, coefficients, n_cells, total):
    """The screen's estimate of |AF| at psi = k0 p sin theta - beta p
    (overwritten): the geometric series in closed form (Balanis, Antenna
    Theory, 3rd ed., sec. 6.3), with r = exp(-alpha p),
    |AF|^2 = ((1 - r^N)^2 + 4 r^N sin^2(N psi/2)) / ((1 - r)^2 + 4 r sin^2(psi/2)).
    The coefficients (_series_coefficients) and total, sum r^n, broadcast
    against psi. Where the denominator vanishes (r and psi within 1e-75 of
    1 and 0, where the quotient is 0/0 or loses its digits to underflow)
    |AF| is its limit sum r^n; a value that is not finite comes back NaN.
    """
    half = psi
    num = np.empty_like(half)
    with np.errstate(all="ignore"):
        # psi/2 reduced to [-pi/2, pi/2] before it is multiplied by N, so
        # that near a grating lobe both sines see one rounded argument
        half *= 0.5
        np.divide(half, math.pi, out=num)
        np.rint(num, out=num)
        num *= math.pi
        half -= num
        np.multiply(half, n_cells, out=num)
        for x, (scale, offset) in ((num, coefficients[:2]), (half, coefficients[2:])):
            _sin_squared(x)
            x *= scale
            x += offset
        den = half
        num /= den
        estimate = np.sqrt(num, out=num)
    estimate = np.where(den > _SCREEN_TINY, estimate, total)
    estimate[~np.isfinite(estimate)] = np.nan
    return estimate


def _radius(x):
    """2 arcsin(sqrt(x)), the d in [0, pi] with sin^2(d/2) = x, pi for x >= 1."""
    return 2.0 * np.arcsin(np.sqrt(np.minimum(x, 1.0)))


def _samples(n_cells):
    """The distances d_j = j pi/(16 (N - 1)), j = 0 .. 16, from a lobe
    centre at which the screen samples the closed form: [0, pi/(N - 1)]."""
    return np.arange(_BOUND_SAMPLES + 1) * (math.pi / max(n_cells - 1, 1) / _BOUND_SAMPLES)


def _radii(alpha_p, n_cells, total, coefficients, low_top, sampled):
    """(peak, above, below): per frequency, the distances d from a lobe
    centre psi = 2 pi k within which a row may be a peak candidate, within
    which it is surely above -3 dB, and beyond which (up to pi) it is
    surely below, for a cut whose top is at least low_top; sampled is the
    closed form at _samples(n_cells), a frequency x sample array; see
    _screen. above <= below, and below is pi where no row is surely below."""
    margin = _SCREEN_MARGIN * total
    slack = _BOUND_SLACK * margin
    n_gaps = max(n_cells - 1, 1)
    samples = _samples(n_cells)
    with np.errstate(all="ignore"):
        # Q = sum of r^(2n+1) over n < N - 1, shaded down past its rounding
        q = np.expm1(-2.0 * n_gaps * alpha_p) / np.expm1(-2.0 * alpha_p)
        q = np.where(np.abs(alpha_p) > 1e-300, q, n_gaps) * coefficients[2] * (0.25 - 0.25e-9)
        level = low_top - 2.0 * margin - slack
        peak = _radius(np.where(level > 0.0, (total - level) * (total + level) / (4.0 * q), np.inf))

        level = (total + 2.0 * margin) * _HALF_POWER * (1.0 + 1e-9) + margin + slack
        above = 2.0 * np.arccos(np.minimum(level / total, 1.0)) / n_gaps
        above = np.maximum(above, np.where(sampled > level[:, None], samples, 0.0).max(axis=1))

        level = (low_top - margin) * _HALF_POWER * (1.0 - 1e-9) - margin - slack
        x = ((1.0 + 0.25 * coefficients[0]) / level) ** 2 - coefficients[3]
        below = np.where(level > 0.0, _radius(x / coefficients[2]), math.pi)
        first_below = np.where(sampled < level[:, None], samples, np.inf).min(axis=1)
        below = np.where(below <= samples[-1], np.minimum(below, first_below), below)
    return peak, np.minimum(above, below), below


def _screen(gammas, p, n_cells, phase_step, sin_theta, total):
    """(fi, ri, bounds): the (frequency fi, angle row ri) pairs _beams
    evaluates exactly, in order, the pairs of frequency i being
    bounds[i]:bounds[i + 1]; total is each frequency's S = sum r^n.

    The rule is the one the closed-form estimate (_estimate) on every row
    gives. It and the exact sum both lie well within the margin
    m = 1e-9 S of the true |AF| while N (k0 p + |beta p|) stays under
    _SCREEN_PHASE_LIMIT. With top the cut's largest estimate, a row is a
    peak candidate within 2m of top, and above or below -3 dB where its
    estimate clears (top +- m) 10^(-3/20) by m. Exact are the peak
    candidates, the rows neither above nor below, the rows beside an above
    row or a peak candidate that are not above themselves, and the
    neighbours of all of those. Past the phase limit, or with an estimate
    that is not finite, every row is exact.

    The estimate is only taken on the rows that closed-form bounds leave
    undecided. With d the distance of psi = k0 p sin theta - beta p from
    its nearest lobe centre 2 pi k, r = exp(-alpha p) and Q the sum of
    r^(2n+1) over n < N - 1 (_radii):
    - peak radius: |AF|^2 <= S^2 - 4 Q sin^2(d/2), and top is at least the
      estimate on the two rows around the lobe centre nearest broadside;
    - surely above: |AF| >= S cos((N - 1) d/2), and, as |AF|^2 is a sum of
      w_k cos(k psi) with every w_k > 0, |AF| does not rise on
      [0, pi/(N - 1)], so every row nearer than a closed-form sample there
      that is surely above is surely above too;
    - surely below: |AF| <= (1 + r^N)/sqrt((1 - r)^2 + 4 r sin^2(d/2)),
      which falls on [0, pi], and every row between a sample that is
      surely below and pi/(N - 1) is surely below too.
    Every decision clears the margin by _BOUND_SLACK margins more, with top
    taken at S above and at that estimate below. The undecided bands (the
    peak radius, and the ring between surely above and surely below) are
    mapped to rows on the sin theta grid and widened by _BAND_PAD rows, so
    that each row left out lies, with its neighbours two rows either side,
    in one decided region: surely below, where no row is exact, or surely
    above and no peak candidate, where no row is exact either. A cut with
    one cell, past the phase limit, with k0 p under _SCREEN_TINY, with more
    than _MAX_LOBES lobe cells meeting the grid, with a bound that is not
    finite or with (1 + r^N)^2 past 1e150 (where an estimate could
    overflow) is taken whole through the same rule.
    """
    n_freqs, n_rows = len(phase_step), len(sin_theta)
    alpha_p = gammas.real * p
    beta_p = gammas.imag * p
    coefficients = _series_coefficients(alpha_p, n_cells)
    two_pi = 2.0 * math.pi
    past_limit = n_cells * (phase_step + np.abs(beta_p)) > _SCREEN_PHASE_LIMIT
    with np.errstate(all="ignore"):
        # the closed form at _samples, and on the two rows around the lobe
        # centre nearest broadside, the larger of which top is at least
        near = sin_theta.searchsorted((beta_p - two_pi * np.rint(beta_p / two_pi)) / phase_step)
        near = np.minimum(np.maximum(near, 1), n_rows - 1)
        psi = np.empty((n_freqs, _BOUND_SAMPLES + 3))
        psi[:, :-2] = _samples(n_cells)
        psi[:, -2:] = phase_step[:, None] * sin_theta[near[:, None] + [-1, 0]]
        psi[:, -2:] -= beta_p[:, None]
        sampled = _estimate(psi, coefficients[:, :, None], n_cells, total[:, None])
        low_top = sampled[:, -2:].max(axis=1)
        peak, above, below = _radii(alpha_p, n_cells, total, coefficients, low_top, sampled[:, :-2])
        # the lobe cells k that meet psi in [-k0 p - beta p, k0 p - beta p], one more each side
        first_lobe = np.rint((-phase_step - beta_p) / two_pi) - 1.0
        n_lobes = np.rint((phase_step - beta_p) / two_pi) + 2.0 - first_lobe
        whole = past_limit | ~(phase_step > _SCREEN_TINY) | ~(n_lobes <= _MAX_LOBES)
        whole |= ~np.isfinite(peak + above + below)
        whole |= ~((1.0 + 0.25 * coefficients[0]) ** 2 < 1e150)
        if n_cells == 1:
            whole[:] = True
        n_lobes[whole] = 0.0
        n_slots = int(n_lobes.max())
        # sin theta of each lobe's bands [-below, -above], [-peak, peak], [above, below]
        lobe = two_pi * (first_lobe[:, None] + np.arange(n_slots)) + beta_p[:, None]
        lobe = (lobe / phase_step[:, None])[:, :, None]
        lower = lobe + (np.array([-below, -peak, above]) / phase_step).T[:, None]
        upper = lobe + (np.array([-above, peak, below]) / phase_step).T[:, None]
    used = (upper >= sin_theta[0]) & (lower <= sin_theta[-1])
    used &= (np.arange(n_slots) < n_lobes[:, None])[:, :, None]
    start = np.maximum(sin_theta.searchsorted(lower, "left") - _BAND_PAD, 0)
    stop = np.minimum(sin_theta.searchsorted(upper, "right") + _BAND_PAD, n_rows)
    start, stop = (np.where(used, x, 0).reshape(n_freqs, -1) for x in (start, stop))
    # with the rows around the centre nearest broadside, or the whole cut,
    # as row intervals on one axis that runs through the cuts in turn
    offset = np.arange(n_freqs)[:, None] * n_rows
    start = np.concatenate([np.where(whole, 0, near - 1)[:, None], start], 1) + offset
    stop = np.concatenate([np.where(whole, n_rows, near + 1)[:, None], stop], 1) + offset
    start, stop = start.ravel(), stop.ravel()
    # the rows each interval adds to those before it, in order
    order = start.argsort()
    start, stop = start[order], stop[order]
    start[1:] = np.maximum(start[1:], np.maximum.accumulate(stop)[:-1])
    length = np.maximum(stop - start, 0)
    rows = np.arange(length.sum()) + (start + length - length.cumsum()).repeat(length)
    # padded to a multiple of 128 pairs with copies of the last one, which
    # no rule links to a row: numpy keeps freed arrays under 1 KB for reuse
    # by exact size, and the per-pair masks, of a size that differs from
    # call to call, filled that cache by 3.7 MB over a `design-gate` run
    n_pairs = len(rows)
    rows = np.concatenate([rows, rows[-1:].repeat(-n_pairs % 128)])
    fi, ri = np.divmod(rows, n_rows)

    psi = phase_step[fi] * sin_theta[ri]
    psi -= beta_p[fi]
    magnitude = _estimate(psi, coefficients[:, fi], n_cells, total[fi])
    bounds = fi.searchsorted(np.arange(n_freqs + 1))
    margin = _SCREEN_MARGIN * total
    # a NaN estimate makes its frequency's top NaN, and then every row of
    # that frequency compares false: neither surely above nor surely below
    top = np.maximum.reduceat(magnitude, bounds[:-1])
    top[past_limit] = np.nan
    peak = magnitude >= (top - 2.0 * margin)[fi]
    above = magnitude > ((top + margin) * _HALF_POWER * (1.0 + 1e-9) + margin)[fi]
    below = magnitude < ((top - margin) * _HALF_POWER * (1.0 - 1e-9) - margin)[fi]
    link = (ri[1:] - ri[:-1] == 1) & (fi[1:] == fi[:-1])
    exact = peak | ~(above | below) | (_beside(above | peak, link) & ~above)
    exact |= _beside(exact, link)
    exact[n_pairs:] = False
    fi, ri = fi[exact], ri[exact]
    return fi, ri, fi.searchsorted(np.arange(n_freqs + 1))


def _beam_slice(n_cells: int) -> int:
    """Frequencies per slice of _beams at n_cells cells: 256 up to 250
    cells, 64 at 1,000."""
    return min(_BEAM_SLICE, _SLICE_ENTRIES // n_cells) // _BLOCK * _BLOCK


def _beams(gamma, p, n_cells, f):
    """array_factor's main_beam_deg and beamwidth_3db_deg, bit for bit,
    from exact |AF| on the few rows that can decide them; see
    beams_for_frequency. The inputs are checked whole; the excitation is
    built, screened and evaluated _beam_slice(n_cells) frequencies at a
    time. Each frequency's result depends on its own gamma and f alone, so
    the samples of several cells that share p and n_cells can be joined in
    one call."""
    freqs, gammas, phase_step = _inputs(gamma, p, n_cells, f)
    theta, sin_theta = _default_grid()
    main, width = np.empty((2, len(phase_step)))
    step = _beam_slice(n_cells)
    for lo in range(0, len(phase_step), step):
        k = slice(lo, lo + step)
        excitation, total = _excitation(gammas[k], p, n_cells)
        fi, ri, bounds = _screen(gammas[k], p, n_cells, phase_step[k], sin_theta, total)
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
    (arrays come back, built and screened up to 256 frequencies at a
    time, fewer past 250 cells, so that the excitation and the screen's
    arrays keep their size);
    leakage_np_per_cell is as for pattern_for_frequency. Only the argmax
    and the two -3 dB crossings of each cut reach the result, so a
    closed-form screen (_screen) picks the rows that can decide them: the
    peak candidates, within twice the margin m = 1e-9 sum r^n of the
    largest estimate; every row the margin leaves undecided against -3 dB;
    the rows beside a surely-above row or a peak candidate; and the
    neighbours of all of those. The screen takes its estimate only on the
    rows that closed-form bounds around each lobe centre psi = 2 pi k leave
    undecided (a peak radius from S^2 - 4 Q sin^2(psi/2); surely above from
    S cos((N - 1) psi/2) and samples on [0, pi/(N - 1)], where |AF| does
    not rise; surely below from (1 + r^N)/|1 - r exp(j psi)|), about 30
    of the 721 rows of a paper-default leaky cut, and every row of a cut
    with one cell, past its phase limit or with many grating lobes. Only
    the picked (frequency, row) pairs are steered, in one call per slice,
    multiplied and taken to dB, with array_factor's own steering, matmul
    and dB steps, and the argmax and crossing walk run over the pairs
    alone. That is exact because the screen's rules always make three rows
    of each cut exact: the argmax row (every row tied with it too), and on
    each side the first row past it that is not above -3 dB, with that
    row's neighbour toward the peak. Every row between the peak and that
    first row is above -3 dB, so the first such pair is that row, and the
    pair before it is its neighbour. A flat cut, such as one cell, has
    every row exact.
    """
    gamma = _gamma_for(cell, f, leakage_np_per_cell)
    return _beams(gamma, cell.period, n_cells, f)
