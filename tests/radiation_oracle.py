"""Scalar reference for the array factor in `crlhkit.radiation`.

One frequency at a time, the way the toolkit computed every pattern before
`array_factor` took frequency arrays: one steering matrix, one product and
a -3 dB walk outward from the peak. The tests hold the batched code to it
digit for digit.

`screen_mask` is the beam screen's dense form: the closed-form estimate on
every row of every cut, and the rule that picks the rows `_beams`
evaluates exactly. The tests hold the screen, which estimates only the
rows its bounds leave undecided, to it pair for pair.
"""

import math

import numpy as np

from crlhkit.geometry import C0

NULL_FLOOR = 1e-15


def crossing_angle(theta, db, i_peak: int, step: int) -> float:
    """First -3 dB crossing walking from the peak in one direction.

    Falls back to the grid edge when the pattern never drops that far.
    """
    j = i_peak
    while 0 <= j + step < len(db) and db[j + step] > -3.0:
        j += step
    if not 0 <= j + step < len(db):
        return float(theta[-1 if step > 0 else 0])
    j2 = j + step
    frac = (-3.0 - db[j]) / (db[j2] - db[j])
    return float(theta[j] + frac * (theta[j2] - theta[j]))


def array_factor(gamma: complex, p: float, n_cells: int, f: float, theta):
    """(magnitude_db, main_beam_deg, beamwidth_3db_deg) at one frequency."""
    k0 = 2.0 * math.pi * f / C0
    n = np.arange(n_cells)
    excitation = np.exp(-n * complex(gamma) * p)
    steering = np.exp(np.outer(1j * k0 * p * np.sin(np.radians(theta)), n))
    magnitude = np.abs(steering @ excitation)
    peak = magnitude.max()
    db = 20.0 * np.log10(np.maximum(magnitude, peak * NULL_FLOOR) / peak)
    db = db - db.max()
    i_peak = int(np.argmax(db))
    width = crossing_angle(theta, db, i_peak, +1) - crossing_angle(theta, db, i_peak, -1)
    return db, float(theta[i_peak]), width


def magnitude(gamma: complex, p: float, n_cells: int, psi):
    """Exact |AF| = |sum over n of exp(-n gamma p) exp(j n psi)| at each
    inter-cell phase psi = k0 p sin theta."""
    n = np.arange(n_cells)
    excitation = np.exp(-n * complex(gamma) * p)
    return np.abs(np.exp(1j * np.outer(np.asarray(psi, dtype=float), n)) @ excitation)


SCREEN_MARGIN = 1e-9
HALF_POWER = 10.0 ** (-3.0 / 20.0)
SCREEN_PHASE_LIMIT = 1e5
SCREEN_TINY = 1e-150


def _beside(rows: np.ndarray) -> np.ndarray:
    """The angle rows next to a marked row of the same frequency."""
    out = np.zeros_like(rows)
    out[:, 1:] = rows[:, :-1]
    out[:, :-1] |= rows[:, 1:]
    return out


def _sin_squared(x: np.ndarray) -> np.ndarray:
    """sin^2 x in place, as 1 / (1 + 1 / tan^2 x)."""
    with np.errstate(divide="ignore"):
        np.tan(x, out=x)
        x *= x
        np.reciprocal(x, out=x)
        x += 1.0
        np.reciprocal(x, out=x)
    return x


def screen_mask(gammas, p, n_cells, phase_step, sin_theta, total):
    """Frequency x angle mask of the rows _beams evaluates exactly, total
    being each frequency's sum of |exp(-n gamma p)|: the closed-form
    estimate taken on every row, with the screen's margin, half-power and
    phase-limit rule."""
    alpha_p = gammas.real[:, None] * p
    beta_p = gammas.imag[:, None] * p
    half = np.multiply(phase_step[:, None], sin_theta)
    num = np.empty_like(half)
    with np.errstate(all="ignore"):
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
    np.copyto(estimate, total, where=~(den > SCREEN_TINY))
    estimate[~np.isfinite(estimate)] = np.nan
    margin = SCREEN_MARGIN * total
    top = estimate.max(axis=1, keepdims=True)
    top[n_cells * (phase_step[:, None] + np.abs(beta_p)) > SCREEN_PHASE_LIMIT] = np.nan
    peak = estimate >= top - 2.0 * margin
    above = estimate > (top + margin) * HALF_POWER * (1.0 + 1e-9) + margin
    below = estimate < (top - margin) * HALF_POWER * (1.0 - 1e-9) - margin
    exact = peak | ~(above | below) | (_beside(above | peak) & ~above)
    exact |= _beside(exact)
    return exact
