"""Scalar reference for the array factor in `crlhkit.radiation`.

One frequency at a time, as a direct sum over the cells: one steering
matrix, one product and a -3 dB walk outward from the peak. The tests hold
the closed-form geometric sum of `array_factor` to it within a stated bound.
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


def normalized_magnitude(gamma: complex, p: float, n_cells: int, psi):
    """|AF| over its largest value, the sum of |exp(-n gamma p)|."""
    total = np.abs(np.exp(-np.arange(n_cells) * complex(gamma) * p)).sum()
    return magnitude(gamma, p, n_cells, psi) / total
