"""Scalar reference for the array factor in `crlhkit.radiation`.

One frequency at a time, the way the toolkit computed every pattern before
`array_factor` took frequency arrays: one steering matrix, one product and
a -3 dB walk outward from the peak. The tests hold the batched code to it
digit for digit.
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
