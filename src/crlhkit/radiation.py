"""Array-factor synthesis for the cascaded leaky aperture.

Each period radiates as an isotropic element excited by the traveling
Bloch wave, so cell n carries exp(-n gamma p). The far-field sum over the
cells gives the frequency-scanned pattern; beam direction and scan trend
are array-factor dominated, so no element pattern is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import bloch_gamma
from .cell import CrlhUnitCell
from .geometry import C0

DEFAULT_THETA_STEP_DEG = 0.25
DEFAULT_LEAKAGE_NP_PER_CELL = 0.05

# Relative magnitude floor so exact pattern nulls stay finite in dB.
_NULL_FLOOR = 1e-15


def default_theta_grid(step_deg: float = DEFAULT_THETA_STEP_DEG) -> np.ndarray:
    """Symmetric angle grid over [-90, +90] degrees, inclusive."""
    if step_deg <= 0.0:
        raise ValueError(f"step must be positive, got {step_deg}")
    n = round(180.0 / step_deg)
    return np.linspace(-90.0, 90.0, n + 1)


@dataclass(frozen=True)
class RadiationPattern:
    """Normalized pattern cut at one frequency.

    magnitude_db peaks at exactly 0 dB; main_beam_deg is the grid argmax
    and beamwidth_3db_deg the interpolated -3 dB width around it.
    """

    f: float
    theta_deg: np.ndarray
    magnitude_db: np.ndarray
    main_beam_deg: float
    beamwidth_3db_deg: float


def _crossing_angle(theta: np.ndarray, db: np.ndarray, i_peak: int, step: int) -> float:
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


def array_factor(
    gamma: complex,
    p: float,
    n_cells: int,
    f: float,
    theta_grid: np.ndarray | None = None,
) -> RadiationPattern:
    """Pattern of n_cells isotropic radiators fed by a traveling wave.

    AF(theta) = sum over n of exp(-n gamma p) exp(j n k0 p sin theta),
    normalized so the grid peak sits at 0 dB exactly.
    """
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    if f <= 0.0:
        raise ValueError(f"frequency must be positive, got {f}")
    if p <= 0.0:
        raise ValueError(f"period must be positive, got {p}")
    theta = default_theta_grid() if theta_grid is None else np.asarray(theta_grid, dtype=float)
    if theta.ndim != 1 or len(theta) < 2 or not np.all(np.diff(theta) > 0.0):
        raise ValueError("theta grid must be a strictly increasing 1-D array")

    k0 = 2.0 * math.pi * f / C0
    n = np.arange(n_cells)
    excitation = np.exp(-n * complex(gamma) * p)
    steering = np.exp(np.outer(1j * k0 * p * np.sin(np.radians(theta)), n))
    magnitude = np.abs(steering @ excitation)
    peak = magnitude.max()
    db = 20.0 * np.log10(np.maximum(magnitude, peak * _NULL_FLOOR) / peak)
    db = db - db.max()
    i_peak = int(np.argmax(db))
    width = _crossing_angle(theta, db, i_peak, +1) - _crossing_angle(theta, db, i_peak, -1)
    return RadiationPattern(
        f=f,
        theta_deg=theta,
        magnitude_db=db,
        main_beam_deg=float(theta[i_peak]),
        beamwidth_3db_deg=width,
    )


def pattern_for_frequency(
    cell: CrlhUnitCell,
    f: float,
    n_cells: int,
    theta_grid: np.ndarray | None = None,
    leakage_np_per_cell: float | None = None,
) -> RadiationPattern:
    """Pattern from the Bloch solution of `cell` at frequency f.

    leakage_np_per_cell, when given, replaces the per-cell attenuation:
    the ideal lossless circuit yields alpha = 0 in-band and so cannot show
    the finite leakage of a real radiating aperture. Left as None the
    Bloch alpha is used unchanged.
    """
    beta, alpha = bloch_gamma(cell, f)
    if leakage_np_per_cell is not None:
        if leakage_np_per_cell < 0.0:
            raise ValueError(f"leakage must be >= 0, got {leakage_np_per_cell}")
        alpha = leakage_np_per_cell / cell.period
    return array_factor(complex(alpha, beta), cell.period, n_cells, f, theta_grid)
