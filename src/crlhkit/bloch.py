"""Bloch analysis of the periodically loaded line.

One cell is a symmetric T network; the per-cell complex propagation
constant gamma = alpha + j beta solves cosh(gamma p) = (A + D)/2. Branch
selection follows the forward-power convention: the principal arccosh
already gives the decaying root (alpha >= 0), and where the Bloch
impedance has a meaningful real part its sign fixes beta so power flows in
+z. That makes beta negative in the left-handed pass band and positive in
the right-handed one, rising through zero at the transition frequency.

Every sample goes through one numpy kernel (_chain, then _gamma, then
classify) over a 2-D array with one row per cell and one column per
frequency: each cell's elements and period are (rows, 1) columns that
broadcast against the frequencies. _columns takes a design's cells on its
shared grid, then each row at its own few points after it (the gap
midpoint and f_sh, then in `reproduce` the trace frequencies), in blocks
of columns. solve() takes every switch state of a design through one
_columns call and keeps, per state, each result or the error that stopped
it; selfcheck.run_all adds each state's detuned control as a row and the
trace frequencies as columns through the same _solve, so at the default
grid a `reproduce` is one kernel pass. bloch_gamma, dispersion_sweep and
transition_frequency are one-row calls of the same kernel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from .cell import CrlhUnitCell, resonances
from .errors import BracketError, CrlhError, PoleError
from .geometry import C0, MAX_N_POINTS

if TYPE_CHECKING:
    from .config import RunConfig

DEFAULT_F_START = 7.5e9
DEFAULT_F_STOP = 12.0e9
DEFAULT_N_POINTS = 451
# Samples (cells x columns) per block of the kernel. A design's rows take
# their columns together in blocks of at most this many samples, so the
# complex temporaries grow with the block, not the grid, and a solve peaks
# at its results plus one block. At the default grid every row of
# `reproduce` fits one block of 6 x 473 samples: three states and their
# three detuned controls, each on the 451-point grid, the gap midpoint,
# f_sh and 20 trace frequencies. A 15,001-point `sweep` takes three blocks.
_SWEEP_BLOCK = 16384

# What a design the parser accepts can raise on its way through the model:
# its errors, a value out of a function's domain, and an overflow. solve()
# keeps such an error in the slot it stops; anything else propagates.
_FAILURES = (CrlhError, ValueError, ArithmeticError)

# Attenuation floor separating numerical residue from a real stop band.
_EVANESCENT_ALPHA_NP_PER_M = 1e-6
# |sinh(gamma p)| below this means the Bloch impedance b / sinh(gamma p) is
# indeterminate; _gamma forms sinh(gamma p) as sqrt(a - 1) sqrt(a + 1).
_DEGENERATE_SINH = 1e-12
# Band-edge match tolerance on |beta p| against 0 and pi.
_EDGE_TOL = 1e-9
# Phase-pinning tolerance for stop-band classification.
_BAND_EDGE_PIN = 1e-6


class Region(enum.Enum):
    """Where a dispersion sample sits relative to radiation and band gaps."""

    LEFT_HANDED_LEAKY = "left-handed-leaky"
    RIGHT_HANDED_LEAKY = "right-handed-leaky"
    GUIDED_SLOW_WAVE = "guided-slow-wave"
    EVANESCENT = "evanescent"


# DispersionSweep.region and classify() give each region as its index here.
REGIONS = tuple(Region)
_LH, _RH, _SLOW, _EVANESCENT = range(len(REGIONS))


@dataclass(frozen=True)
class DispersionSweep:
    """Classified Bloch samples on a frequency grid, one read-only column each.

    region holds indices into REGIONS. leaky marks the fast-wave samples,
    and scan_deg is their beam angle asin(beta/k0) in degrees, NaN on every
    other sample.
    """

    f: np.ndarray         # [Hz]
    beta: np.ndarray      # [rad/m]
    alpha: np.ndarray     # [Np/m]
    k0: np.ndarray        # [rad/m]
    region: np.ndarray    # int8 index into REGIONS
    leaky: np.ndarray     # bool
    scan_deg: np.ndarray  # [deg]

    def __post_init__(self):
        for column in vars(self).values():
            column.flags.writeable = False

    def scan_profile(self) -> list[tuple[float, float]]:
        """(f, scan angle) of each leaky sample, in grid order."""
        return list(zip(self.f[self.leaky].tolist(), self.scan_deg[self.leaky].tolist()))


def _k0(f):
    """Free-space wavenumber 2 pi f / c0 [rad/m]."""
    return 2.0 * math.pi * f / C0


def _cell_values(cells: list[CrlhUnitCell]) -> np.ndarray:
    """(l_r, c_r, l_l, c_l, r_series, period) of the cells, each a (rows, 1)
    column that broadcasts against a (rows, columns) block of frequencies."""
    values = [[c.l_r, c.c_r, c.l_l, c.c_l, c.r_series, c.period] for c in cells]
    return np.array(values).T[:, :, None]


def _chain(values: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, ...]:
    """Chain-matrix entries a (= d), b and c of symmetric-T cells at f, and
    the mask of the samples where an entry overflows.

    values are the cells' columns of _cell_values, and f holds one row of
    frequencies per cell or one row that every cell shares. Half the series
    branch z = r + j(w L_R - 1/(w C_L)), the full shunt tank
    y = j(w C_R - 1/(w L_L)), then the other half; the cascade collapses to
    a = d = 1 + zy/2, b = z + z^2 y/4, c = y. With positive elements a
    non-finite entry is float overflow, not a real pole: the shunt
    resonance of this topology is an admittance zero. Callers silence
    numpy's floating-point warnings and judge the mask.
    """
    l_r, c_r, l_l, c_l, r_series = values[:5]
    w = 2.0 * math.pi * f
    shape = np.broadcast_shapes(w.shape, l_r.shape)
    z = np.empty(shape, dtype=complex)
    z.real = r_series
    z.imag = w * l_r - 1.0 / (w * c_l)
    y = np.empty(shape, dtype=complex)
    y.real = 0.0
    y.imag = w * c_r - 1.0 / (w * l_l)
    zh = 0.5 * z
    a = 1.0 + zh * y
    b = z + zh * zh * y
    overflow = ~(np.isfinite(a) & np.isfinite(b) & np.isfinite(y))
    return a, b, y, overflow


def _gamma(a: np.ndarray, b: np.ndarray, p) -> tuple[np.ndarray, np.ndarray]:
    """(beta, alpha) from the chain entries a and b; see bloch_gamma."""
    # principal arccosh in the form of CPython's cmath.acosh (Kahan's
    # sqrt(a - 1), sqrt(a + 1) split), so that a lossless pass band gets
    # alpha of exactly 0 and digits match a scalar cmath evaluation
    s1 = np.sqrt(a - 1.0)
    s2 = np.sqrt(a + 1.0)
    gp = np.empty(a.shape, dtype=complex)
    gp.real = np.arcsinh(s1.real * s2.real + s1.imag * s2.imag)
    gp.imag = 2.0 * np.arctan2(s1.imag, s2.real)
    # sinh(gamma p) of the principal root: sinh(acosh a) = sqrt(a - 1) sqrt(a + 1)
    s = s1 * s2
    z_bloch = b / s
    forward = (np.abs(s) > _DEGENERATE_SINH) & (np.abs(z_bloch.real) > 1e-9 * np.abs(z_bloch))
    gp = np.where(forward & (z_bloch.real < 0.0), -gp, gp)
    edge = ~forward & (np.abs(np.abs(gp.imag) - math.pi) < _EDGE_TOL) & (b.imag != 0.0)
    beta_p = np.where(edge, -np.copysign(math.pi, b.imag), gp.imag)
    # + 0.0 collapses a signed zero from the flip
    alpha = np.where(forward, gp.real / p + 0.0, np.abs(gp.real) / p)
    return beta_p / p, alpha


def _kernel(values: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(beta, alpha) of the cells of values at f, as _chain takes them, and
    the mask of the samples that fail: a frequency that is not positive
    and finite, or chain entries that overflow."""
    with np.errstate(all="ignore"):
        a, b, y, overflow = _chain(values, f)
        del y  # _gamma reads a and b only, so its temporaries may take y's memory
        beta, alpha = _gamma(a, b, values[5])
    return beta, alpha, overflow | ~((f > 0.0) & (f < math.inf))


def _failure(f: float) -> Exception:
    """The error of the first sample at f that the kernel could not solve."""
    if 0.0 < f < math.inf:
        return PoleError(f, "chain-matrix entries overflow")
    return ValueError(f"frequency must be positive and finite, got {f}")


def bloch_gamma(cell: CrlhUnitCell, f):
    """Per-cell propagation constant (beta [rad/m], alpha [Np/m]) at f.

    f is one frequency (floats come back) or a 1-D array (arrays come
    back). Solves cosh(gamma p) = (a + d)/2 on the principal branch
    (alpha >= 0, |beta p| <= pi). When the Bloch impedance b/sinh(gamma p)
    has a significant real part, its sign selects the forward-power root.
    In lossless stop bands the impedance is purely reactive and beta p is
    pinned at 0 or pi; the pi-edge sign is taken opposite to the series
    reactance so swept curves continue the adjacent pass band instead of
    jumping between +pi and -pi. Raises ValueError for a frequency that is
    not positive and finite, and PoleError at the first frequency whose
    chain matrix overflows.
    """
    freqs = np.asarray(f, dtype=float)
    row = freqs.reshape(1, -1)
    beta, alpha, bad = _kernel(_cell_values([cell]), row)
    if bad.any():
        invalid = ~((row > 0.0) & (row < math.inf))
        raise _failure(float(row[invalid if invalid.any() else bad][0]))
    if freqs.ndim == 0:
        return float(beta[0, 0]), float(alpha[0, 0])
    return beta[0], alpha[0]


def classify(beta, alpha, k0, period) -> np.ndarray:
    """Region of each (beta, alpha) sample, as indices into REGIONS.

    A sample is evanescent when it attenuates with its phase pinned at a
    band edge (beta p of 0 or +-pi, exact for the lossless topology);
    otherwise fast waves (|beta| < k0) leak and slow waves are guided.
    period is one cell period, or a (rows, 1) column of one per row [m].
    """
    beta_p = np.abs(beta) * period
    pinned = (alpha > _EVANESCENT_ALPHA_NP_PER_M) & (
        (beta_p < _BAND_EDGE_PIN) | (np.abs(beta_p - math.pi) < _BAND_EDGE_PIN)
    )
    leaky = np.where(beta < 0.0, _LH, _RH)
    return np.where(pinned, _EVANESCENT, np.where(np.abs(beta) < k0, leaky, _SLOW)).astype(np.int8)


def _scan_deg(beta, k0):
    """asin(beta/k0) in degrees; NaN where |beta| > k0."""
    with np.errstate(invalid="ignore"):
        return np.degrees(np.arcsin(beta / k0))


def dispersion_sweep(
    cell: CrlhUnitCell,
    f_start: float = DEFAULT_F_START,
    f_stop: float = DEFAULT_F_STOP,
    n_points: int = DEFAULT_N_POINTS,
) -> DispersionSweep:
    """Classified dispersion samples on a uniform frequency grid, as columns.

    Raises ValueError for a non-finite, empty or reversed band or for
    n_points outside 2..MAX_N_POINTS, and PoleError at the first grid
    frequency whose chain matrix overflows.
    """
    grid = _grid(f_start, f_stop, n_points)
    (sweep,), *_ = _columns([cell], grid, np.empty((1, 0)), 1)
    if isinstance(sweep, Exception):
        raise sweep
    return sweep


def _grid(f_start: float, f_stop: float, n_points: int) -> np.ndarray:
    """The uniform grid of dispersion_sweep, or its ValueError."""
    for name, edge in (("f_start", f_start), ("f_stop", f_stop)):
        if not math.isfinite(edge):
            raise ValueError(f"{name} must be finite, got {edge}")
    if not 0.0 < f_start < f_stop:
        raise ValueError(f"need 0 < f_start < f_stop, got ({f_start}, {f_stop})")
    if not 2 <= n_points <= MAX_N_POINTS:
        raise ValueError(f"n_points must be within 2..{MAX_N_POINTS}, got {n_points}")
    return np.linspace(f_start, f_stop, n_points)


# The slots of a row's columns in _columns: the shared grid, then the row's
# own gap midpoint, its f_sh, and the trace frequencies after them.
_SWEEP, _MIDPOINT, _AT_F0, _TRACE = range(4)


def _columns(cells: list[CrlhUnitCell], grid: np.ndarray, extra: np.ndarray, states: int):
    """The kernel over one row per cell: every cell on the grid, then
    cells[i] at its own frequencies extra[i] (its gap midpoint, its f_sh,
    then any trace frequencies).

    Returns the sweep of each of the first `states` rows (or the error
    that stopped it), their beta and alpha at every column, every row's
    regions on the grid, and a dict from (row, slot) to the error of the
    row's first column in the slot that fails (see _failure). Columns go
    through in blocks of at most _SWEEP_BLOCK samples, each block's
    frequencies built as it is taken: one block hands its arrays back as
    they are, and a longer grid writes into arrays allocated once.
    """
    rows, g = len(cells), len(grid)
    width = g + extra.shape[1]
    values = _cell_values(cells)
    period = values[5]
    k0 = _k0(grid)
    step = max(_SWEEP_BLOCK // rows, 1)
    spans = [(lo, min(lo + step, width)) for lo in range(0, width, step)]
    errors: dict = {}
    out = None
    for lo, hi in spans:
        n = max(min(hi, g) - lo, 0)  # the block's grid columns
        if hi <= g:
            f = grid[None, lo:hi]
        else:
            own = extra[:, max(lo - g, 0) : hi - g]
            f = np.concatenate([np.broadcast_to(grid[lo:], (rows, n)), own], axis=1)
        beta, alpha, bad = _kernel(values, f)
        with np.errstate(all="ignore"):
            region = classify(beta[:, :n], alpha[:, :n], k0[lo:hi], period)
            leaky = (region[:states] == _LH) | (region[:states] == _RH)
            scan_deg = np.where(leaky, _scan_deg(beta[:states, :n], k0[lo:hi]), np.nan)
        if bad.any():
            f = np.broadcast_to(f, bad.shape)
            for r in np.flatnonzero(bad.any(axis=1)).tolist():
                cols = np.flatnonzero(bad[r])
                slots = np.searchsorted((g, g + 1, g + 2), cols + lo, side="right")
                for slot, j in zip(*np.unique(slots, return_index=True)):
                    errors.setdefault((r, int(slot)), _failure(float(f[r, cols[j]])))
        block = beta[:states], alpha[:states], region, leaky, scan_deg
        if len(spans) == 1:
            out = block
            break
        if out is None:
            sizes = width, width, g, g, g
            out = [np.empty((len(x), size), x.dtype) for x, size in zip(block, sizes)]
        for column, x in zip(out, block):
            column[:, lo : lo + x.shape[1]] = x
        # so that the next block is taken without this one's arrays
        del beta, alpha, bad, region, leaky, scan_deg, block, x
    beta, alpha, region, leaky, scan_deg = out
    sweeps = [
        errors.get((i, _SWEEP))
        or DispersionSweep(grid, beta[i, :g], alpha[i, :g], k0, region[i], leaky[i], scan_deg[i])
        for i in range(states)
    ]
    return sweeps, beta, alpha, region, errors


def transition_frequency(
    cell: CrlhUnitCell,
    bracket: tuple[float, float] = (DEFAULT_F_START, DEFAULT_F_STOP),
) -> float:
    """Frequency where beta crosses zero: the shunt resonance f_sh.

    A symmetric-T cell has cosh(gamma p) = 1 - XB/2 + j rB/2, with X the
    series reactance, r the series loss and B the shunt susceptance. That
    is real only where B = 0, so with or without loss the crossing is
    f_sh = 1/(2 pi sqrt(L_L C_R)) (Caloz & Itoh, Electromagnetic
    Metamaterials, 2006, sec. 3.1-3.2). Raises ValueError for a bracket
    that is not 0 < f_lo < f_hi, and BracketError when f_sh lies outside
    the bracket or when the lossless cell has a stop band between its
    series resonance f_se and f_sh (alpha above _EVANESCENT_ALPHA_NP_PER_M
    at their midpoint): beta is pinned at 0 across that gap, so there is
    no single transition frequency.
    """
    f_se, f_sh = _resonances_in(cell, bracket)
    # loss lifts alpha everywhere, so the gap is judged on the lossless cell
    gap = _gap_error(f_se, f_sh, bloch_gamma(replace(cell, r_series=0.0), 0.5 * (f_se + f_sh))[1])
    if gap is not None:
        raise gap
    return f_sh


def _resonances_in(cell: CrlhUnitCell, bracket: tuple[float, float]) -> tuple[float, float]:
    """(f_se, f_sh) of cell [Hz]; the bracket errors of transition_frequency."""
    f_lo, f_hi = bracket
    if not 0.0 < f_lo < f_hi:
        raise ValueError(f"need 0 < f_lo < f_hi, got ({f_lo}, {f_hi})")
    pair = resonances(cell)
    f_se = pair.omega_se / (2.0 * math.pi)
    f_sh = pair.omega_sh / (2.0 * math.pi)
    if not f_lo <= f_sh <= f_hi:
        raise BracketError(
            f"the transition f_sh = {f_sh:.9g} Hz lies outside [{f_lo:.9g}, {f_hi:.9g}] Hz"
        )
    return f_se, f_sh


def _gap_error(f_se: float, f_sh: float, alpha: float) -> BracketError | None:
    """The stop-band BracketError of transition_frequency, given the
    lossless alpha midway between f_se and f_sh; None without a gap."""
    if alpha > _EVANESCENT_ALPHA_NP_PER_M:
        return BracketError(
            f"stop band between f_se = {f_se:.9g} Hz and f_sh = {f_sh:.9g} Hz "
            f"(alpha = {alpha:.6g} Np/m midway), so the cell has no single "
            f"transition frequency"
        )
    return None


@dataclass(frozen=True)
class StateSolution:
    """One switch state of a design, solved once on the config's grid.

    Each slot holds its value or the error that stopped it, and a slot
    that needs a failed one holds that one's error: a cell that cannot be
    calibrated fills every slot.
    """

    fingers: int
    cell: CrlhUnitCell | Exception
    sweep: DispersionSweep | Exception
    f0: float | Exception                    # transition_frequency [Hz]
    gamma0: tuple[float, float] | Exception  # bloch_gamma at f0: (beta, alpha)


def solve(config: RunConfig) -> list[StateSolution]:
    """Every target state of config, in state order.

    The cells are calibrated one by one, and their sweeps and the points of
    transition_frequency (each gap midpoint and f_sh) go through one
    _columns call: one kernel pass on grids up to a third of _SWEEP_BLOCK.
    Raises the ConfigError of a config without a target state; every
    _FAILURES error of a state is kept in the slots it stops.
    """
    return _solve(config)[0]


def _solve(
    config: RunConfig,
    detuned: Callable[[CrlhUnitCell], CrlhUnitCell | Exception] | None = None,
    variates: np.ndarray | None = None,
) -> tuple[list[StateSolution], list, list]:
    """solve(config), then per state its detuned control's regions on the
    grid and its trace samples (f, beta, alpha), each or the error that
    stopped it.

    detuned maps a state's cell to its control (or the error that stops
    it), which joins the kernel as one more row on the grid; without it a
    control is None. variates holds one row of unit variates per state,
    and lo + (hi - lo) u of a state's row are its trace frequencies in the
    band, columns after its f_sh; without them a state's trace is empty.
    The config's cells are lossless, so each gap midpoint is taken on the
    cell itself.
    """
    states = config.target_states()
    cells = []
    for n in states:
        try:
            cells.append(config.cell(n))
        except _FAILURES as exc:
            cells.append(exc)
    lo, hi = config.f_start, config.f_stop
    grid = _grid(lo, hi, config.n_points)
    built = [i for i, cell in enumerate(cells) if not isinstance(cell, Exception)]
    crossings, extra = [], []
    for i in built:
        f_se = f_sh = math.nan
        try:
            crossings.append(_resonances_in(cells[i], (lo, hi)))
            f_se, f_sh = crossings[-1]
        except _FAILURES as exc:
            crossings.append(exc)
        trace = () if variates is None else lo + (hi - lo) * variates[i]
        extra.append([0.5 * (f_se + f_sh), f_sh, *trace])
    controls = [detuned(cells[i]) for i in built] if detuned else [None] * len(built)
    tuned = [k for k, control in enumerate(controls) if isinstance(control, CrlhUnitCell)]
    rows = [cells[i] for i in built] + [controls[k] for k in tuned]
    extra += [extra[k] for k in tuned]
    if rows:
        sweeps, beta, alpha, region, errors = _columns(rows, grid, np.array(extra), len(built))
    g = len(grid)
    # a cell that cannot be calibrated fills every slot of its state
    solutions = [StateSolution(n, cell, cell, cell, cell) for n, cell in zip(states, cells)]
    regions, traces = list(cells), list(cells)
    for k, i in enumerate(built):
        f0 = gamma0 = crossings[k]
        if not isinstance(f0, Exception):
            f_se, f_sh = f0
            f0 = gamma0 = errors.get((k, _MIDPOINT)) or _gap_error(f_se, f_sh, float(alpha[k, g]))
            if f0 is None:
                f0 = f_sh
                gamma0 = errors.get((k, _AT_F0)) or (float(beta[k, g + 1]), float(alpha[k, g + 1]))
        solutions[i] = StateSolution(states[i], cells[i], sweeps[k], f0, gamma0)
        regions[i] = controls[k]
        if k in tuned:
            r = len(built) + tuned.index(k)
            regions[i] = errors.get((r, _SWEEP)) or region[r]
        trace = np.array(extra[k][2:]), beta[k, g + 2 :], alpha[k, g + 2 :]
        traces[i] = errors.get((k, _TRACE)) or trace
    return solutions, regions, traces


def scan_profile(
    cell: CrlhUnitCell,
    f_start: float = DEFAULT_F_START,
    f_stop: float = DEFAULT_F_STOP,
    n_points: int = DEFAULT_N_POINTS,
) -> list[tuple[float, float]]:
    """(f, scan angle) over the fast-wave samples of a sweep."""
    return dispersion_sweep(cell, f_start, f_stop, n_points).scan_profile()
