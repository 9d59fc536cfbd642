"""Bloch analysis of the periodically loaded line.

One cell is a symmetric T network; the per-cell complex propagation
constant gamma = alpha + j beta solves cosh(gamma p) = (A + D)/2. Branch
selection follows the forward-power convention: the principal arccosh
already gives the decaying root (alpha >= 0), and where the Bloch
impedance has a meaningful real part its sign fixes beta so power flows in
+z. That makes beta negative in the left-handed pass band and positive in
the right-handed one, rising through zero at the transition frequency.

Every sample goes through one numpy kernel (_chain, then _gamma, then
classify) over stacked rows: a row is one cell at its own frequencies, and
the kernel reads each cell's elements repeated over its row's points. One
packer (_packed) puts rows through the kernel in passes of whole rows and
hands each row's samples, or its error, to what the row keeps of them. A
scalar caller passes one frequency, and bloch_gamma, dispersion_sweep and
transition_frequency are one-row calls. solve() takes every switch state
of a design through the packer together and keeps, per state, each result
or the error that stopped it; selfcheck.run_all adds each state's
detuned control and trace frequencies to the rows of _plan, so at the
default grid a `reproduce` is one kernel pass.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

import numpy as np

from .cell import CrlhUnitCell, resonances
from .errors import BracketError, CrlhError, PoleError
from .geometry import C0, MAX_N_POINTS

if TYPE_CHECKING:
    from .config import RunConfig

DEFAULT_F_START = 7.5e9
DEFAULT_F_STOP = 12.0e9
DEFAULT_N_POINTS = 451
# Grid points per kernel pass. A pass holds whole rows, one cell at its own
# frequencies each, up to this budget; a longer row takes passes of its own
# in blocks of this size. The complex temporaries grow with the pass, not
# the grid, so a sweep peaks at about twice its result columns. At the
# default grid every row of `reproduce` fits one pass of 2,772 points: the
# three 451-point sweeps, the six transition points, the three detuned
# controls and the 60 trace frequencies. Each 15001-point row of a dense
# run starts a pass of its own, which takes the short rows that follow it.
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


def _elements(cells: list[CrlhUnitCell], counts: list[int]) -> tuple:
    """(l_r, c_r, l_l, c_l, r_series, period) of the cells, each repeated
    over its row's counts[i] points. One cell gives them as floats, so a
    one-row pass makes no per-point copies, and cells of one period give
    that period as a float."""
    if len(cells) == 1:
        (c,) = cells
        return c.l_r, c.c_r, c.l_l, c.c_l, c.r_series, c.period
    values = np.array([[c.l_r, c.c_r, c.l_l, c.c_l, c.r_series] for c in cells])
    periods = {c.period for c in cells}
    period = periods.pop() if len(periods) == 1 else np.repeat([c.period for c in cells], counts)
    return (*np.repeat(values.T, counts, axis=1), period)


def _chain(elements: tuple, f: np.ndarray) -> tuple[np.ndarray, ...]:
    """Chain-matrix entries a (= d), b and c of symmetric-T cells, one per f,
    and the mask of the points where an entry overflows.

    elements are the per-point cell values of _elements. Half the series
    branch z = r + j(w L_R - 1/(w C_L)), the full shunt tank
    y = j(w C_R - 1/(w L_L)), then the other half; the cascade collapses to
    a = d = 1 + zy/2, b = z + z^2 y/4, c = y. With positive elements a
    non-finite entry is float overflow, not a real pole: the shunt
    resonance of this topology is an admittance zero. Callers silence
    numpy's floating-point warnings and judge the mask.
    """
    l_r, c_r, l_l, c_l, r_series = elements[:5]
    w = 2.0 * math.pi * f
    z = np.empty(f.shape, dtype=complex)
    z.real = r_series
    z.imag = w * l_r - 1.0 / (w * c_l)
    y = np.empty(f.shape, dtype=complex)
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


class _Pass(NamedTuple):
    """One kernel pass over stacked rows, as per-point arrays."""

    f: np.ndarray
    period: float | np.ndarray
    chain: tuple[np.ndarray, np.ndarray, np.ndarray]  # a (= d), b, c
    beta: np.ndarray
    alpha: np.ndarray
    errors: list  # per row: None, or the error its points raise


def _kernel(cells: list[CrlhUnitCell], fs: list[np.ndarray]) -> _Pass:
    """Bloch solution of each cells[i] at its 1-D float frequencies fs[i],
    in one pass of the kernel.

    A row's error is a ValueError naming its first frequency that is not
    positive and finite, else a PoleError at its first frequency whose
    chain matrix overflows; the other rows are unaffected.
    """
    f = fs[0] if len(fs) == 1 else np.concatenate(fs)
    elements = _elements(cells, [len(x) for x in fs])
    period = elements[5]
    with np.errstate(all="ignore"):
        a, b, c, overflow = _chain(elements, f)
        # a stacked pass frees its per-point elements before _gamma's
        # temporaries, so it peaks no higher than a one-row pass
        del elements
        beta, alpha = _gamma(a, b, period)
    invalid = ~((f > 0.0) & (f < math.inf))
    errors = [None] * len(fs)
    if invalid.any() or overflow.any():
        lo = 0
        for i, row in enumerate(fs):
            bad, over = invalid[lo : lo + len(row)], overflow[lo : lo + len(row)]
            if bad.any():
                errors[i] = ValueError(f"frequency must be positive and finite, got {row[bad][0]}")
            elif over.any():
                errors[i] = PoleError(float(row[over.argmax()]), "chain-matrix entries overflow")
            lo += len(row)
    return _Pass(f, period, (a, b, c), beta, alpha, errors)


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
    solved = _kernel([cell], [freqs.reshape(-1)])
    if solved.errors[0] is not None:
        raise solved.errors[0]
    if freqs.ndim == 0:
        return float(solved.beta[0]), float(solved.alpha[0])
    return solved.beta, solved.alpha


def classify(beta, alpha, k0, period) -> np.ndarray:
    """Region of each (beta, alpha) sample, as indices into REGIONS.

    A sample is evanescent when it attenuates with its phase pinned at a
    band edge (beta p of 0 or +-pi, exact for the lossless topology);
    otherwise fast waves (|beta| < k0) leak and slow waves are guided.
    period is one cell period, or one per sample [m].
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
    (sweep,) = _sweeps([cell], f_start, f_stop, n_points)
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


def _sweeps(
    cells: list[CrlhUnitCell], f_start: float, f_stop: float, n_points: int
) -> Iterator[DispersionSweep | CrlhError]:
    """The dispersion sweep of each cell on one uniform grid, or the
    PoleError that stopped it, one cell at a time from _packed; see
    dispersion_sweep. The grid is checked when the first row is asked for.
    """
    f = _grid(f_start, f_stop, n_points)
    yield from _packed([_Row(cell, f) for cell in cells])


class _Block(NamedTuple):
    """One row's samples: the DispersionSweep columns in field order, then
    the chain entries (a, b, c) if the row asks for them."""

    f: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray
    k0: np.ndarray
    region: np.ndarray
    leaky: np.ndarray
    scan_deg: np.ndarray
    chain: tuple[np.ndarray, np.ndarray, np.ndarray] | None


def _as_sweep(block: _Block) -> DispersionSweep:
    return DispersionSweep(*block[:7])


class _Row(NamedTuple):
    """One cell, or the error that stopped it, at its 1-D frequencies.

    keep maps the row's _Block to what _packed hands over for the row; a
    row with chain set gets the chain entries in its block.
    """

    cell: CrlhUnitCell | Exception
    f: np.ndarray
    keep: Callable[[_Block], object] = _as_sweep
    chain: bool = False


def _packed(rows: list[_Row]) -> Iterator:
    """What each row keeps of its samples, or the error that stopped it
    (its cell's, else that of its first block that fails), in row order.

    Whole rows share a kernel pass up to _SWEEP_BLOCK points, and a row
    longer than that takes passes of its own in blocks of _SWEEP_BLOCK
    points. A row is handed over once its last pass is done, and no local
    keeps it after that, so a caller that drops each row in turn holds one
    long row at a time.
    """
    batch, size = [], 0
    for row in rows:
        points = 0 if isinstance(row.cell, Exception) else len(row.f)
        if batch and size + points > _SWEEP_BLOCK:
            yield from _pass_results(batch)
            batch, size = [], 0
        if points > _SWEEP_BLOCK:
            # the blocks go straight into the join, so none outlives it
            starts = range(0, points, _SWEEP_BLOCK)
            yield _kept(
                row,
                [_pass_blocks([row._replace(f=row.f[lo : lo + _SWEEP_BLOCK])])[0] for lo in starts],
            )
        else:
            batch.append(row)
            size += points
    if batch:
        yield from _pass_results(batch)


def _pass_results(rows: list[_Row]) -> list:
    """What each row keeps of one kernel pass over the rows, or its error."""
    built = [row for row in rows if not isinstance(row.cell, Exception)]
    blocks = iter(_pass_blocks(built) if built else [])
    return [
        row.cell if isinstance(row.cell, Exception) else _kept(row, [next(blocks)])
        for row in rows
    ]


def _pass_blocks(rows: list[_Row]) -> list:
    """Each row of one kernel pass as its _Block, or as its error. The
    columns of a row that overflowed are dropped, so their warnings are
    silenced too.
    """
    solved = _kernel([row.cell for row in rows], [row.f for row in rows])
    bounds = list(accumulate((len(row.f) for row in rows), initial=0))
    spans = list(zip(bounds, bounds[1:]))
    # a row that asks for the chain entries gets copies of its own, and the
    # entries go before the columns are allocated, which can then take their
    # memory: at the 1,000,000-point cap that keeps `reproduce` at 217 MB
    # RSS instead of 226 MB
    chains = [
        tuple(entry[lo:hi].copy() for entry in solved.chain) if row.chain else None
        for row, (lo, hi) in zip(rows, spans)
    ]
    solved = solved._replace(chain=None)
    with np.errstate(all="ignore"):
        k0 = _k0(solved.f)
        region = classify(solved.beta, solved.alpha, k0, solved.period)
        leaky = (region == _LH) | (region == _RH)
        scan_deg = np.where(leaky, _scan_deg(solved.beta, k0), np.nan)
    columns = solved.f, solved.beta, solved.alpha, k0, region, leaky, scan_deg
    return [
        error or _Block(*(column[lo:hi] for column in columns), chain)
        for (lo, hi), error, chain in zip(spans, solved.errors, chains)
    ]


def _kept(row: _Row, blocks: list):
    """What row keeps of the blocks of its passes, joined, or the first
    error among them."""
    error = next((block for block in blocks if isinstance(block, Exception)), None)
    if error is not None:
        return error
    if len(blocks) == 1:
        # one block keeps its arrays: joining would copy them into fresh memory
        return row.keep(blocks[0])
    # the blocks' frequencies are slices of the row's own, so that array
    # stands for their join and a long sweep shares its grid
    columns = map(np.concatenate, zip(*(block[1:7] for block in blocks)))
    chain = None
    if row.chain:
        chain = tuple(map(np.concatenate, zip(*(block.chain for block in blocks))))
    return row.keep(_Block(row.f, *columns, chain))


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
    _check_gapless(f_se, f_sh, bloch_gamma(replace(cell, r_series=0.0), 0.5 * (f_se + f_sh))[1])
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


def _check_gapless(f_se: float, f_sh: float, alpha: float) -> None:
    """The stop-band BracketError of transition_frequency, given the
    lossless alpha midway between f_se and f_sh."""
    if alpha > _EVANESCENT_ALPHA_NP_PER_M:
        raise BracketError(
            f"stop band between f_se = {f_se:.9g} Hz and f_sh = {f_sh:.9g} Hz "
            f"(alpha = {alpha:.6g} Np/m midway), so the cell has no single "
            f"transition frequency"
        )


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


def _at_point(block: _Block) -> tuple[float, float]:
    """(beta, alpha) of a one-point row."""
    return float(block.beta[0]), float(block.alpha[0])


class _Plan(NamedTuple):
    """The rows solve() puts through the packer for a config, and how it
    reads their results back."""

    states: list[int]
    cells: list  # per state: its cell, or the error that stopped it
    grid: np.ndarray
    crossings: list  # per state: (f_se, f_sh), or the error that stops it
    # each state's sweep, then two one-point rows per state whose f_sh is
    # in band: its lossless cell midway between f_se and f_sh, then the
    # cell itself at f_sh
    rows: list[_Row]

    def solutions(self, results: list) -> list[StateSolution]:
        """Every state's StateSolution from what _packed gave for rows."""
        n = len(self.states)
        points = iter(results[n:])
        f0s, gamma0s = list(self.crossings), list(self.crossings)
        for i, crossing in enumerate(self.crossings):
            if isinstance(crossing, Exception):
                continue
            mid, at_f0 = next(points), next(points)
            try:
                if isinstance(mid, Exception):
                    raise mid
                _check_gapless(*crossing, mid[1])
            except _FAILURES as exc:
                f0s[i] = gamma0s[i] = exc
                continue
            f0s[i], gamma0s[i] = crossing[1], at_f0
        return [
            StateSolution(*slots)
            for slots in zip(self.states, self.cells, results[:n], f0s, gamma0s)
        ]


def _plan(config: RunConfig) -> _Plan:
    """The cells of config's target states, calibrated one by one, and the
    rows that solve them; the ConfigError of a config without a target
    state."""
    states = config.target_states()
    cells = []
    for n in states:
        try:
            cells.append(config.cell(n))
        except _FAILURES as exc:
            cells.append(exc)
    grid = _grid(config.f_start, config.f_stop, config.n_points)
    crossings, rows = list(cells), [_Row(cell, grid) for cell in cells]
    for i, cell in enumerate(cells):
        if isinstance(cell, Exception):
            continue
        try:
            f_se, f_sh = crossings[i] = _resonances_in(cell, (config.f_start, config.f_stop))
        except _FAILURES as exc:
            crossings[i] = exc
            continue
        rows += [
            _Row(replace(cell, r_series=0.0), np.array([0.5 * (f_se + f_sh)]), _at_point),
            _Row(cell, np.array([f_sh]), _at_point),
        ]
    return _Plan(states, cells, grid, crossings, rows)


def solve(config: RunConfig) -> list[StateSolution]:
    """Every target state of config, in state order.

    The cells are calibrated one by one. Their sweeps and the points of
    transition_frequency (each lossless gap midpoint, and each cell at its
    f_sh) go through the kernel together in the passes of _packed: one
    pass on grids up to a third of _SWEEP_BLOCK. Raises the ConfigError of
    a config without a target state; every _FAILURES error of a state is
    kept in the slots it stops.
    """
    plan = _plan(config)
    return plan.solutions(list(_packed(plan.rows)))


def scan_profile(
    cell: CrlhUnitCell,
    f_start: float = DEFAULT_F_START,
    f_stop: float = DEFAULT_F_STOP,
    n_points: int = DEFAULT_N_POINTS,
) -> list[tuple[float, float]]:
    """(f, scan angle) over the fast-wave samples of a sweep."""
    return dispersion_sweep(cell, f_start, f_stop, n_points).scan_profile()
