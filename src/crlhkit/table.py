"""The dispersion table as CSV and JSON text, formatted in numpy.

Every number is written as '%.8e' writes it; the CSV digits are computed
column-wise in numpy and laid down four at a time from word tables, the
JSON rows follow the layout of json.dumps(indent=2, sort_keys=True). The
CLI imports this module only for the commands that write a dispersion
table.
"""

from __future__ import annotations

import math

import numpy as np

from .bloch import REGIONS, DispersionSweep

_DISPERSION_HEADER = [
    "f_Hz",
    "beta_rad_per_m",
    "alpha_Np_per_m",
    "k0_rad_per_m",
    "beta_p_over_pi",
    "region",
    "scan_angle_deg",
]
_REGION_NAMES = [r.value for r in REGIONS]
# One dispersion row as json.dumps(indent=2, sort_keys=True) lays out a
# dict keyed by _DISPERSION_HEADER, fields in sorted-key order.
_JSON_KEYS = sorted(_DISPERSION_HEADER)
_DISPERSION_JSON_ROW = (
    "  {\n"
    + ",\n".join(f'    "{k}": ' + ('"%s"' if k == "region" else "%s") for k in _JSON_KEYS)
    + "\n  }"
)
_JSON_CHUNK_ROWS = 8192


def _dispersion_columns(sweep: DispersionSweep, period: float, rows=slice(None)) -> list[list]:
    """The columns of _DISPERSION_HEADER as lists, over the given rows of the
    sweep; no scan angle off the leaky band."""
    leaky = sweep.leaky[rows].tolist()
    angles = [a if on else None for a, on in zip(sweep.scan_deg[rows].tolist(), leaky)]
    return [
        sweep.f[rows].tolist(),
        sweep.beta[rows].tolist(),
        sweep.alpha[rows].tolist(),
        sweep.k0[rows].tolist(),
        (sweep.beta[rows] * period / math.pi).tolist(),
        [_REGION_NAMES[code] for code in sweep.region[rows].tolist()],
        angles,
    ]


# Rows per CSV chunk. A chunk's buffers grow with it: at 4096 rows glibc
# malloc returned them to the system between chunks, so a 15,001-point
# `sweep --out` took about 2,600 more page faults and a higher peak RSS
# than at 2048.
_CSV_CHUNK_ROWS = 2048
# A dispersion CSV chunk is built in 32-bit words, each filled by one
# np.take from a word table. A %.8e field and its separator take five
# words: [sign, d0, ".", NUL], [d1-d4], [d5-d8], ["e", exponent sign, e2,
# e1] and [e0, separator, NUL, NUL]; the region name with its comma takes
# the words of _REGION_WORDS. Slots a row does not use (a plus sign, a third
# exponent digit, the rest of a short region name, a missing angle) hold
# NUL, which is deleted at the end. The chunk buffer is word-major, (word,
# field, row), so that every take writes one contiguous run, and its fields
# come in _BUFFER_FIELDS order: the grid columns f and k0 first, so that
# sweeps on one grid share their words, then each sweep's own numbers up
# to the scan angle, whose field ends the row.
_FIELD_WORDS = 5
_BUFFER_FIELDS = [
    "f_Hz",
    "k0_rad_per_m",
    "beta_rad_per_m",
    "alpha_Np_per_m",
    "beta_p_over_pi",
    "scan_angle_deg",
    "region",
]
_GRID_FIELDS = 2
_ANGLE = _BUFFER_FIELDS.index("scan_angle_deg")
_CSV_ORDER = [_BUFFER_FIELDS.index(name) for name in _DISPERSION_HEADER]
# Decimal exponents of '%.8e' over the finite doubles: 4.94065646e-324 to
# 1.79769313e+308.
_MIN_EXP, _MAX_EXP = -324, 308


def _words(chars) -> np.ndarray:
    """Rows of byte values as native uint32 words: a word written into the
    chunk buffer lays down its four bytes in order."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32)


def _word_tables():
    """The %.8e word tables: _HEAD by 10 sign + d0, _QUAD by a 4-digit
    group, and _EXP, _EXP_END (a comma follows) and _ROW_END (a newline
    follows) by exponent - _MIN_EXP."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    head = np.zeros((2, 10, 4), dtype=np.uint8)
    head[1, :, 0] = ord("-")
    head[..., 1] = digits
    head[..., 2] = ord(".")
    quad = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    quad[..., 0] = digits[:, None, None, None]
    quad[..., 1] = digits[:, None, None]
    quad[..., 2] = digits[:, None]
    quad[..., 3] = digits
    e = np.arange(_MIN_EXP, _MAX_EXP + 1)
    a = np.abs(e)
    exp = np.zeros((len(e), 4), dtype=np.uint8)
    exp[:, 0] = ord("e")
    exp[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    exp[:, 2] = np.where(a < 100, 0, a // 100 + ord("0"))
    exp[:, 3] = a // 10 % 10 + ord("0")
    ends = np.zeros((2, len(e), 4), dtype=np.uint8)
    ends[..., 0] = a % 10 + ord("0")
    ends[..., 1] = [[ord(",")], [ord("\n")]]
    return [_words(t.reshape(-1, 4))[:, 0] for t in (head, quad, exp, *ends)]


_HEAD, _QUAD, _EXP, _EXP_END, _ROW_END = _word_tables()
# _REGION_WORDS[:, code] is the name of REGIONS[code] and its comma
_REGION_WORDS = _words(
    [list(f"{name},".ljust(4 * _FIELD_WORDS, "\0").encode("ascii")) for name in _REGION_NAMES]
).T.copy()
# the scan-angle field of a row off the leaky band: the newline alone
_NO_ANGLE = _words([[0] * 4 * (_FIELD_WORDS - 1) + [0, ord("\n"), 0, 0]])[0]
# Correctly rounded powers of ten: _POW10[k] is 10**k.
_POW10 = np.array([float(f"1e{k}") for k in range(309)])
# Values with a larger decimal exponent, subnormals and near-ties are
# formatted by Python (_e8_parts).
_E8_MAX_EXP = 298
_TIE_WINDOW = 1e-6


def _e8_parts(x: np.ndarray):
    """Sign bit, 9-digit integer mantissa and decimal exponent of each
    value, as '%.8e' writes it: the mantissa's first digit, a point, its
    other 8 digits, then e and the exponent.

    The exponent is e = floor(log10|v|) and the mantissa rint(s) of the
    scaled value s = |v| 10**(8-e), carried to the next decade at 1e9.
    log10 can put e one off only within ~1e-12 of a power of ten, where s
    rounds to 1e8 (e one high) or to 1e9 and carries (e one low), so the
    digits do not change. The power of ten is the correctly rounded double
    and the product or quotient rounds once, so s is within 2 ulp
    (relative 2.3e-16, so 2.3e-7 of the last digit below 1e9) of its exact
    value, and rint can round otherwise than the exact decimal only where
    s is that close to a tie. Values within _TIE_WINDOW = 1e-6 of a tie,
    subnormals and values with |e| > _E8_MAX_EXP take mantissa and
    exponent from Python's '%.8e' instead. Non-finite values raise
    ValueError.
    """
    finite = np.isfinite(x)
    if not finite.all():
        raise ValueError(f"cannot format the non-finite value {x[~finite][0]}")
    a = np.abs(x)
    zero = a == 0.0
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(a))
    exact = ~zero & ~(np.abs(e) <= _E8_MAX_EXP)
    e = np.where(zero | exact, 0.0, e).astype(np.int64)
    a = np.where(exact, 1.0, a)
    scale = _POW10[np.abs(8 - e)]
    s = np.empty_like(a)
    np.multiply(a, scale, out=s, where=e <= 8)
    np.divide(a, scale, out=s, where=e > 8)
    m = np.rint(s)
    exact |= np.abs(s - np.floor(s) - 0.5) < _TIE_WINDOW
    carry = m == 1e9
    m[carry] = 1e8
    e += carry
    for i in np.flatnonzero(exact):
        digits, _, exponent = ("%.8e" % abs(x.flat[i])).partition("e")
        m.flat[i] = int(digits.replace(".", ""))
        e.flat[i] = int(exponent)
    return np.signbit(x), m.astype(np.uint32), e


def _put_e8(dst: np.ndarray, values: np.ndarray) -> None:
    """Write the rows of values as %.8e fields into the word-major dst:
    dst[w, i] holds word w of the fields of values[i]. Every field ends in
    a comma but those of the last row, which end the CSV row."""
    neg, m, e = _e8_parts(values)
    d0 = m // 100_000_000
    low = m - d0 * 100_000_000
    d1 = low // 10_000
    # the indices are in range by construction, and "clip" takes no
    # bounds-checked copy of the output
    np.take(_HEAD, d0 + 10 * neg, out=dst[0], mode="clip")
    np.take(_QUAD, d1, out=dst[1], mode="clip")
    np.take(_QUAD, low - d1 * 10_000, out=dst[2], mode="clip")
    e -= _MIN_EXP
    np.take(_EXP, e, out=dst[3], mode="clip")
    np.take(_EXP_END, e[:-1], out=dst[4, :-1], mode="clip")
    np.take(_ROW_END, e[-1], out=dst[4, -1], mode="clip")


def _csv_rows(values: np.ndarray, region: np.ndarray, leaky: np.ndarray, grid=None):
    """CSV rows and the f and k0 words they were built from.

    values holds the numeric columns in _BUFFER_FIELDS order as rows: all
    six, or, when grid (the words an earlier call returned for the same f
    and k0) is given, the four after f and k0. The scan angle is written on
    leaky rows only; region holds the region codes.
    """
    n = values.shape[1]
    buf = np.empty((_FIELD_WORDS, len(_BUFFER_FIELDS), n), dtype=np.uint32)
    if grid is not None:
        buf[:, :_GRID_FIELDS] = grid
    _put_e8(buf[:, _ANGLE + 1 - len(values) : _ANGLE + 1], values)
    np.copyto(buf[:, _ANGLE], _NO_ANGLE[:, None], where=~leaky)
    buf[:, -1] = _REGION_WORDS[:, region]
    rows = np.empty((n, len(_CSV_ORDER), _FIELD_WORDS), dtype=np.uint32)
    for j, field in enumerate(_CSV_ORDER):
        rows[:, j] = buf[:, field].T
    grid = buf[:, :_GRID_FIELDS].copy()
    del buf  # freed before the row bytes are copied out
    return rows.tobytes().translate(None, b"\0").decode("ascii"), grid


def _dispersion_csvs(tables):
    """The dispersion tables of (sweep, period) pairs as CSV text, in
    lockstep: each table's header, then each table's chunk of the first
    _CSV_CHUNK_ROWS rows, of the next _CSV_CHUNK_ROWS rows, and so on. A
    table with fewer rows gives empty chunks. Every number is written as
    '%.8e' writes it, no scan angle off the leaky band. When every sweep
    has the same f and k0, those columns are formatted once per chunk."""
    sweeps = [sweep for sweep, _ in tables]
    shared = all(
        np.array_equal(s.f, sweeps[0].f) and np.array_equal(s.k0, sweeps[0].k0) for s in sweeps
    )
    for _ in tables:
        yield ",".join(_DISPERSION_HEADER) + "\n"
    for lo in range(0, max(len(s.f) for s in sweeps), _CSV_CHUNK_ROWS):
        rows = slice(lo, lo + _CSV_CHUNK_ROWS)
        grid = None
        for sweep, period in tables:
            leaky = sweep.leaky[rows]
            own = [
                sweep.beta[rows],
                sweep.alpha[rows],
                sweep.beta[rows] * period / math.pi,
                np.where(leaky, sweep.scan_deg[rows], 0.0),  # NaN off the band, blanked
            ]
            if grid is None:
                own = [sweep.f[rows], sweep.k0[rows], *own]
            text, words = _csv_rows(np.stack(own), sweep.region[rows], leaky, grid)
            if shared:
                grid = words
            yield text


def _dispersion_csv(sweep: DispersionSweep, period: float):
    """The dispersion table of one sweep as CSV text, header first, then
    chunks of _CSV_CHUNK_ROWS rows."""
    return _dispersion_csvs([(sweep, period)])


def _json_float(x: float) -> str:
    """A finite float as the CLI's JSON writes it: rounded to '%.8e', then repr."""
    return repr(float("%.8e" % x))


def _dispersion_json(sweep: DispersionSweep, period: float):
    """The dispersion table as the text cli._dumps gives for one dict per row,
    in chunks of _JSON_CHUNK_ROWS rows. Every column but the scan angle is
    finite (an overflowing sample raises PoleError), and a missing angle is
    null."""
    order = [_DISPERSION_HEADER.index(k) for k in _JSON_KEYS]
    yield "[\n"
    sep = ""
    for lo in range(0, len(sweep.f), _JSON_CHUNK_ROWS):
        *numbers, regions, angles = _dispersion_columns(
            sweep, period, slice(lo, lo + _JSON_CHUNK_ROWS)
        )
        fields = [
            *(map(_json_float, col) for col in numbers),
            regions,
            ("null" if a is None else _json_float(a) for a in angles),
        ]
        rows = zip(*(fields[i] for i in order))
        yield sep + ",\n".join(map(_DISPERSION_JSON_ROW.__mod__, rows))
        sep = ",\n"
    yield "\n]\n"
