"""The dispersion table as CSV and JSON text, formatted in numpy.

Every number is written as '%.8e' writes it; the CSV digits are computed
column-wise in numpy, the JSON rows follow the layout of
json.dumps(indent=2, sort_keys=True). The CLI imports this module only for
the commands that write a dispersion table.
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


_CSV_CHUNK_ROWS = 4096
# A dispersion CSV row is built as a fixed-width byte row: five %.8e
# fields with their commas, the region name with its comma, the scan angle
# and the newline. A %.8e field has _FIELD slots (sign, digit, point, 8
# digits, "e", exponent sign, 3 exponent digits, separator). Slots a row
# does not use (a plus sign, a third exponent digit, the rest of a short
# region name, a missing angle) hold NUL, which is deleted at the end.
_FIELD = 17
_E8 = b"\x000.00000000e+000"
_REGION_SLOTS = max(map(len, _REGION_NAMES)) + 1
_REGION_BYTES = np.array(
    [list(f"{name},".ljust(_REGION_SLOTS, "\0").encode("ascii")) for name in _REGION_NAMES],
    dtype=np.uint8,
)
_ROW_TEMPLATE = np.frombuffer(
    (_E8 + b",") * 5 + bytes(_REGION_SLOTS) + _E8 + b"\n", dtype=np.uint8
)
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


def _put_e8(dst: np.ndarray, neg, m, e) -> None:
    """Write the %.8e fields of _e8_parts into (..., _FIELD) byte slots that
    hold the _E8 template."""
    dst[..., 0] = np.where(neg, ord("-"), 0)
    for slot in (10, 9, 8, 7, 6, 5, 4, 3, 1):
        q = m // 10
        dst[..., slot] = m - q * 10 + 48
        m = q
    e = e.astype(np.int16)
    dst[..., 12] = np.where(e < 0, ord("-"), ord("+"))
    e = np.abs(e)
    dst[..., 13] = np.where(e < 100, 0, e // 100 + 48)
    dst[..., 14] = e // 10 % 10 + 48
    dst[..., 15] = e % 10 + 48


def _csv_rows(values: np.ndarray, region: np.ndarray, leaky: np.ndarray) -> str:
    """CSV rows from an n x 6 array (five numeric columns, then the scan
    angle, written only on leaky rows) and the region codes."""
    n = len(values)
    out = np.empty((n, _ROW_TEMPLATE.size), dtype=np.uint8)
    out[:] = _ROW_TEMPLATE
    neg, m, e = _e8_parts(values)
    head = slice(0, 5 * _FIELD)
    fields = out[:, head].reshape(n, 5, _FIELD)  # a view: only the contiguous last axis splits
    _put_e8(fields, neg[:, :5], m[:, :5], e[:, :5])
    names = slice(head.stop, head.stop + _REGION_SLOTS)
    out[:, names] = _REGION_BYTES[region]
    angle = slice(names.stop, None)
    _put_e8(out[:, angle], neg[:, 5], m[:, 5], e[:, 5])
    out[~leaky, angle.start : -1] = 0
    return out.tobytes().translate(None, b"\0").decode("ascii")


def _dispersion_csv(sweep: DispersionSweep, period: float):
    """The dispersion table as CSV text, header first, then chunks of
    _CSV_CHUNK_ROWS rows: every number as '%.8e' writes it, no scan angle off
    the leaky band."""
    yield ",".join(_DISPERSION_HEADER) + "\n"
    numbers = (sweep.f, sweep.beta, sweep.alpha, sweep.k0, sweep.beta * period / math.pi)
    angles = np.where(sweep.leaky, sweep.scan_deg, 0.0)  # NaN off the band, blanked
    for lo in range(0, len(sweep.f), _CSV_CHUNK_ROWS):
        rows = slice(lo, lo + _CSV_CHUNK_ROWS)
        values = np.stack([c[rows] for c in (*numbers, angles)], axis=1)
        yield _csv_rows(values, sweep.region[rows], sweep.leaky[rows])


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
