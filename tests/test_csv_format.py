"""The dispersion CSV built column-wise against Python's `%` formatting.

`_dispersion_csvs` writes every float as `'%.8e' % v` would, but computes
the digits in numpy. The row template below is how the CSV was written one
row at a time; it stays here as the oracle.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crlhkit import table
from crlhkit.bloch import dispersion_sweep
from crlhkit.cli import fmt
from crlhkit.table import (
    _DISPERSION_HEADER,
    _csv_rows,
    _dispersion_columns,
    _dispersion_csvs,
)
from crlhkit.config import resolve_config
from perturb import CELL_SCALES, R_SERIES, perturbed

DISPERSION_ROW = "%.8e,%.8e,%.8e,%.8e,%.8e,%s,%s\n"
CONFIG = resolve_config(env={})


def oracle_csv(sweep, period):
    columns = _dispersion_columns(sweep, period)
    columns[-1] = ["" if a is None else fmt(a) for a in columns[-1]]
    rows = map(DISPERSION_ROW.__mod__, zip(*columns))
    return "".join([",".join(_DISPERSION_HEADER) + "\n", *rows])


def e8_fields(values):
    """Each value written by _csv_rows, in order: the values fill rows of
    six numeric fields (the sixth is the scan angle of a leaky row)."""
    values = np.asarray(values, dtype=np.float64)
    pad = -len(values) % 6
    rows = np.concatenate([values, np.zeros(pad)]).reshape(-1, 6)
    n = len(rows)
    # _csv_rows takes the columns as rows, f and k0 first: the fourth CSV
    # column is k0
    columns = rows.T[[0, 3, 1, 2, 4, 5]]
    text, _ = _csv_rows(columns, np.zeros(n, dtype=np.int8), np.ones(n, dtype=bool))
    fields = [f for row in text.splitlines() for i, f in enumerate(row.split(",")) if i != 5]
    return fields[: len(values)]


def expected(values):
    return ["%.8e" % v for v in values]


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestE8Formatter:
    @given(st.lists(FINITE, min_size=1, max_size=60))
    def test_matches_percent_format_on_any_finite_double(self, values):
        assert e8_fields(values) == expected(values)

    @given(st.integers(min_value=1, max_value=14), st.data())
    def test_exact_ties_round_half_even_like_python(self, twos, data):
        # odd / 2**twos is exactly q / 10**twos with q = odd * 5**twos, an
        # odd multiple of 5; with 10 digits, q ends in a 5 right after the
        # 9 digits kept: a tie. q * 10**j stays one while the float is exact.
        scale = 5**twos
        lo, hi = -(-(10**9) // scale), (10**10 - 1) // scale
        odd = data.draw(st.integers(lo // 2, (hi - 1) // 2)) * 2 + 1
        q = odd * scale
        values = [odd / 2**twos, *(float(q * 10**j) for j in range(9))]
        values += [-v for v in values]
        assert e8_fields(values) == expected(values)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=10**8, max_value=10**9 - 1),
                st.integers(min_value=-310, max_value=305),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_nearest_doubles_to_decimal_ties(self, ties):
        # the double nearest d.dddddddd5eK lies within about 1e-7 of the
        # tie, in units of the last digit kept: where the power of ten
        # is inexact, only the tie window keeps these exact
        values = [float(f"{m // 10**8}.{m % 10**8:08d}5e{k}") for m, k in ties]
        assert e8_fields(values) == expected(values)

    @pytest.mark.parametrize(
        "value",
        [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            2.2250738585072009e-308,
            2.2250738585072014e-308,
            1e-100,
            1e100,
            -1e-100,
            1e-300,
            1e300,
            1.7976931348623157e308,
            -1.7976931348623157e308,
            123456789.5,
            123456788.5,
            0.5,
            2.5e-5,
            1e-5,
            9.3e9,
            1.0,
        ],
    )
    def test_edge_values(self, value):
        assert e8_fields([value]) == expected([value])

    @pytest.mark.parametrize("exponent", [-320, -307, -300, -100, -9, -1, 0, 1, 8, 9, 99, 100, 299, 307])
    def test_values_that_round_up_to_the_next_decade(self, exponent):
        at = float(f"9.999999995e{exponent}")
        values = [at]
        for _ in range(3):
            values += [math.nextafter(values[-1], math.inf)]
        below = at
        for _ in range(3):
            below = math.nextafter(below, -math.inf)
            values.append(below)
        values += [-v for v in values] + [float(f"1e{exponent}"), float(f"9.99999999e{exponent}")]
        assert e8_fields(values) == expected(values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            e8_fields([1.0, bad])


CHUNK = table._CSV_CHUNK_ROWS


class TestWordTables:
    """The word tables, read back as text, against '%' formatting."""

    @staticmethod
    def text(*tables) -> list[str]:
        """The entries of word tables side by side, as the text they write
        once their NULs are deleted."""
        rows = np.stack(tables, axis=1).astype(np.uint32)
        return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]

    def test_every_four_digit_group(self):
        assert self.text(table._QUAD) == ["%04d" % q for q in range(10_000)]

    def test_every_sign_and_leading_digit(self):
        assert self.text(table._HEAD) == [f"{sign}{d}." for sign in ("", "-") for d in range(10)]

    def test_every_exponent(self):
        # from the subnormal 4.94065646e-324 up, 3-digit exponents included
        exponents = range(table._MIN_EXP, table._MAX_EXP + 1)
        assert self.text(table._EXP, table._EXP_END) == ["e%+03d," % k for k in exponents]
        assert self.text(table._EXP, table._ROW_END) == ["e%+03d\n" % k for k in exponents]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_every_exponent_through_the_formatter(self, sign):
        values = [sign * float(f"1.23456789e{k}") for k in range(-308, 309)]
        values += [sign * float(f"4.5e{k}") for k in range(-324, -308)]  # subnormals
        assert e8_fields(values) == expected(values)

    def test_every_four_digit_group_through_the_formatter(self):
        values = [float(f"{1 + q % 9}.{q:04d}{9999 - q:04d}e{q % 41 - 20}") for q in range(10_000)]
        assert e8_fields(values) == expected(values)


def sweeps_of(grids):
    """A (sweep, period) pair per (state, f_start, f_stop, n_points)."""
    pairs = []
    for n, f_start, f_stop, n_points in grids:
        cell = CONFIG.cell(n)
        pairs.append((dispersion_sweep(cell, f_start, f_stop, n_points), cell.period))
    return pairs


def tables_in_turn(pairs) -> list[str]:
    """The text of each table _dispersion_csvs writes, from its chunks in turn."""
    chunks = list(_dispersion_csvs(pairs))
    return ["".join(chunks[i :: len(pairs)]) for i in range(len(pairs))]


class TestDispersionCsv:
    @pytest.mark.parametrize(
        "n_points",
        [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1, 451, 15001],
    )
    def test_bytes_match_the_row_template(self, n_points):
        for n in (2, 3, 4):
            cell = CONFIG.cell(n)
            sweep = dispersion_sweep(cell, CONFIG.f_start, CONFIG.f_stop, n_points)
            chunks = list(_dispersion_csvs([(sweep, cell.period)]))
            assert len(chunks) == 1 + -(-n_points // table._CSV_CHUNK_ROWS)
            assert "".join(chunks) == oracle_csv(sweep, cell.period)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([2, 3, 4]),
        CELL_SCALES,
        R_SERIES,
        st.floats(min_value=1e9, max_value=9e9),
        st.floats(min_value=1.01, max_value=3.0),
        st.integers(min_value=2, max_value=400),
        st.integers(min_value=1, max_value=64),
    )
    def test_perturbed_lossy_cells_match_the_row_template(
        self, n, scales, r_series, f_start, span, n_points, chunk_rows
    ):
        cell = perturbed(CONFIG.cell(n), scales, r_series)
        sweep = dispersion_sweep(cell, f_start, f_start * span, n_points)
        with mock.patch.object(table, "_CSV_CHUNK_ROWS", chunk_rows):
            text = "".join(_dispersion_csvs([(sweep, cell.period)]))
        assert text == oracle_csv(sweep, cell.period)

    @pytest.mark.parametrize("n_points", [451, 2 * CHUNK + 3])
    def test_sweeps_on_one_grid_match_the_row_template(self, n_points):
        pairs = sweeps_of((n, CONFIG.f_start, CONFIG.f_stop, n_points) for n in (2, 3, 4))
        with mock.patch.object(table, "_e8_parts", wraps=table._e8_parts) as parts:
            texts = tables_in_turn(pairs)
        assert texts == [oracle_csv(sweep, period) for sweep, period in pairs]
        # f and k0 are formatted for the first table of each chunk only
        fields = [len(c.args[0]) for c in parts.call_args_list]
        assert fields == [6, 4, 4] * -(-n_points // CHUNK)

    def test_sweeps_on_different_grids_match_the_row_template(self):
        grids = [(4, CONFIG.f_start, CONFIG.f_stop, CHUNK + 5), (3, 8e9, 11e9, 2 * CHUNK + 7)]
        pairs = sweeps_of(grids)
        with mock.patch.object(table, "_e8_parts", wraps=table._e8_parts) as parts:
            texts = tables_in_turn(pairs)
        assert texts == [oracle_csv(sweep, period) for sweep, period in pairs]
        assert {len(c.args[0]) for c in parts.call_args_list} == {6}
