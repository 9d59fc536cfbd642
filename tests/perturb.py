"""Hypothesis strategies for calibrated cells pushed off their design values."""

from dataclasses import replace

from hypothesis import strategies as st

CELL_SCALES = st.tuples(*[st.floats(min_value=0.8, max_value=1.25)] * 4)
R_SERIES = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0))


def perturbed(base, scales, r_series):
    """base with its four reactive elements scaled and the given series loss."""
    return replace(
        base,
        l_r=base.l_r * scales[0],
        c_r=base.c_r * scales[1],
        l_l=base.l_l * scales[2],
        c_l=base.c_l * scales[3],
        r_series=r_series,
    )
