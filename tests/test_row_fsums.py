"""``inference._row_fsums`` is ``math.fsum`` of each row's masked
entries, bit for bit and error for error, on random rows and on rows at
the edges of its rounding certificate. (``test_simulate`` checks that
real replicate blocks leave few rows to its ``math.fsum`` fallback.)"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlkit.inference import _row_fsums

exact = settings(derandomize=True, database=None, deadline=None)

# Reporting a falsifying example imports libcst, whose import warns about
# mypy_extensions; under warnings-as-errors that would hide the example.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)


def fsum_outcome(entries):
    """``math.fsum`` of ``entries`` as its bytes, or the error it raises."""
    try:
        return np.float64(math.fsum(entries)).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def sums_outcome(values, mask):
    try:
        return _row_fsums(values, mask).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def assert_matches_fsum(rows):
    """``rows`` of (value, kept) pairs, padded to one block with
    unkept NaNs; each row alone and the whole block must give what
    ``math.fsum`` gives, the block raising the first row's error."""
    width = max(map(len, rows))
    values = np.full((len(rows), width), np.nan)
    mask = np.zeros((len(rows), width), dtype=bool)
    for r, row in enumerate(rows):
        for c, (value, kept) in enumerate(row):
            values[r, c], mask[r, c] = value, kept
    want = [fsum_outcome([v for v, kept in row if kept]) for row in rows]
    for r in range(len(rows)):
        assert sums_outcome(values[r : r + 1], mask[r : r + 1]) == want[r]
    errors = [w for w in want if isinstance(w, tuple)]
    assert sums_outcome(values, mask) == (errors[0] if errors else b"".join(want))


VALUES = st.one_of(
    st.floats(),  # infinities, NaN, subnormals and extremes included
    st.floats(-1e3, 1e3),
    st.integers(-(2**60), 2**60).map(lambda k: k * 2.0**-60),
)
ROW = st.lists(st.tuples(VALUES, st.booleans()), max_size=12)


@exact
@given(st.lists(st.tuples(ROW, st.booleans()), min_size=1, max_size=6))
def test_row_sums_equal_math_fsum(rows):
    # a flagged row also holds its kept entries negated: near cancellation
    assert_matches_fsum(
        [row + [(-v, True) for v, kept in row if kept] if mirror else row for row, mirror in rows]
    )


def row_of(*values):
    """A row that keeps all of ``values``."""
    return [(v, True) for v in values]


FIXED = {
    "cancels to zero": [row_of(1.0, 1e100, -1.0, -1e100), row_of(0.1, -0.1), row_of(3.0, -1.5, -1.5)],
    "negative zeros": [row_of(-0.0), row_of(-0.0, -0.0), row_of(-0.0, 0.0), row_of(1.0, -0.0)],
    "half-ulp ties": [
        row_of(1.0, 2**-53),  # to even: 1
        row_of(1.0 + 2**-52, 2**-53),  # to even: up
        row_of(1.0, 2**-53, 2**-150),  # a far tail breaks the tie
        row_of(1.5, 2**-53, 2**-150),
        row_of(1.5, 2**-53, -(2**-150)),
    ],
    "powers of two": [
        row_of(1.0, -(2**-54)),  # a tie below 1, to even: 1
        row_of(1.0, -(2**-54), -(2**-150)),  # just below that tie
        row_of(0.75, 0.25),
        row_of(2.0**52, 0.5, -(2.0**52), 2**-54, 2**-200),  # cancelled: inexact tails
    ],
    "extraction headroom": [
        row_of(0.75, 0.75, 0.75 + 2**-52, 2**-60),
        row_of(-0.75 - 2**-52, -0.75, -0.75, -(2**-60)),
    ],
    "subnormals": [row_of(5e-324, 5e-324), row_of(2**-1022, -5e-324), row_of(1e-310, 1e-310, -3e-310)],
    "1e300 mixes": [row_of(1e300, 1e-300, -1e300), row_of(1e300, 1e300, 1.0), row_of(-1e-300, 1e300)],
    "empty and unkept": [[], [(1.0, False), (2.0, False)], [(np.inf, False), (3.0, True)]],
    "non-finite": [row_of(np.inf, 1.0), row_of(-np.inf, np.inf), row_of(np.nan, 1.0), row_of(1.0, np.nan)],
    "overflow": [row_of(1.7e308, 1.7e308), row_of(1.7e308, 1.7e308, -1.7e308), row_of(1.7e308, -1.7e308)],
}


@pytest.mark.parametrize("case", FIXED)
def test_fixed_rows_equal_math_fsum(case):
    assert_matches_fsum(FIXED[case])
    for row in FIXED[case]:
        assert_matches_fsum([row])


def test_zero_width_rows():
    assert _row_fsums(np.empty((2, 0)), np.empty((2, 0), dtype=bool)).tobytes() == bytes(16)
