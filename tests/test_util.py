"""Exact summation: edge policy, agreement with math.fsum, bounded memory."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_lab import util
from liouville_lab.util import fsum, fsum_complex

import oracles

B = util._FSUM_BLOCK
DBL_MAX = np.finfo(np.float64).max
TINY = 2.0 ** -1074


def same_double(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("values, expected", [
    ([], 0.0),
    ([-0.0], 0.0),
    ([-0.0] * (B + 1), 0.0),
    ([TINY] * 7, 7 * TINY),
    ([TINY, -3 * TINY, 2.0 ** -1022], 2.0 ** -1022 - 2 * TINY),
    ([1.0, 1e100, 1.0, -1e100], 2.0),
    ([1.0, 2.0 ** -53], 1.0),  # tie, rounds to even
    ([1.0 + 2.0 ** -52, 2.0 ** -53], 1.0 + 2.0 ** -51),  # tie, rounds to even
    ([1.0, 2.0 ** -53, TINY], 1.0 + 2.0 ** -52),  # just past the tie
    ([DBL_MAX, 2.0 ** 969], DBL_MAX),
])
def test_edge_values(values, expected):
    assert same_double(fsum(np.array(values, dtype=np.float64)), expected)


def test_intermediate_overflow_is_a_deliberate_difference():
    values = [1e308, 1e308, -1e308]
    assert fsum(np.array(values)) == 1e308
    with pytest.raises(OverflowError):
        math.fsum(values)


@pytest.mark.parametrize("values", [[1.7e308, 1.7e308], [DBL_MAX, 2.0 ** 970], [-DBL_MAX] * 3])
def test_total_past_the_largest_double_raises(values):
    with pytest.raises(OverflowError):
        fsum(np.array(values))


@pytest.mark.parametrize("position", [0, B - 1, B, 3 * B + 2])
def test_nonfinite_input_is_handed_to_math_fsum(position):
    base = np.full(3 * B + 3, 0.5)
    for special, expected in ((np.inf, math.inf), (-np.inf, -math.inf)):
        values = base.copy()
        values[position] = special
        assert fsum(values) == expected
    values = base.copy()
    values[position] = np.nan
    assert math.isnan(fsum(values))
    values = base.copy()
    values[position], values[-1 - position] = np.inf, -np.inf
    with pytest.raises(ValueError, match="inf"):
        fsum(values)


@pytest.mark.parametrize("mantissa", [2 ** 53 - 1, -(2 ** 53 - 1), -(2 ** 52)])
def test_full_blocks_of_extreme_mantissas(mantissa):
    # every element in one bin with the largest |mantissa|: the bin totals
    # reach their stated bound in each block
    values = np.full(5 * B + 7, math.ldexp(mantissa, 900))
    assert fsum(values) == oracles.exact_sum(values)


def test_iterables_go_to_math_fsum():
    values = [0.1] * 10 + [1e100, -1e100]
    assert fsum(values) == math.fsum(values)
    assert fsum(v for v in values) == math.fsum(values)


def test_fsum_complex_is_two_exact_sums():
    z = np.exp(1j * np.arange(3 * B + 1)) * np.logspace(-300, 300, 3 * B + 1)
    assert fsum_complex(z) == complex(oracles.exact_sum(z.real), oracles.exact_sum(z.imag))
    assert fsum_complex([1 + 1e100j, 1 - 1e100j]) == 2


LENGTHS = [0, 1, 2, B - 1, B, B + 1, 3 * B + 17]


@st.composite
def arrays(draw):
    """Arrays of mixed exponents in [-1074, 1000], with cancelling pairs."""
    n = draw(st.sampled_from(LENGTHS))
    lo = draw(st.integers(-1074, 1000))
    hi = draw(st.integers(lo, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mant = rng.integers(-(2 ** 53) + 1, 2 ** 53, size=n)
    exps = rng.integers(lo, hi + 1, size=n)
    values = np.ldexp(mant.astype(np.float64), exps - 52)  # ldexp rounds to subnormals
    if n and draw(st.booleans()):
        half = rng.permutation(n)[: n // 2]
        values[half] = -values[rng.integers(0, n, size=len(half))]
    layout = draw(st.sampled_from(["float64", "reversed", "real", "imag", "float32", "int64"]))
    if layout == "reversed":
        return values[::-1]
    if layout in ("real", "imag"):
        return getattr(values + 1j * values[::-1], layout)
    if layout == "float32":
        return np.clip(values, -2.0 ** 127, 2.0 ** 127).astype(np.float32)
    if layout == "int64":
        return mant
    return values


@settings(max_examples=120, deadline=None)
@given(arrays())
def test_fsum_matches_the_oracle(values):
    assert fsum(values) == oracles.exact_sum(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-2.0 ** 1000, max_value=2.0 ** 1000), max_size=40))
def test_fsum_matches_math_fsum_on_float_lists(values):
    assert fsum(np.array(values, dtype=np.float64)) == math.fsum(values)


@st.composite
def pieces(draw):
    """An array (from arrays(), or int8) and its cut into consecutive pieces
    at block boundaries, random points and repeated points (empty pieces)."""
    if draw(st.booleans()):
        values = draw(arrays())
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        values = rng.integers(-128, 128, size=draw(st.sampled_from(LENGTHS)), dtype=np.int8)
    n = len(values)
    cut = st.sampled_from([0, 1, B - 1, B, B + 1, 2 * B, n]) | st.integers(0, n)
    cuts = sorted(min(c, n) for c in draw(st.lists(cut, max_size=6)))
    return values, [values[a:b] for a, b in zip([0] + cuts, cuts + [n])]


@settings(max_examples=120, deadline=None)
@given(pieces())
def test_exact_sum_of_pieces_is_fsum_of_the_whole(case):
    values, parts = case
    acc = util.ExactSum()
    for i, part in enumerate(parts):
        acc.add(part)
        assert acc.value() == oracles.exact_sum(np.concatenate(parts[:i + 1]))
    assert acc.value() == fsum(values) == oracles.exact_sum(values)


@pytest.mark.parametrize("specials", [
    [np.inf], [-np.inf], [np.nan], [np.inf, np.nan], [np.nan, -np.inf],
    [np.inf, -np.inf], [np.inf, np.nan, -np.inf], [np.inf, np.inf, np.nan],
])
def test_nonfinite_in_any_piece_is_math_fsum_of_the_whole(specials):
    # one special value per piece, pieces cut at and inside block boundaries
    values = np.full(3 * B + 3, 0.5)
    cuts = [0, B, B + 5, 3 * B + 3]
    for (a, b), special in zip(zip(cuts, cuts[1:]), specials):
        values[(a + b) // 2] = special
    acc = util.ExactSum()
    for a, b in zip(cuts, cuts[1:]):
        acc.add(values[a:b])
    try:
        expected = math.fsum(values.tolist())
    except ValueError:
        with pytest.raises(ValueError, match="inf"):
            acc.value()
    else:
        got = acc.value()
        assert got == expected or (math.isnan(got) and math.isnan(expected))


def _recording_extract(monkeypatch):
    # the blocks handed to error-free extraction, by their first element
    seen = []
    extract = util._extract

    def recorded(block, *args):
        seen.append(float(block[0]))
        return extract(block, *args)
    monkeypatch.setattr(util, "_extract", recorded)
    return seen


def test_blocks_too_wide_for_extraction_fall_back(monkeypatch):
    # a block spanning 2^-60 to 2^60 needs more than the passes allowed and
    # goes to the bins whole; the narrow block after it is extracted
    seen = _recording_extract(monkeypatch)
    wide = np.ldexp(np.linspace(1.0, 2.0, B), np.tile([-60, 60, 0, 13], B // 4))
    narrow = np.linspace(1.0, 3.0, B)
    values = np.concatenate([wide, narrow])
    assert fsum(values) == oracles.exact_sum(values)
    assert seen == [narrow[0]]
    # a top within 2^b of overflow falls back too
    seen.clear()
    huge = np.zeros(B)
    huge[:4] = [2.0 ** 1008, -3.0, 2.0 ** 1007, -(2.0 ** 1008)]
    assert fsum(huge) == oracles.exact_sum(huge)
    assert seen == []


def test_all_zero_blocks_add_nothing(monkeypatch):
    seen = _recording_extract(monkeypatch)
    values = np.zeros(3 * B + 5)
    values[B + 7] = -0.0
    values[-1] = 0.25
    assert same_double(fsum(values[:3 * B]), 0.0)
    assert fsum(values) == 0.25
    assert seen == [0.0]  # only the last, partial block holds a nonzero


def test_alternating_reciprocals_across_block_edges():
    # +-1/n over [1e4, 1e4 + 5B): two passes per block, cut into pieces at
    # and next to block edges
    n = np.arange(10**4, 10**4 + 5 * B, dtype=np.float64)
    values = 1.0 / n
    values[1::2] *= -1
    assert fsum(values) == oracles.exact_sum(values)
    for cuts in ([B], [B - 1, B + 1], [3, 2 * B + 1, 4 * B - 2]):
        acc = util.ExactSum()
        for a, b in zip([0] + cuts, cuts + [len(values)]):
            acc.add(values[a:b])
        assert acc.value() == oracles.exact_sum(values), cuts


@pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
def test_nonfinite_inside_an_extracted_block(special):
    # the rest of the block and the blocks around it are narrow
    values = 1.0 / np.arange(1, 3 * B + 1, dtype=np.float64)
    values[B + B // 2] = special
    got = fsum(values)
    expected = math.fsum(values.tolist())
    assert got == expected or (math.isnan(got) and math.isnan(expected))


def test_empty_accumulator_is_positive_zero():
    acc = util.ExactSum()
    assert same_double(acc.value(), 0.0)
    acc.add(np.zeros(0))
    acc.add(np.array([-0.0]))
    assert same_double(acc.value(), 0.0)


def test_peak_allocation_is_bounded():
    values = np.random.default_rng(0).standard_normal(2 * 10 ** 6)
    tracemalloc.start()
    try:
        fsum(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20  # a .tolist() copy alone would be over 60 MB


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=util._FSUM_SMALL))
@settings(max_examples=100, deadline=None)
def test_short_arrays_give_what_exact_sum_gives(values):
    # fsum hands them to math.fsum: the same exactly rounded double
    arr = np.array(values, dtype=np.float64)
    acc = util.ExactSum()
    acc.add(arr)
    try:
        want = acc.value()
    except OverflowError:
        with pytest.raises(OverflowError):
            fsum(arr)
        return
    assert same_double(fsum(arr), want)
