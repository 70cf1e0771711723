"""Exactly rounded sums: ``fsum_array`` and every prefix sum against ``math.fsum``.

The error-free extraction, and the raw pieces that short chunks keep
instead, must give the very float ``math.fsum`` gives, so
every comparison is on the bit pattern (``struct.pack('<d', ...)``), which
also tells signed zeros apart.  Non-finite and overflowing input must give
the same value or the same exception.
"""

import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlab import summation
from multlab.summation import (
    _RAW_MAX,
    _ExactSum,
    _IntSum,
    _prefix_sums,
    checkpoint_schedule,
    exact_prefix_sums_at,
    fsum_array,
    prefix_sums_at,
)

#: slice length of the extraction (multlab.summation._BLOCK)
BLOCK = 1 << 15

#: subnormals, signed zeros, the smallest normal, ulp-scale and halfway
#: terms (1 + 2^-53 ties to even), and terms that cancel exactly
SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1.0, -1.0, 2.0 ** -53, -(2.0 ** -53), 2.0 ** -54, 2.0 ** -105, 3.0 * 2.0 ** -53,
    1e16, -1e16, 1e300, -1e300, 1e-300, 0.1, -0.1,
]

finite = st.floats(allow_nan=False, allow_infinity=False)
terms = st.one_of(finite, st.sampled_from(SPECIAL))
term_lists = st.lists(terms, max_size=60)
#: long enough that chunks of more than ``_RAW_MAX`` terms take the extraction
long_term_lists = st.lists(terms, max_size=6 * _RAW_MAX)
#: cuts on both sides of the raw rule's edge, and anywhere
raw_edge_cuts = st.lists(
    st.one_of(st.sampled_from([_RAW_MAX - 1, _RAW_MAX, _RAW_MAX + 1]), st.integers(0, 6 * _RAW_MAX)),
    max_size=8,
)
#: also non-finite and near-overflow terms, which ``math.fsum`` meets raw
wild_terms = st.one_of(
    terms,
    st.sampled_from([math.inf, -math.inf, math.nan, 1.7e308, -1.7e308, 2.0 ** 1023]),
)


def outcome(fn, *args):
    """Bit patterns of the result(s), or the exception's type and message."""
    try:
        value = fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)
    return b"".join(struct.pack("<d", v) for v in np.atleast_1d(value))


def assert_same_as_fsum(values):
    assert outcome(fsum_array, values) == outcome(math.fsum, values.tolist())


@settings(max_examples=300, deadline=None)
@given(term_lists)
def test_fsum_array_is_math_fsum(xs):
    assert_same_as_fsum(np.array(xs, dtype=np.float64))


@pytest.mark.parametrize(
    "values",
    [
        np.ones((2, 2)),
        np.array([[0.1, 1e16], [-1e16, 0.2]]),
        np.array(2.5),
        np.array([[1, 2], [3, 4]], dtype=np.int64),
        np.arange(6, dtype=np.float32).reshape(2, 3),
    ],
    ids=["ones-2d", "cancel-2d", "0d", "int-2d", "float32-2d"],
)
def test_fsum_array_of_other_shapes_and_dtypes_sums_the_flat_values(values):
    # a 2-D array used to reach math.fsum as a list of rows (TypeError)
    assert outcome(fsum_array, values) == outcome(math.fsum, np.ravel(values).tolist())


@settings(max_examples=200, deadline=None)
@given(term_lists, terms)
def test_exact_cancellation_leaves_the_extra_term(xs, extra):
    values = np.array(xs + [extra] + [-x for x in reversed(xs)], dtype=np.float64)
    got = outcome(fsum_array, values)
    assert got == outcome(math.fsum, values.tolist())
    if isinstance(got, bytes):  # no intermediate overflow
        assert struct.unpack("<d", got)[0] == extra


@settings(max_examples=25, deadline=None)
@given(
    st.lists(terms, min_size=1, max_size=40),
    st.integers(BLOCK - 3, 2 * BLOCK + 5),
    st.booleans(),
)
def test_tiled_samples_cross_the_block_boundary(xs, length, flip):
    values = np.resize(np.array(xs, dtype=np.float64), length)
    if flip:
        values[length // 2 :] *= -1.0
    assert_same_as_fsum(values)


@settings(max_examples=200, deadline=None)
@given(term_lists, term_lists)
def test_strided_views(re, im):
    size = min(len(re), len(im))
    logs = np.array(re[:size]) + 1j * np.array(im[:size])
    assert_same_as_fsum(logs.real)
    assert_same_as_fsum(logs.imag)
    values = np.array(re, dtype=np.float64)
    assert_same_as_fsum(values[::2])
    assert_same_as_fsum(values[1::3])
    assert_same_as_fsum(values[::-1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(terms, st.sampled_from([math.inf, -math.inf, math.nan, 1.7e308]))))
def test_non_finite_and_overflowing_input_behaves_as_fsum(xs):
    assert_same_as_fsum(np.array(xs, dtype=np.float64))


def chunked_sum(values, cuts):
    """``_ExactSum`` fed ``values`` in the chunks that ``cuts`` mark off."""
    bounds = sorted(min(c, values.size) for c in cuts)
    total = _ExactSum()
    for lo, hi in zip([0] + bounds, bounds + [values.size]):
        total.add(values[lo:hi])
    return total.value()


@settings(max_examples=400, deadline=None)
@given(st.lists(wild_terms, max_size=60), st.lists(st.integers(0, 60), max_size=8))
def test_exact_sum_of_any_chunking_is_math_fsum(xs, cuts):
    values = np.array(xs, dtype=np.float64)
    assert outcome(chunked_sum, values, cuts) == outcome(math.fsum, xs)


@settings(max_examples=300, deadline=None)
@given(long_term_lists, raw_edge_cuts)
def test_raw_and_extracted_chunks_of_any_length_are_math_fsum(xs, cuts):
    values = np.array(xs, dtype=np.float64)
    assert_same_as_fsum(values)
    assert outcome(chunked_sum, values, cuts) == outcome(math.fsum, xs)
    # chunks of _RAW_MAX - 1, _RAW_MAX and _RAW_MAX + 1 terms, one after another
    edges = np.cumsum([_RAW_MAX - 1, _RAW_MAX, _RAW_MAX + 1]).tolist()
    assert outcome(chunked_sum, values, edges) == outcome(math.fsum, xs)
    boundaries = np.array(sorted(min(c, values.size) for c in cuts + edges + [values.size]))
    assert outcome(prefix_sums_at, values, boundaries) == outcome(
        prefix_sums_oracle, values, boundaries
    )


def test_short_chunks_are_kept_raw_and_longer_ones_extracted():
    # a later change of _RAW_MAX must keep both paths in use (checked first,
    # so a huge constant allocates nothing): m finite terms stay m raw
    # floats up to _RAW_MAX, and past it become a few pieces
    assert 0 < _RAW_MAX < BLOCK
    for m in (1, _RAW_MAX, _RAW_MAX + 1, 4 * _RAW_MAX):
        chunk = 0.1 * np.arange(1, m + 1)
        total = _ExactSum()
        total.add(chunk)
        if m <= _RAW_MAX:
            assert total.pieces == chunk.tolist()
        else:
            assert 0 < len(total.pieces) <= 4, m
        assert struct.pack("<d", total.value()) == struct.pack("<d", math.fsum(chunk.tolist()))


@pytest.mark.parametrize(
    "xs",
    [
        [1.7e308, 1.7e308, -1.7e308],
        [math.inf, -math.inf],
        [math.inf, 1.0, math.inf],
        [math.nan, 1.0],
        [1e16, 1.0, -1e16, 1.0, 1e16, 1.0, -1e16],
        [1.0, 2.0 ** -53],
        [1.0, 2.0 ** -53, 2.0 ** -105],
        [-0.0, -0.0],
        [],
    ],
)
def test_fixed_cases_match_fsum(xs):
    assert_same_as_fsum(np.array(xs, dtype=np.float64))


def prefix_sums_oracle(values, boundaries):
    """The ``math.fsum`` of each prefix on its own: one rounding per prefix."""
    return [math.fsum(values[:b].tolist()) for b in boundaries]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(wild_terms, max_size=60),
    st.lists(st.integers(0, 60), max_size=12),
    st.integers(0, 2 * BLOCK),
)
def test_prefix_sums_at_is_the_fsum_loop(xs, cuts, pad):
    values = np.array(xs, dtype=np.float64)
    if pad and xs:
        # a long last segment crosses the block boundary
        values = np.resize(values, len(xs) + pad)
    boundaries = np.array(sorted(min(c, values.size) for c in cuts + [values.size]))
    assert outcome(prefix_sums_at, values, boundaries) == outcome(
        prefix_sums_oracle, values, boundaries
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(wild_terms, max_size=60),
    st.lists(st.integers(0, 60), max_size=12),
    st.integers(1, 70),
)
def test_prefix_sums_of_any_slicing_are_fsum_of_each_prefix(xs, cuts, block):
    values = np.array(xs, dtype=np.float64)
    counts = sorted(min(c, values.size) for c in cuts)
    calls = []

    def terms(lo, hi):
        calls.append((lo, hi))
        return values[lo:hi].copy()

    with mock.patch.object(summation, "_BLOCK", block):
        got = outcome(_prefix_sums, terms, counts)
    assert got == outcome(prefix_sums_oracle, values, counts)
    # slices come in order, each of at most _BLOCK terms, none past the last count
    assert [lo for lo, _ in calls] == [0, *(hi for _, hi in calls)][: len(calls)]
    assert all(0 < hi - lo <= block for lo, hi in calls)
    done = calls[-1][1] if calls else 0
    assert done <= max(counts, default=0)
    if isinstance(got, bytes):
        assert done == max(counts, default=0)


def edge_slice(m, e_min, spread, sign, seed):
    """m terms of one sign, full 53-bit mantissas, spanning the binades
    e_min, ..., e_min + spread exactly (frexp exponents), in random order."""
    rng = np.random.default_rng(seed)
    exps = rng.integers(e_min, e_min + spread + 1, size=m)
    exps[:2] = e_min, e_min + spread
    values = np.ldexp(0.5 + rng.random(m) / 2, exps)
    return sign * values[rng.permutation(m)]


def extraction_path(values, cuts):
    """(bits of each cut's value, whether the general loop ran): the loop
    reads max|r| by np.abs after each level, the one certified level never."""
    with mock.patch.object(summation.np, "abs", wraps=np.abs) as spy:
        got = _ExactSum().add(values, cuts)
    return [struct.pack("<d", v) for v in got], spy.call_count > 0


@settings(max_examples=150, deadline=None)
@given(
    st.integers(_RAW_MAX + 1, 4 * _RAW_MAX),
    st.integers(0, 2 ** 32 - 1),
    st.sampled_from([1.0, -1.0]),
    st.integers(0, 1),
    st.sampled_from(["none", "zero", "subnormal"]),
    st.lists(st.integers(0, 4 * _RAW_MAX), max_size=6),
)
def test_one_certified_level_at_its_edge_is_math_fsum(m, seed, sign, past, odd, extra):
    # a one-signed, zero-free slice with normal terms and a binade spread
    # of at most 52 - 2M takes one level; one binade more, a zero or a
    # subnormal sends it to the general loop.  Both give fsum's bits at
    # every cut, cuts at 0, at the end and repeated among them
    width = (m + 1).bit_length()
    spread = 52 - 2 * width + past
    rng = np.random.default_rng(seed)
    e_min = int(rng.integers(-1021, 1000 - width - spread + 1))
    values = edge_slice(m, e_min, spread, sign, seed)
    if odd != "none":
        values[rng.integers(2, m)] = 0.0 if odd == "zero" else sign * 5e-324
    cuts = sorted([0, 0, m, m, m // 2, m // 2, *(min(c, m) for c in extra)])
    bits, loop = extraction_path(values, cuts)
    assert bits == [struct.pack("<d", math.fsum(values[:c].tolist())) for c in cuts]
    assert loop == (past or odd != "none")
    assert outcome(prefix_sums_at, values, cuts) == outcome(prefix_sums_oracle, values, cuts)


def test_one_certified_level_takes_the_smallest_normal():
    # amin in [2^-1022, 2^-1021) still certifies; a subnormal amin does
    # not, though the spread stays well inside the limit
    m = 3 * _RAW_MAX
    values = edge_slice(m, -1021, 4, 1.0, 3)
    for tiny, loop in ((2.0 ** -1022, False), (2.0 ** -1023, True)):
        values[0] = tiny
        bits, took_loop = extraction_path(values, [m])
        assert bits == [struct.pack("<d", math.fsum(values.tolist()))]
        assert took_loop == loop


def test_prefix_sums_take_each_slice_in_one_call():
    # the default grid to 10^6 has 68 counts, 47 of them in the first
    # slice: one accumulator call per slice reads them all
    counts = checkpoint_schedule(10 ** 6)
    assert counts.size == 68 and np.count_nonzero(counts <= BLOCK) == 47
    slices = -(-10 ** 6 // BLOCK)
    rng = np.random.default_rng(46)
    floats = rng.random(10 ** 6) - 0.25
    ints = rng.integers(-1, 2, size=10 ** 6).astype(np.int8)
    for total, values in ((_ExactSum(), floats), (_IntSum(), ints)):
        calls = []
        original = total.add

        def counting(chunk, cuts=(), original=original):
            calls.append(len(cuts))
            return original(chunk, cuts)

        total.add = counting
        got = _prefix_sums(lambda lo, hi: values[lo:hi], counts, total)
        assert calls[0] == 47 and len(calls) == slices
        if values is ints:
            assert got.tolist() == np.cumsum(ints, dtype=np.int64)[counts - 1].tolist()
        else:
            assert outcome(lambda: got) == outcome(prefix_sums_oracle, floats, counts)


def test_a_cut_at_zero_reads_no_term_of_its_slice():
    # one term and 64 padding terms take the extraction: a cut at 0 is the
    # running value before the slice, not the slice's own pieces
    values = np.resize(np.array([0.1]), 1 + _RAW_MAX)
    total = _ExactSum()
    assert total.add(values, [0]) == [0.0]
    assert total.value() == math.fsum(values.tolist())
    assert prefix_sums_at(values, [0, 0, values.size]).tolist() == [
        0.0, 0.0, math.fsum(values.tolist())
    ]
    ints = np.resize(np.array([3], dtype=np.int8), 1 + _RAW_MAX)
    assert _IntSum().add(ints, [0]) == [0]
    assert exact_prefix_sums_at(ints, [0, 0, ints.size]).tolist() == [0, 0, 3 * ints.size]


def test_checkpoint_schedule_bounds_its_steps():
    # about 9e9 steps from 10 to 10^5 would stall every trace: rejected at once
    with pytest.raises(ValueError, match="more than 1000000 steps"):
        checkpoint_schedule(10**5, 10, 1.000000001)
    # a ratio whose first step overflows the running value ends the grid
    for ratio in (1e308, math.inf, 10.0**5):
        assert checkpoint_schedule(10**5, 10, ratio).tolist() == [10, 10**5]
    # past x_max the first point is x_max; x0 = x_max takes no step
    assert checkpoint_schedule(50, 10**9, 1.0 + 1e-12).tolist() == [50]
    assert checkpoint_schedule(7, 7, 1.0 + 1e-12).tolist() == [7]
