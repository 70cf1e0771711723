"""The chunked coefficient path against the whole-array path, bit for bit.

Every consumer reads a spec's streams block by block (``multfunc._stream_blocks``,
through ``multfunc._coefficients``): the checkpointed partial sums and the
series table's Dirichlet sums.  Here each is compared with the whole-array
path it replaced -- ``coefficient_stream`` or ``integer_coefficient_stream``
summed by ``prefix_sums_at``, ``exact_prefix_sums_at`` and
``dirichlet._dirichlet_sums`` -- for every kind, exact and float, at limits
around the block and chunk edges, with exceptions at 2, at small odd primes,
at the first prime above sqrt(limit) (the first f(p) read past the table)
and at the largest prime <= limit.
"""

import math
import tracemalloc

import numpy as np
import pytest

import multlab.dirichlet as dl
from multlab.dirichlet import ComplexArgument, _divisor_tail, _power_tail, _read, _series_table
from multlab.exponent import checkpoint_partial_sums
from multlab.multfunc import (
    DerivedFunctionKind,
    _stream_blocks,
    coefficient_stream,
    constant_spec,
    integer_coefficient_stream,
    liouville_spec,
    power_decay_spec,
    spec_is_pm1,
)
from multlab.sieve import build_sieve, primes_up_to
from multlab.summation import (
    _BLOCK,
    checkpoint_schedule,
    exact_prefix_sums_at,
    prefix_sums_at,
)

LIMITS = [1, 2, 3, 4, 2**15 - 1, 2**15 + 1, 2**16 - 1, 2**16 + 1, 2**17 + 1, 290001]
KINDS = tuple(DerivedFunctionKind)


def _edge_primes(limit: int, sieve) -> tuple[int, int]:
    """(the first prime above isqrt(limit), the largest prime <= limit, or 2)."""
    primes = primes_up_to(sieve.limit, sieve)
    first = int(primes[np.searchsorted(primes, math.isqrt(limit), side="right")])
    below = primes_up_to(limit, sieve)
    return first, int(below[-1]) if below.size else 2


def _specs(limit: int, sieve):
    """An exact and two float specs with exceptions at 2, 3, 5, and at both edge primes."""
    first, last = _edge_primes(limit, sieve)
    return [
        liouville_spec({2: 0.0, 5: 1.0, first: 0.0, last: 1.0}),
        liouville_spec({3: 0.0, first: 1.0}),
        constant_spec(0.5, {2: -0.25, 3: 0.75, first: -0.5, last: 1.0}),
        power_decay_spec(0.5, 0.5, {3: 0.25, 5: -1.0, first: 0.9, last: -0.3}),
    ]


def _whole(spec, kind, limit, sieve, exact):
    stream = integer_coefficient_stream if exact else coefficient_stream
    return stream(spec, kind, limit, sieve)


@pytest.mark.parametrize("limit", LIMITS)
def test_blocks_are_the_whole_stream_in_slices(limit, sieve_1e6):
    for spec in _specs(limit, sieve_1e6):
        for exact in {spec_is_pm1(spec), False}:
            wholes = [_whole(spec, kind, limit, sieve_1e6, exact) for kind in KINDS]
            starts = []
            for lo, blocks in _stream_blocks(spec, KINDS, limit, sieve_1e6, exact):
                starts.append(lo)
                for whole, block in zip(wholes, blocks):
                    assert block.dtype == whole.dtype
                    assert block.tobytes() == whole[lo : lo + _BLOCK].tobytes(), (spec, lo)
            assert starts == list(range(0, limit, _BLOCK))


@pytest.mark.parametrize("limit", LIMITS)
def test_checkpointed_sums_equal_the_whole_array_path(limit, sieve_1e6):
    # the default grid, and one with a checkpoint at every block edge and
    # its neighbours, which ends before x_max, so the last blocks go unbuilt
    edges = {b + d for b in range(_BLOCK, limit, _BLOCK) for d in (-1, 0, 1)}
    custom = sorted(x for x in edges | {1, 2, (limit + 1) // 2} if 1 <= x <= max(1, limit - 1))
    for spec in _specs(limit, sieve_1e6):
        exact = spec_is_pm1(spec)
        for kind in KINDS:
            whole = _whole(spec, kind, limit, sieve_1e6, exact)
            for schedule in (checkpoint_schedule(limit), np.array(custom, dtype=np.int64)):
                series = checkpoint_partial_sums(spec, kind, limit, sieve_1e6, schedule)
                summed = (exact_prefix_sums_at if exact else prefix_sums_at)(whole, schedule)
                assert series.exact == exact
                assert series.x_values.tobytes() == schedule.tobytes()
                assert series.values.tobytes() == summed.astype(np.float64).tobytes(), (spec, kind)


@pytest.mark.parametrize("limit", LIMITS)
def test_table_sums_equal_the_whole_array_path(limit, sieve_1e6):
    # values, and the allowance inside each rigorous budget, from one pass
    # over every kind and point, against one _dirichlet_sums per point
    points = [ComplexArgument(2.0), ComplexArgument(1.5, 4.0), ComplexArgument(0.8)]
    for spec in _specs(limit, sieve_1e6):
        exact = spec_is_pm1(spec)
        table = _series_table(spec, limit, None, sieve_1e6, [(k, s) for s in points for k in KINDS])
        wholes = [_whole(spec, kind, limit, sieve_1e6, exact) for kind in KINDS]
        for point in points:
            for kind, (value, allowance) in zip(KINDS, dl._dirichlet_sums(wholes, limit, point)):
                ev = _read(table, kind, point)
                assert (ev.value.real.hex(), ev.value.imag.hex()) == (
                    value.real.hex(), value.imag.hex()
                ), (spec, kind, point)
                if point.sigma > 1.0:
                    divisor = kind in (DerivedFunctionKind.H_CONV, DerivedFunctionKind.G_CONV)
                    tail = (_divisor_tail if divisor else _power_tail)(limit, point.sigma)
                    assert ev.tail_bound.hex() == (tail + 4.0 * dl._EPS * allowance).hex()
                else:
                    assert ev.heuristic and ev.tail_bound == math.inf


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def sieve_2_23():
    sieve = build_sieve(2**23)
    sieve.spf  # sieved here, not inside the first traced stream
    return sieve


@pytest.mark.parametrize(
    "spec, kind, itemsize",
    [
        (liouville_spec(), DerivedFunctionKind.H_CONV, 2),
        (power_decay_spec(0.5, 0.5, {3: 0.25}), DerivedFunctionKind.F_PLAIN, 8),
    ],
    ids=["H-int16", "F-float64"],
)
def test_checkpointed_sums_hold_about_half_of_the_stream(spec, kind, itemsize, sieve_2_23):
    # a(1..limit/2) is kept, plus one scratch chunk and a chunk's
    # temporaries (among them two intp index arrays of 2^15 entries), so
    # the peak nears half the stream as the limit grows: at 2^23 it is
    # below 0.6 of the whole stream's bytes, which the whole-array path
    # held (and more)
    limit = 2**23
    peak = _traced_peak(lambda: checkpoint_partial_sums(spec, kind, limit, sieve_2_23))
    assert peak < 0.6 * limit * itemsize, peak / (limit * itemsize)


def test_table_pass_holds_about_half_of_each_stream(sieve_2_23):
    # a pass keeps a(1..N/2) of each kind, plus one scratch chunk per kind,
    # a chunk's temporaries and each point's slice of weights: at N = 2^21
    # below 0.6 of four whole float64 streams (a series store that held the
    # four whole streams peaked at 1.3 of them at N = 2^18)
    N = 2**21
    spec = power_decay_spec(0.5, 0.5, {3: 0.25})
    sums = [(kind, s) for s in (2.0, 3.0, complex(2.5, 3.0)) for kind in KINDS]
    peak = _traced_peak(lambda: _series_table(spec, N, 10**3, sieve_2_23, sums))
    assert peak < 0.6 * 4 * N * 8, peak / (4 * N * 8)
