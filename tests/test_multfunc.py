"""Prime-spec functions against brute-force divisor-sum oracles.

The library *never* computes h = 1*f or g = 1*(f mu^2) by enumerating
divisors -- it works one prime power at a time.  These tests therefore
rebuild both transforms the slow literal way (factorize, enumerate divisor
grids, fsum) and demand agreement, for fixed specs and for randomly drawn
ones.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlab.dirichlet import ComplexArgument, euler_product_G
from multlab.multfunc import (
    LIOUVILLE,
    DerivedFunctionKind,
    PrimeFunctionSpec,
    coefficient_stream,
    constant_spec,
    eval_f,
    eval_f_mu2,
    eval_g,
    eval_h,
    f_at_prime,
    f_at_primes,
    integer_coefficient_stream,
    liouville_spec,
    power_decay_spec,
    spec_is_pm1,
    _base_value,
    _f_slice,
    _is_prime_int,
    _prime_values,
    _visited,
)
from multlab.cli import load_sieve_cache, save_sieve_cache
from multlab.sieve import factorize, moebius, primes_up_to


# --------------------------------------------------------------- oracles


def divisors_of(n, sieve):
    divs = [1]
    for p, a in factorize(n, sieve):
        divs = [d * p**k for d in divs for k in range(a + 1)]
    return sorted(divs)


def f_oracle(spec, n, sieve):
    """f(n) straight from the definition: product of f(p)^a."""
    out = 1.0
    for p, a in factorize(n, sieve):
        out *= f_at_prime(spec, p) ** a
    return out


def h_oracle(spec, n, sieve):
    """(1*f)(n) by literal divisor enumeration."""
    return math.fsum(f_oracle(spec, d, sieve) for d in divisors_of(n, sieve))


def g_oracle(spec, n, sieve):
    """(1*(f mu^2))(n) by literal divisor enumeration."""
    return math.fsum(
        f_oracle(spec, d, sieve)
        for d in divisors_of(n, sieve)
        if moebius(d, sieve) != 0
    )


def random_spec(rng):
    kind = rng.integers(0, 3)
    primes_pool = [2, 3, 5, 7, 11, 13]
    n_exc = int(rng.integers(0, 3))
    exc = {
        int(p): float(rng.uniform(-1, 1))
        for p in rng.choice(primes_pool, size=n_exc, replace=False)
    }
    if kind == 0:
        return liouville_spec(exc)
    if kind == 1:
        return constant_spec(float(rng.uniform(-1, 1)), exc)
    return power_decay_spec(
        float(rng.uniform(0, 2)), float(rng.uniform(0.2, 2.0)), exc
    )


# --------------------------------------------------- closed-form examples


def test_liouville_h_is_square_indicator(sieve_1e4):
    # 1 * lambda is the indicator of perfect squares
    stream = integer_coefficient_stream(
        LIOUVILLE, DerivedFunctionKind.H_CONV, 10**4, sieve_1e4
    )
    n = np.arange(1, 10**4 + 1)
    roots = np.sqrt(n).round().astype(np.int64)
    assert np.array_equal(stream, (roots * roots == n).astype(np.int64))


def test_liouville_g_is_indicator_of_one(sieve_1e4):
    assert eval_g(LIOUVILLE, 1, sieve_1e4) == 1.0
    for n in (2, 3, 4, 30, 9973):
        assert eval_g(LIOUVILLE, n, sieve_1e4) == 0.0


def test_liouville_f_mu2_is_moebius(sieve_1e4):
    # lambda * mu^2 agrees with mu on every n
    for n in range(1, 3000):
        assert eval_f_mu2(LIOUVILLE, n, sieve_1e4) == moebius(n, sieve_1e4)


def test_h_counts_squares_up_to_1e6(sieve_1e6):
    stream = integer_coefficient_stream(
        LIOUVILLE, DerivedFunctionKind.H_CONV, 10**6, sieve_1e6
    )
    assert int(stream.sum()) == 1000  # floor(sqrt(10^6))


def test_constant_one_gives_divisor_count(sieve_1e4):
    # f == 1 makes h(n) = d(n), the divisor-count function
    ones = constant_spec(1.0)
    for n in (1, 2, 6, 12, 36, 60, 5040):
        assert eval_h(ones, n, sieve_1e4) == len(divisors_of(n, sieve_1e4))


def test_constant_zero_collapses(sieve_1e4):
    zero = constant_spec(0.0)
    # f(n) = [n == 1], h(n) = 1 for all n, g(n) = 1 for all n
    assert eval_f(zero, 1, sieve_1e4) == 1.0
    assert eval_f(zero, 17, sieve_1e4) == 0.0
    for n in (1, 4, 30, 100):
        assert eval_h(zero, n, sieve_1e4) == 1.0
        assert eval_g(zero, n, sieve_1e4) == 1.0


# ----------------------------------------------- divisor-sum oracle sweeps


@pytest.mark.parametrize(
    "spec",
    [
        liouville_spec(),
        liouville_spec({2: 0.5}),
        constant_spec(0.5),
        constant_spec(-1.0),
        constant_spec(0.37, {3: -0.2}),
        power_decay_spec(1.0, 1.0),
        power_decay_spec(2.0, 0.5, {2: 0.0}),
    ],
    ids=lambda s: s.spec_id(),
)
def test_closed_forms_match_divisor_sums(spec, sieve_1e4):
    for n in range(1, 2001):
        h = eval_h(spec, n, sieve_1e4)
        g = eval_g(spec, n, sieve_1e4)
        assert h == pytest.approx(h_oracle(spec, n, sieve_1e4), abs=1e-10, rel=1e-10)
        assert g == pytest.approx(g_oracle(spec, n, sieve_1e4), abs=1e-10, rel=1e-10)
        assert h >= -1e-12
        assert g >= -1e-12


def test_random_specs_match_divisor_sums(sieve_1e4, rng):
    for _ in range(20):
        spec = random_spec(rng)
        for n in range(1, 400):
            h = eval_h(spec, n, sieve_1e4)
            assert h == pytest.approx(
                h_oracle(spec, n, sieve_1e4), abs=1e-10, rel=1e-10
            ), (spec.spec_id(), n)
            g = eval_g(spec, n, sieve_1e4)
            assert g == pytest.approx(
                g_oracle(spec, n, sieve_1e4), abs=1e-10, rel=1e-10
            ), (spec.spec_id(), n)


def test_f_mu2_vanishes_off_squarefree(sieve_1e4, rng):
    spec = constant_spec(0.73)
    for n in range(1, 2000):
        v = eval_f_mu2(spec, n, sieve_1e4)
        if moebius(n, sieve_1e4) == 0:
            assert v == 0.0
        else:
            assert v == pytest.approx(f_oracle(spec, n, sieve_1e4), rel=1e-12)


# ------------------------------------------------------- multiplicativity


def test_f_completely_multiplicative(sieve_1e6, rng):
    spec = constant_spec(0.6, {5: -0.4})
    for _ in range(300):
        m = int(rng.integers(1, 1000))
        n = int(rng.integers(1, 1000))
        left = eval_f(spec, m * n, sieve_1e6)
        right = eval_f(spec, m, sieve_1e6) * eval_f(spec, n, sieve_1e6)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("kind", list(DerivedFunctionKind))
def test_derived_functions_multiplicative_on_coprime_pairs(kind, sieve_1e6, rng):
    from multlab.multfunc import _eval_pointwise

    spec = power_decay_spec(1.3, 0.7, {2: 0.25})
    done = 0
    while done < 200:
        m = int(rng.integers(1, 1000))
        n = int(rng.integers(1, 1000))
        if math.gcd(m, n) != 1:
            continue
        left = _eval_pointwise(spec, kind, m * n, sieve_1e6)
        right = _eval_pointwise(spec, kind, m, sieve_1e6) * _eval_pointwise(
            spec, kind, n, sieve_1e6
        )
        assert left == pytest.approx(right, rel=1e-12, abs=1e-300)
        done += 1


# ------------------------------------------------------------- streaming


@pytest.mark.parametrize("kind", list(DerivedFunctionKind))
def test_stream_matches_pointwise(kind, sieve_1e4):
    from multlab.multfunc import _eval_pointwise

    spec = power_decay_spec(1.5, 0.5, {3: 0.8})
    stream = coefficient_stream(spec, kind, 3000, sieve_1e4)
    assert stream.shape == (3000,)
    for n in range(1, 3001):
        assert stream[n - 1] == pytest.approx(
            _eval_pointwise(spec, kind, n, sieve_1e4), rel=1e-13, abs=1e-300
        )


@pytest.mark.parametrize("kind", list(DerivedFunctionKind))
def test_integer_stream_equals_float_stream(kind, sieve_1e4):
    for spec in (LIOUVILLE, constant_spec(1.0), constant_spec(0.0), liouville_spec({2: 0.0})):
        assert spec_is_pm1(spec)
        fs = coefficient_stream(spec, kind, 5000, sieve_1e4)
        zs = integer_coefficient_stream(spec, kind, 5000, sieve_1e4)
        assert np.array_equal(fs, zs.astype(np.float64))


#: the dtype of each exact stream: F and F_mu2 take values in {-1, 0, 1};
#: |h(n)| <= d(n) <= 1344 and g(n) <= 2^9 below 2^32
EXACT_DTYPES = {
    DerivedFunctionKind.F_PLAIN: np.int8,
    DerivedFunctionKind.F_MU2: np.int8,
    DerivedFunctionKind.H_CONV: np.int16,
    DerivedFunctionKind.G_CONV: np.int16,
}

_PM1 = st.sampled_from((-1.0, 0.0, 1.0))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(("liouville", "constant")),
    _PM1,
    st.dictionaries(st.sampled_from((2, 3, 5, 7, 11, 13, 97, 317, 99991)), _PM1, max_size=4),
)
def test_exact_streams_equal_float_streams_cast_to_int(sieve_1e5, base, c, exceptions):
    # f(p) in {-1, 0, 1} makes every float step exact, so the float stream
    # holds the same integers
    spec = liouville_spec(exceptions) if base == "liouville" else constant_spec(c, exceptions)
    for kind, dtype in EXACT_DTYPES.items():
        exact = integer_coefficient_stream(spec, kind, 10**5, sieve_1e5)
        floats = coefficient_stream(spec, kind, 10**5, sieve_1e5)
        assert exact.dtype == dtype
        assert np.array_equal(floats, np.trunc(floats))
        assert np.array_equal(floats.astype(np.int64), exact), (spec.spec_id(), kind)


#: a stream limit past several 2^16-entry chunks, neither a power of two
#: nor the sieve limit
_WIDE = 290_001


def _wide_samples():
    """n at chunk edges k 2^16 +- 1, at 2^e and 3^e, at the limit, and random."""
    rng = np.random.default_rng(65537)
    picks = {1, 2, 3, _WIDE - 1, _WIDE}
    picks.update(k * 2**16 + d for k in range(1, 5) for d in (-1, 0, 1))
    picks.update(2**e for e in range(1, 19))
    picks.update(3**e for e in range(1, 12))
    picks.update(int(n) for n in rng.integers(1, _WIDE + 1, size=200))
    return sorted(picks)


@pytest.mark.parametrize(
    "spec",
    [LIOUVILLE, liouville_spec({2: 0.0}), liouville_spec({3: 1.0}), constant_spec(1.0)],
    ids=lambda s: s.spec_id(),
)
def test_exact_streams_across_chunks_equal_oracles(spec, sieve_1e6):
    from multlab.multfunc import _eval_pointwise

    oracles = {
        DerivedFunctionKind.F_PLAIN: f_oracle,
        DerivedFunctionKind.H_CONV: h_oracle,
        DerivedFunctionKind.G_CONV: g_oracle,
        DerivedFunctionKind.F_MU2: lambda spec, n, sieve: (
            f_oracle(spec, n, sieve) if moebius(n, sieve) else 0.0
        ),
    }
    samples = _wide_samples()
    for kind, oracle in oracles.items():
        stream = integer_coefficient_stream(spec, kind, _WIDE, sieve_1e6)
        assert stream.shape == (_WIDE,) and stream.dtype == EXACT_DTYPES[kind]
        for n in samples:
            value = int(stream[n - 1])
            assert value == _eval_pointwise(spec, kind, n, sieve_1e6), (kind, n)
            assert value == oracle(spec, n, sieve_1e6), (kind, n)


def test_liouville_h_is_square_indicator_across_chunks(sieve_1e6):
    stream = integer_coefficient_stream(
        LIOUVILLE, DerivedFunctionKind.H_CONV, _WIDE, sieve_1e6
    )
    n = np.arange(1, _WIDE + 1)
    roots = np.sqrt(n).round().astype(np.int64)
    assert np.array_equal(stream, (roots * roots == n).astype(np.int64))


@pytest.mark.parametrize("kind", list(DerivedFunctionKind))
def test_float_streams_across_chunks_match_pointwise(kind, sieve_1e6):
    from multlab.multfunc import _eval_pointwise

    samples = _wide_samples()
    for spec in (power_decay_spec(1.5, 0.5, {3: 0.8}), constant_spec(-0.37, {2: 0.2})):
        stream = coefficient_stream(spec, kind, _WIDE, sieve_1e6)
        assert stream.shape == (_WIDE,)
        for n in samples:
            assert stream[n - 1] == pytest.approx(
                _eval_pointwise(spec, kind, n, sieve_1e6), rel=1e-14, abs=1e-300
            ), (spec.spec_id(), n)


def reference_stream(spec, kind, limit, full_spf, exact):
    """The masked linear-sieve step on every n, kept literally as the oracle.

    n // spf(n) divided in uint32, f(p) gathered from a dense table filled
    by f_at_primes, and "p | m" read as spf[m] == p, in 2^16-entry chunks.
    ``full_spf`` is a table of spf(n) for every n <= limit, even n included,
    built without the sieve (the ``spf_oracle`` fixture).
    """
    spf = full_spf[: limit + 1].astype(np.uint32)
    primes = np.flatnonzero(spf[2:] == np.arange(2, limit + 1)) + 2
    fp = np.zeros(limit + 1, dtype=np.int8 if exact else np.float64)
    fp[primes] = f_at_primes(spec, primes)
    vals = np.zeros(limit + 1, dtype=EXACT_DTYPES[kind] if exact else np.float64)
    vals[1] = 1
    lo = 2
    while lo <= limit:
        hi = min(lo + min(lo, 1 << 16), limit + 1)
        p = spf[lo:hi]
        q = np.arange(lo, hi, dtype=np.uint32) // p
        m = q.astype(np.intp)
        f = np.take(fp, p)
        a = vals[m]
        if kind is DerivedFunctionKind.F_PLAIN:
            vals[lo:hi] = f * a
        else:
            again = spf[m] == p
            if kind is DerivedFunctionKind.G_CONV:
                vals[lo:hi] = (1 + f * ~again) * a
            elif kind is DerivedFunctionKind.F_MU2:
                vals[lo:hi] = f * a * ~again if exact else np.where(again, 0, f * a)
            else:
                vals[lo:hi] = (1 + f) * a - f * vals[(q // p).astype(np.intp)] * again
        lo = hi
    return vals[1:]


def _oracle_specs():
    """Flat and varying bases, each bare, with an exception at 2 and at 5."""
    specs = []
    for exc in ({}, {2: 1.0}, {5: 0.0}):
        specs += [liouville_spec(exc), constant_spec(0.5, exc), constant_spec(-0.5, exc),
                  power_decay_spec(0.5, 0.5, exc), power_decay_spec(0.0, 0.5, exc)]
    return specs


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 5, 2**16 - 1, 2**16 + 1, _WIDE])
@pytest.mark.parametrize("spec", _oracle_specs(), ids=lambda s: s.spec_id())
def test_streams_equal_the_masked_step_bit_for_bit(spec, limit, sieve_1e6, spf_oracle):
    for kind in DerivedFunctionKind:
        runs = [(coefficient_stream, False)]
        if spec_is_pm1(spec):
            runs.append((integer_coefficient_stream, True))
        for stream, exact in runs:
            got = stream(spec, kind, limit, sieve_1e6)
            want = reference_stream(spec, kind, limit, spf_oracle(_WIDE), exact)
            assert got.dtype == want.dtype, (kind, exact)
            assert got.tobytes() == want.tobytes(), (kind, exact)


@pytest.mark.parametrize(
    "spec",
    [
        LIOUVILLE,
        liouville_spec({7: 0.0}),  # an exception below sqrt(limit)
        liouville_spec({1009: 0.5}),  # above sqrt(limit): no table entry
        constant_spec(0.3, {3: -1.0, 1009: 0.5, 999983: 1.0}),
        power_decay_spec(0.5, 0.5),
        power_decay_spec(0.5, 0.5, {2: 0.1, 997: 0.2, 1013: -0.3}),
    ],
    ids=lambda s: s.spec_id(),
)
def test_prime_values_from_spf_cells_equal_the_prime_table_version(spec, sieve_1e6, tmp_path):
    # the table as built from the prime table before streams read spf's cells
    limit, dtype = 10**6, np.float64
    f2, f3 = f_at_primes(spec, np.array([2, 3])).astype(dtype)
    flat = _base_value(spec) is not None and not any(2 < q <= limit for q, _ in spec.exceptions)
    want = f3
    if not flat:
        root = math.isqrt(limit)
        odd_primes = primes_up_to(root, sieve_1e6)[1:]
        want = np.zeros((root + 1) // 2, dtype=dtype)
        want[odd_primes >> 1] = f_at_primes(spec, odd_primes)
    save_sieve_cache(sieve_1e6, tmp_path)
    with load_sieve_cache(tmp_path, limit, ("spf",)) as loaded:
        for sieve in (sieve_1e6, loaded):
            got2, got = _prime_values(spec, limit, sieve, dtype)
            assert got2.tobytes() == f2.tobytes()
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert "primes" not in vars(loaded) and "spf" not in vars(loaded)


@pytest.mark.parametrize("length", [2**16 - 1, 2**16, 123_457])
def test_stream_prefix_does_not_depend_on_its_length(length, sieve_1e6):
    runs = [(coefficient_stream, power_decay_spec(0.5, 0.5, {3: 0.8})),
            (coefficient_stream, constant_spec(-0.37, {2: 0.2})),
            (integer_coefficient_stream, LIOUVILLE),
            (integer_coefficient_stream, liouville_spec({7: 0.0}))]
    for stream, spec in runs:
        for kind in DerivedFunctionKind:
            whole = stream(spec, kind, 10**6, sieve_1e6)
            prefix = stream(spec, kind, length, sieve_1e6)
            assert prefix.dtype == whole.dtype
            assert prefix.tobytes() == whole[:length].tobytes(), (spec.spec_id(), kind)


def test_integer_stream_rejects_float_specs(sieve_1e4):
    with pytest.raises(ValueError):
        integer_coefficient_stream(
            constant_spec(0.5), DerivedFunctionKind.F_PLAIN, 100, sieve_1e4
        )


def test_spec_is_pm1_detection():
    assert spec_is_pm1(LIOUVILLE)
    assert spec_is_pm1(constant_spec(1.0))
    assert spec_is_pm1(constant_spec(-1.0))
    assert spec_is_pm1(liouville_spec({7: 0.0}))
    assert spec_is_pm1(power_decay_spec(0.0, 1.0))
    assert spec_is_pm1(constant_spec(-0.0))
    assert spec_is_pm1(power_decay_spec(-0.0, 2.0))
    assert spec_is_pm1(constant_spec(1.0, {5: -1.0}))
    assert not spec_is_pm1(constant_spec(0.5))
    assert not spec_is_pm1(liouville_spec({7: 0.5}))
    assert not spec_is_pm1(power_decay_spec(1.0, 1.0))
    assert not spec_is_pm1(power_decay_spec(0.0, 1.0, {3: 0.5}))


def test_stream_limit_validation(sieve_1e4):
    with pytest.raises(ValueError):
        coefficient_stream(LIOUVILLE, DerivedFunctionKind.F_PLAIN, 10**4 + 1, sieve_1e4)
    with pytest.raises(ValueError):
        coefficient_stream(LIOUVILLE, DerivedFunctionKind.F_PLAIN, 0, sieve_1e4)


@pytest.mark.parametrize("kind", ["F_plain", "H_conv", None], ids=repr)
@pytest.mark.parametrize("stream", [coefficient_stream, integer_coefficient_stream])
def test_a_kind_that_is_not_a_derived_function_kind_is_a_type_error(stream, kind, sieve_1e4):
    # H's step is the stream's fall-through: no other value may reach it
    for limit in (1, 100):
        with pytest.raises(TypeError, match="DerivedFunctionKind, got"):
            stream(LIOUVILLE, kind, limit, sieve_1e4)


# --------------------------------------------------- spec construction API


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        PrimeFunctionSpec(base="unknown")
    with pytest.raises(ValueError):
        PrimeFunctionSpec(base="constant")  # missing c
    with pytest.raises(ValueError):
        constant_spec(1.5)
    with pytest.raises(ValueError):
        PrimeFunctionSpec(base="power_decay", c=1.0, a=0.0)  # a must be > 0
    # a parameter the base ignores would be serialized as a line parse_config rejects
    for kwargs in ({"c": 0.5}, {"a": 1.0}):
        with pytest.raises(ValueError, match="liouville base takes no"):
            PrimeFunctionSpec(base="liouville", **kwargs)
    with pytest.raises(ValueError, match="constant base takes no"):
        PrimeFunctionSpec(base="constant", c=0.5, a=2.0)
    for c, a in ((math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5), (1.0, math.inf)):
        with pytest.raises(ValueError):
            power_decay_spec(c, a)  # c and a must be finite
    with pytest.raises(ValueError):
        liouville_spec({4: 0.5})  # 4 is not prime
    with pytest.raises(ValueError):
        liouville_spec({2: 1.5})  # value outside [-1, 1]
    with pytest.raises(ValueError):
        PrimeFunctionSpec(base="liouville", exceptions=((2, 0.5), (2, 0.6)))


def test_spec_numbers_are_real_and_stored_as_floats():
    # c, a and exception values follow one rule: a bool or a string is no
    # number (ValueError, like every other spec error), anything else float
    # reads is stored as a float
    for bad in ("0.5", b"0.5", True, False, np.bool_(True), 1j, None):
        with pytest.raises(ValueError):
            PrimeFunctionSpec(base="constant", c=bad)
        with pytest.raises(ValueError):
            PrimeFunctionSpec(base="power_decay", c=1.0, a=bad)
        with pytest.raises(ValueError):
            PrimeFunctionSpec(base="liouville", exceptions=[(2, bad)])
        with pytest.raises(ValueError):
            PrimeFunctionSpec(base="liouville", exceptions={3: bad})
    spec = PrimeFunctionSpec(
        base="power_decay", c=np.float32(0.5), a=2, exceptions={2: np.int8(0), 3: 1}
    )
    assert (spec.c, spec.a) == (0.5, 2.0)
    assert spec.exceptions == ((2, 0.0), (3, 1.0))
    for value in (spec.c, spec.a, *(v for _, v in spec.exceptions)):
        assert type(value) is float
    assert type(PrimeFunctionSpec(base="constant", c=1).c) is float


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_int_is_deterministic_miller_rabin():
    assert all(_is_prime_int(n) == trial_division_is_prime(n) for n in range(10**5))
    # Carmichael 561 and strong pseudoprimes to the first 4 and the first 11 prime bases
    for n in (561, 3215031751, 3825123056546413051):
        assert not _is_prime_int(n), n
    for n in (10**18 + 3, 2**61 - 1):
        assert _is_prime_int(n), n
    # past the proven bound of the twelve bases the test refuses to answer
    assert not _is_prime_int(318665857834031151167460)
    with pytest.raises(ValueError, match="too large"):
        _is_prime_int(318665857834031151167461)
    with pytest.raises(ValueError, match="too large"):
        liouville_spec({10**30 + 57: 0.5})


def test_spec_id_format():
    assert LIOUVILLE.spec_id() == "liouville"
    assert liouville_spec({2: 0.5}).spec_id() == "liouville+2:0.5"
    assert constant_spec(0.5).spec_id() == "constant+c=0.5"
    assert power_decay_spec(1.0, 2.0).spec_id() == "power_decay+c=1+a=2"
    # exceptions come out sorted regardless of input order
    assert (
        liouville_spec([(5, 0.1), (2, -0.2)]).spec_id() == "liouville+2:-0.2+5:0.1"
    )


def test_f_at_prime_exceptions_and_clamping(sieve_1e4):
    spec = liouville_spec({2: 0.5, 11: 1.0})
    assert f_at_prime(spec, 2) == 0.5
    assert f_at_prime(spec, 11) == 1.0
    assert f_at_prime(spec, 3) == -1.0
    with pytest.raises(ValueError):
        f_at_prime(spec, 6)
    # power decay clamps into [-1, 1]: c large enough to push past +1
    loud = power_decay_spec(10.0, 0.1)
    assert f_at_prime(loud, 2) == 1.0
    primes = primes_up_to(10**4, sieve_1e4)
    vec = f_at_primes(loud, primes)
    assert np.all(vec <= 1.0) and np.all(vec >= -1.0)
    # vectorized values agree with the scalar rule
    for i in (0, 1, 10, 100, 1000):
        assert vec[i] == pytest.approx(f_at_prime(loud, int(primes[i])), rel=1e-15)


def test_f_at_prime_is_f_at_primes_bit_for_bit(sieve_1e6):
    # one rule for f(p): the scalar path once used Python's pow and its own
    # clamp, and missed the vector path in the last bit, e.g. here
    spec = power_decay_spec(1.092, 0.56)
    p = 876229
    assert f_at_prime(spec, p) == f_at_primes(spec, np.array([p]))[0] == -0.9994867171310998
    rng = np.random.default_rng(876229)
    primes = primes_up_to(10**6, sieve_1e6)
    for _ in range(50):
        c, a = round(rng.uniform(0.2, 2.0), 3), round(rng.uniform(0.2, 1.0), 3)
        spec = power_decay_spec(c, a, {3: 0.25})
        sample = rng.choice(primes, size=500)
        vector = f_at_primes(spec, primes)[np.searchsorted(primes, sample)]
        scalar = [f_at_prime(spec, int(q)) for q in sample]
        assert np.array_equal(vector, scalar), (c, a)
        assert eval_f(spec, int(sample[0]), sieve_1e6) == vector[0]
    with pytest.raises(ValueError, match="not a prime below 2"):
        f_at_prime(spec, 2**63 + 29)


def test_f_at_prime_takes_numpy_integer_primes(sieve_1e4):
    # primes_up_to hands out numpy integers; three-argument pow takes only
    # Python ints, so every prime past the Miller-Rabin bases (>= 41) once
    # raised TypeError here
    primes = primes_up_to(10**4, sieve_1e4)
    assert isinstance(primes[-1], np.integer)
    for spec in (
        power_decay_spec(1.5, 0.5, {3: 0.25, 9973: 0.5}),
        constant_spec(0.3, {41: -1.0}),
        LIOUVILLE,
    ):
        scalar = np.array([f_at_prime(spec, q) for q in primes])
        assert scalar.tobytes() == f_at_primes(spec, primes).tobytes(), spec.spec_id()
    assert _is_prime_int(np.uint32(9973)) and not _is_prime_int(np.int64(9991))


def _flat(value):
    return lambda p: np.full(p.size, value)


@pytest.mark.parametrize(
    "spec, literal",
    [
        (LIOUVILLE, _flat(-1.0)),
        (liouville_spec({3: 0.5, 7: -1.0}), _flat(-1.0)),
        (constant_spec(0.3, {2: -1.0}), _flat(0.3)),
        (constant_spec(-0.0), _flat(-0.0)),
        (power_decay_spec(0.0, 0.5, {5: 0.0}), lambda p: np.clip(-1.0 + 0.0 * p ** -0.5, -1.0, 1.0)),
        (power_decay_spec(-0.0, 3.0), lambda p: np.clip(-1.0 + -0.0 * p ** -3.0, -1.0, 1.0)),
        (power_decay_spec(-0.3, 0.7), lambda p: np.clip(-1.0 + -0.3 * p ** -0.7, -1.0, 1.0)),
        (power_decay_spec(-2.0, 5.0, {3: 0.5}), lambda p: np.clip(-1.0 + -2.0 * p ** -5.0, -1.0, 1.0)),
        (power_decay_spec(0.5, 0.5), None),
        (power_decay_spec(2.0, 0.1), None),
    ],
    ids=lambda arg: arg.spec_id() if isinstance(arg, PrimeFunctionSpec) else "",
)
def test_base_value_is_f_at_every_prime_but_the_exceptions(spec, literal, sieve_1e4):
    # each flat spec's f(p) is written out by its base rule, independently
    # of _base_value, which _f_values reads
    primes = primes_up_to(10**4, sieve_1e4)
    keys = {q for q, _ in spec.exceptions}
    plain = primes[[p not in keys for p in primes.tolist()]]
    values = f_at_primes(spec, plain)
    base = _base_value(spec)
    if literal is None:
        assert base is None and np.unique(values).size > 1
    else:
        expected = literal(plain.astype(np.float64)).tobytes()
        assert values.tobytes() == expected
        assert np.full(values.size, base).tobytes() == expected


@pytest.mark.parametrize(
    "spec",
    [
        constant_spec(0.3, {7: 1.0, 11: -0.5}),
        liouville_spec({2: 0.5}),
        power_decay_spec(-0.3, 0.7, {13: 0.0}),
        constant_spec(-0.0),
        power_decay_spec(0.5, 0.5, {3: 0.25}),
    ],
    ids=lambda spec: spec.spec_id(),
)
def test_f_slice_is_one_float_only_past_the_last_exception(spec, sieve_1e4):
    # a flat spec's slice that starts past its largest key holds no
    # exception: f(p) is the base value, whose bits broadcast to f_at_primes'
    primes = primes_up_to(100, sieve_1e4)
    last = max((q for q, _ in spec.exceptions), default=0)
    for lo in range(primes.size):
        chunk = primes[lo:]
        got = _f_slice(spec, chunk)
        flat = _base_value(spec) is not None and int(chunk[0]) > last
        assert isinstance(got, float) == flat
        assert np.broadcast_to(got, chunk.shape).tobytes() == f_at_primes(spec, chunk).tobytes()
    assert _f_slice(spec, primes[:0]).size == 0


def test_visited_positions_are_the_exceptions_where_the_base_term_vanishes(sieve_1e4):
    def one_plus(f):
        return 1.0 + f

    def distance(f, g):
        return 1.0 - f * g

    primes = primes_up_to(10**3, sieve_1e4)
    spec = liouville_spec({3: 0.5, 7: -1.0, 1009: 0.2})  # 1009 lies past 10^3
    assert primes[_visited(primes, one_plus, spec)].tolist() == [3, 7]
    assert _visited(primes, one_plus, LIOUVILLE).size == 0
    assert _visited(primes[:0], one_plus, spec).size == 0
    assert _visited(primes, one_plus, constant_spec(0.5, {3: 0.5})) is None
    assert _visited(primes, one_plus, power_decay_spec(0.5, 0.5)) is None
    # a term of two specs visits the union of their exceptions
    other = constant_spec(-1.0, {2: 0.0, 7: 1.0})
    assert primes[_visited(primes, distance, spec, other)].tolist() == [2, 3, 7]
    assert _visited(primes, distance, spec, constant_spec(1.0)) is None


def test_f_at_primes_matches_f_at_prime_in_any_order(sieve_1e4):
    rng = np.random.default_rng(9973)
    primes = primes_up_to(10**4, sieve_1e4)
    first, last = int(primes[0]), int(primes[-1])
    for spec in (
        power_decay_spec(1.5, 0.5, {first: 0.25, 101: 0.0, last: -0.5}),
        liouville_spec({first: 1.0, last: 0.5}),
        constant_spec(0.3, {last: -1.0, 10007: 0.9}),  # 10007 is not in the table
        liouville_spec(),
    ):
        shuffled = rng.permutation(primes)
        vec = f_at_primes(spec, shuffled)
        assert np.array_equal(vec[np.argsort(shuffled)], f_at_primes(spec, primes))
        exceptions = dict(spec.exceptions)
        for p, v in zip(shuffled.tolist(), vec.tolist()):
            if p in exceptions:
                assert v == exceptions[p], (spec.spec_id(), p)
            else:
                assert v == pytest.approx(f_at_prime(spec, p), rel=1e-15), (spec.spec_id(), p)


def _f_values_reference(spec, primes):
    """f(p) as ``np.clip`` of the base rule, every prime scanned for a key."""
    base = _base_value(spec)
    p = primes.astype(np.float64)
    if base is not None:
        out = np.full(primes.shape, base)
    else:
        out = np.clip(-1.0 + spec.c * p ** (-spec.a), -1.0, 1.0)
    for q, v in spec.exceptions:
        out[primes == q] = v
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("liouville", "constant", "power_decay")),
    st.floats(-3.0, 9.0),
    st.floats(0.01, 4.0),
    st.dictionaries(st.sampled_from((2, 3, 5, 97, 1009, 9973, 10007)), st.floats(-1.0, 1.0), max_size=3),
    st.sampled_from(("ascending", "reversed", "shuffled")),
    st.integers(0, 2**15),
)
def test_f_at_primes_is_the_clipped_base_rule_with_every_exception(
    sieve_1e4, family, c, a, exceptions, order, cut
):
    # the clamp at -1 is left out and late chunks skip the exception scan:
    # every chunk, in any order, keeps the bytes of np.clip and a full scan
    if family == "liouville":
        spec = liouville_spec(exceptions)
    elif family == "constant":
        spec = constant_spec(max(-1.0, min(c, 1.0)), exceptions)
    else:
        spec = power_decay_spec(c, a, exceptions)
    primes = primes_up_to(10**4, sieve_1e4)
    if order == "reversed":
        primes = primes[::-1].copy()
    elif order == "shuffled":
        primes = np.random.default_rng(cut).permutation(primes)
    cut %= primes.size + 1
    for chunk in (primes, primes[:cut], primes[cut:], primes[:0]):
        assert f_at_primes(spec, chunk).tobytes() == _f_values_reference(spec, chunk).tobytes()


def test_exception_key_past_int64_is_kept_but_matches_no_prime(sieve_1e4):
    big = 9223372036854775837  # a prime above 2^63
    primes = primes_up_to(10**4, sieve_1e4)
    for base in (liouville_spec({3: 0.5}), power_decay_spec(0.5, 0.5, {3: 0.5})):
        spec = PrimeFunctionSpec(base.base, base.c, base.a, base.exceptions + ((big, 0.25),))
        assert np.array_equal(f_at_primes(spec, primes), f_at_primes(base, primes))
        assert spec.spec_id().endswith(f"+{big}:0.25")
    # G's tail beyond P still counts the factor at p = big
    s = ComplexArgument(0.1, 0.0)
    with_key = euler_product_G(liouville_spec({3: 0.5, big: 0.25}), s, 1000, sieve_1e4)
    without = euler_product_G(liouville_spec({3: 0.5}), s, 1000, sieve_1e4)
    assert with_key.value == without.value
    assert with_key.tail_bound > without.tail_bound + 0.01


def test_h_near_one_rescue(sieve_1e4):
    # f(2) = 1 exactly: the geometric denominator vanishes; direct
    # summation must give h(2^a) = a + 1 with no special-case leak
    spec = liouville_spec({2: 1.0})
    assert eval_h(spec, 1024, sieve_1e4) == 11.0
    # f(p) = 1 - 1e-12: naive (1 - fp^(a+1))/(1 - fp) loses ~4 digits;
    # the term-by-term sum keeps full precision
    close = constant_spec(1.0 - 1e-12)
    assert eval_h(close, 1024, sieve_1e4) == pytest.approx(11.0, abs=1e-9)
    stream = coefficient_stream(close, DerivedFunctionKind.H_CONV, 1024, sieve_1e4)
    assert stream[1023] == pytest.approx(11.0, abs=1e-9)
    # at f = 1 - 1e-6 the closed form would lose ~5 digits, and next to
    # f = -1 the sum 1 + f + ... + f^e cancels; the stream must still match
    # the exact sum at every 2^e
    for fp in (1.0 - 1e-6, 1.0 - 1e-4, -1.0 + 1e-6):
        stream = coefficient_stream(
            constant_spec(fp), DerivedFunctionKind.H_CONV, 2**13, sieve_1e4
        )
        for e in range(1, 14):
            exact = sum(Fraction(fp) ** j for j in range(e + 1))
            assert stream[2**e - 1] == pytest.approx(float(exact), rel=1e-14, abs=0)


def test_g_depends_only_on_prime_support(sieve_1e4):
    spec = constant_spec(0.3)
    assert eval_g(spec, 8, sieve_1e4) == eval_g(spec, 2, sieve_1e4)
    assert eval_g(spec, 36, sieve_1e4) == pytest.approx(
        eval_g(spec, 6, sieve_1e4), rel=1e-15
    )


def _assert_eval_h_within_1e_15(c, sieve):
    """eval_h of constant(c) within 1e-15 relative of the exact h at small n."""
    spec, f = constant_spec(c), Fraction(c)
    for n in [2**e for e in range(1, 14)] + [3**e for e in range(1, 9)] + [720, 5040, 9240]:
        exact = Fraction(1)
        for _, a in factorize(n, sieve):
            exact *= sum(f**k for k in range(a + 1))
        assert abs(Fraction(eval_h(spec, n, sieve)) - exact) <= 1e-15 * exact, n


def test_eval_h_near_one_keeps_full_precision(sieve_1e4):
    # a closed form (1 - f^(a+1)) / (1 - f) at f = 0.999 loses about three
    # digits to cancellation; the pairwise sum has nothing to cancel
    _assert_eval_h_within_1e_15(0.999, sieve_1e4)


def test_eval_h_near_minus_one_keeps_full_precision(sieve_1e4):
    # the running sum 1 + f + ... + f^a cancels at f = -0.999, at odd a where
    # h(p^a) is small; summed in pairs every term is nonnegative
    _assert_eval_h_within_1e_15(-0.999, sieve_1e4)


def test_prime_power_minima_are_the_pointwise_minima(sieve_1e4):
    from multlab.config import ExperimentConfig
    from multlab.verify import _prime_power_minima

    rng = np.random.default_rng(1009)
    powers = [
        p**m
        for p in primes_up_to(10**4, sieve_1e4).tolist()
        for m in range(1, 14)
        if p**m <= 10**4
    ]
    for _ in range(20):
        spec = random_spec(rng)
        minima = _prime_power_minima(ExperimentConfig(spec=spec), sieve_1e4)
        min_h = min(eval_h(spec, q, sieve_1e4) for q in powers)
        min_g = min(eval_g(spec, q, sieve_1e4) for q in powers)
        # f(p) is the vector rule in the scan and the scalar rule pointwise
        assert minima["h"] == pytest.approx(min_h, rel=1e-15, abs=1e-15), spec.spec_id()
        assert minima["g"] == pytest.approx(min_g, rel=1e-15, abs=1e-15), spec.spec_id()


@pytest.mark.parametrize(
    "limit, p",
    [(971981, 971981), (823543, 7), (994009, 997)],
    ids=["p", "7^7", "997^2"],
)
def test_prime_power_minima_scan_every_prime_power_up_to_an_exact_root(limit, p, monkeypatch):
    # floor(exp(log(limit) / m)) rounds one below each exact root here: at
    # m = 1 for the prime 971981, at m = 7 for 7^7 and at m = 2 for 997^2
    import multlab.verify
    from multlab.config import ExperimentConfig
    from multlab.sieve import build_sieve
    from multlab.verify import _prime_power_minima

    spec = constant_spec(0.5, {p: -0.9})
    sieve = build_sieve(limit)
    primes = primes_up_to(limit, sieve)
    # brute force: each prime power q^m <= limit by exact integer products,
    # and h(q^m) = 1 + f + ... + f^m summed term by term
    fq = dict(zip(primes.tolist(), f_at_primes(spec, primes).tolist()))
    counts, min_h = {1: primes.size}, float(np.min(1.0 + f_at_primes(spec, primes)))
    for q in primes[primes <= math.isqrt(limit)].tolist():
        m, n = 2, q * q
        while n <= limit:
            counts[m] = counts.get(m, 0) + 1
            min_h = min(min_h, math.fsum(fq[q] ** k for k in range(m + 1)))
            m, n = m + 1, n * q
    scanned = {}
    weight = multlab.verify._weight

    def spy(kind, fp, m):
        if kind is DerivedFunctionKind.H_CONV:
            scanned[m] = np.size(fp)
        return weight(kind, fp, m)

    monkeypatch.setattr(multlab.verify, "_weight", spy)
    minima = _prime_power_minima(ExperimentConfig(spec=spec, sieve_limit=limit), sieve)
    assert scanned == counts
    assert minima["h"] == pytest.approx(min_h, rel=1e-15, abs=1e-15)
    if p == limit:  # h(971981) = 1 + f(971981), not the base's 1.5
        assert minima["h"] == 1.0 + -0.9


def test_spec_exceptions_are_normalised_in_the_spec():
    from multlab.config import ExperimentConfig, config_hash, parse_config, serialize_config

    pairs = PrimeFunctionSpec("liouville", exceptions=((3, -0.25), (2, 0.5)))
    for spec in (
        PrimeFunctionSpec("liouville", exceptions={2: 0.5, 3: -0.25}),
        PrimeFunctionSpec("liouville", exceptions={np.int64(2): 0.5, 3: np.float64(-0.25)}),
        liouville_spec({3: -0.25, 2: 0.5}),
    ):
        assert spec == pairs and hash(spec) == hash(pairs)
        assert spec.exceptions == ((2, 0.5), (3, -0.25))
        assert spec.spec_id() == pairs.spec_id() == "liouville+2:0.5+3:-0.25"
        cfg = ExperimentConfig(spec=spec)
        assert config_hash(cfg) == config_hash(ExperimentConfig(spec=pairs))
        assert parse_config(serialize_config(cfg)) == cfg
    # a float key is no prime: rejected like every other spec error
    for exceptions in (((2.0, 0.5),), {2.0: 0.5}, ((2, 0.5, 1),), (2,)):
        with pytest.raises(ValueError):
            PrimeFunctionSpec("liouville", exceptions=exceptions)
    with pytest.raises(ValueError):
        liouville_spec({2.0: 0.5})
