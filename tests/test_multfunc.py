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
    _is_prime_int,
)
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
        assert stream.shape == (_WIDE,) and stream.dtype == np.int64
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
    assert not spec_is_pm1(constant_spec(0.5))
    assert not spec_is_pm1(liouville_spec({7: 0.5}))
    assert not spec_is_pm1(power_decay_spec(1.0, 1.0))


def test_stream_limit_validation(sieve_1e4):
    with pytest.raises(ValueError):
        coefficient_stream(LIOUVILLE, DerivedFunctionKind.F_PLAIN, 10**4 + 1, sieve_1e4)
    with pytest.raises(ValueError):
        coefficient_stream(LIOUVILLE, DerivedFunctionKind.F_PLAIN, 0, sieve_1e4)


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
        exceptions = spec.exception_map
        for p, v in zip(shuffled.tolist(), vec.tolist()):
            if p in exceptions:
                assert v == exceptions[p], (spec.spec_id(), p)
            else:
                assert v == pytest.approx(f_at_prime(spec, p), rel=1e-15), (spec.spec_id(), p)


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


def test_eval_h_near_one_keeps_full_precision(sieve_1e4):
    # a closed form (1 - f^(a+1)) / (1 - f) at f = 0.999 loses about three
    # digits to cancellation; the term-by-term sum has nothing to cancel
    spec = constant_spec(0.999)
    f = Fraction(0.999)
    for n in [2**e for e in range(1, 14)] + [3**e for e in range(1, 9)] + [720, 5040, 9240]:
        exact = Fraction(1)
        for _, a in factorize(n, sieve_1e4):
            exact *= sum(f**k for k in range(a + 1))
        assert abs(Fraction(eval_h(spec, n, sieve_1e4)) - exact) <= 1e-15 * exact, n


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
