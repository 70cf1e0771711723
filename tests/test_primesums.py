"""S(x) traces, pretentious distance, and the weighted-tail diagnostic."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import multlab.summation

from multlab.exponent import (
    PartialSumSeries,
    checkpoint_partial_sums,
    fit_exponent,
    kronecker_check,
)
from multlab.multfunc import (
    LIOUVILLE,
    DerivedFunctionKind,
    constant_spec,
    f_at_primes,
    liouville_spec,
    power_decay_spec,
)
from multlab.primesums import (
    DECAY_FACTOR,
    FLAT_FACTOR,
    VERDICT_CONVERGENT,
    VERDICT_DIVERGENT,
    VERDICT_INCONCLUSIVE,
    _dyadic_verdict,
    pretentious_distance_sq,
    prime_sum_S,
    weighted_tail_diagnostic,
)
from multlab.sieve import primes_up_to
from multlab.summation import checkpoint_schedule


# ------------------------------------------------------------ prime_sum_S


def test_S_vanishes_identically_for_pure_minus_one(sieve_1e6):
    trace = prime_sum_S(LIOUVILLE, 10**6, sieve_1e6)
    assert np.all(trace.values == 0.0)
    assert trace.x_values[-1] == 10**6


def test_S_plateau_from_finite_exceptions(sieve_1e6):
    # only the exceptional primes contribute: (1 + 0.5) log 2 + (1 + 1) log 7,
    # fully banked once x >= 7, flat forever after
    spec = liouville_spec({2: 0.5, 7: 1.0})
    trace = prime_sum_S(spec, 10**5, sieve_1e6)
    expected = 1.5 * math.log(2.0) + 2.0 * math.log(7.0)
    x = trace.x_values
    v = trace.values
    assert v[-1] == pytest.approx(expected, abs=1e-13)
    beyond = v[x >= 7]
    assert np.all(beyond == beyond[0])  # exact plateau, not merely approximate
    assert np.all(np.diff(v) >= 0.0)


def test_S_closed_form_for_perturbed_pair(sieve_1e6):
    # the pair used throughout: f(2) = 0.5, f(3) = -0.25 on the -1 base
    spec = liouville_spec({2: 0.5, 3: -0.25})
    trace = prime_sum_S(spec, 10**6, sieve_1e6)
    expected = 1.5 * math.log(2.0) + 0.75 * math.log(3.0)
    assert abs(trace.values[-1] - expected) < 1e-12


def test_S_monotone_for_generic_spec(sieve_1e5):
    trace = prime_sum_S(constant_spec(0.7), 10**5, sieve_1e5)
    assert np.all(np.diff(trace.values) >= 0.0)
    assert trace.values[-1] > 0.0


def test_S_respects_explicit_schedule(sieve_1e5):
    sched = np.array([10, 100, 1000], dtype=np.int64)
    trace = prime_sum_S(constant_spec(0.0), 10**5, sieve_1e5, schedule=sched)
    assert trace.x_values.tolist() == [10, 100, 1000]
    # f == 0 means every term is log p; check against a direct sum
    primes = primes_up_to(1000, sieve_1e5)
    direct = math.fsum(math.log(int(p)) for p in primes)
    assert trace.values[-1] == pytest.approx(direct, rel=1e-14)


def test_S_validation(sieve_1e4):
    with pytest.raises(ValueError):
        prime_sum_S(LIOUVILLE, 10**5, sieve_1e4)
    with pytest.raises(ValueError):
        prime_sum_S(LIOUVILLE, 0, sieve_1e4)


@pytest.mark.parametrize(
    "schedule, message",
    [
        ([10, 50, 1000], r"schedule must lie within \[1, x_max=100\]"),
        ([0, 50], r"schedule must lie within \[1, x_max=100\]"),
        ([10, 10, 50], "checkpoints must be strictly ascending"),
        ([], "schedule must hold at least one checkpoint"),
    ],
)
def test_every_trace_builder_takes_the_one_schedule_rule(sieve_1e4, schedule, message):
    # prime_sum_S once labelled S(100) as S(1000) and took a repeated point;
    # every builder that takes a schedule now raises the same ValueError
    spec = power_decay_spec(1, 0.5)
    kind = DerivedFunctionKind.F_PLAIN
    builders = (
        lambda: prime_sum_S(spec, 100, sieve_1e4, schedule=schedule),
        lambda: checkpoint_partial_sums(LIOUVILLE, kind, 100, sieve_1e4, schedule=schedule),
        lambda: kronecker_check(np.ones(100), 0.5, 100, schedule=schedule),
    )
    for build in builders:
        with pytest.raises(ValueError, match=message):
            build()


def test_fit_exponent_reads_the_S_trace(sieve_1e6):
    # f(p) = 0 gives S(x) = theta(x) ~ x: the envelope exponent is near 1
    trace = prime_sum_S(constant_spec(0.0), 10**6, sieve_1e6)
    assert isinstance(trace, PartialSumSeries) and not trace.exact
    fit = fit_exponent(trace)
    assert abs(fit.alpha_hat - 1.0) < 0.02
    assert fit.window == (100, 10**6)


# ------------------------------------------------- pretentious_distance_sq


def test_distance_zero_for_identical_pm1_specs(sieve_1e6):
    assert pretentious_distance_sq(LIOUVILLE, LIOUVILLE, 10**6, sieve_1e6) == 0.0
    # the same function reached through different spec descriptions
    assert (
        pretentious_distance_sq(LIOUVILLE, constant_spec(-1.0), 10**6, sieve_1e6)
        == 0.0
    )
    both = liouville_spec({2: 1.0})
    assert pretentious_distance_sq(both, both, 10**4, sieve_1e6) == 0.0


def test_distance_single_flipped_prime(sieve_1e4):
    # disagree only at p = 2, maximally: term (1 - (-1)(1))/2 = 1
    assert (
        pretentious_distance_sq(LIOUVILLE, liouville_spec({2: 1.0}), 100, sieve_1e4)
        == 1.0
    )


def test_distance_exact_rational_oracle(sieve_1e4):
    # every term (1 - f g)/p is rational for rational prime values; check
    # the float result against exact Fraction arithmetic at x = 100
    f_spec = liouville_spec({2: Fraction(1, 2), 5: Fraction(-1, 4)})
    g_spec = constant_spec(1.0)
    primes = [int(p) for p in primes_up_to(100, sieve_1e4)]
    fvals = {2: Fraction(1, 2), 5: Fraction(-1, 4)}
    exact = sum(
        (1 - fvals.get(p, Fraction(-1)) * 1) / Fraction(p) for p in primes
    )
    got = pretentious_distance_sq(f_spec, g_spec, 100, sieve_1e4)
    assert got == pytest.approx(float(exact), rel=1e-14)


def test_distance_symmetric_and_monotone(sieve_1e6, rng):
    a = power_decay_spec(1.2, 0.6, {3: 0.1})
    b = constant_spec(0.4)
    d_ab = pretentious_distance_sq(a, b, 10**5, sieve_1e6)
    d_ba = pretentious_distance_sq(b, a, 10**5, sieve_1e6)
    assert d_ab == d_ba
    xs = [10, 10**2, 10**3, 10**4, 10**5]
    ds = [pretentious_distance_sq(a, b, x, sieve_1e6) for x in xs]
    assert all(later >= earlier for earlier, later in zip(ds, ds[1:]))
    assert all(d >= 0.0 for d in ds)


def test_distance_positive_self_distance_off_unit_circle(sieve_1e4):
    # |f(p)| < 1 keeps the self-distance positive: term (1 - f^2)/p > 0
    half = constant_spec(0.5)
    d = pretentious_distance_sq(half, half, 1000, sieve_1e4)
    primes = primes_up_to(1000, sieve_1e4)
    expected = math.fsum(0.75 / int(p) for p in primes)
    assert d == pytest.approx(expected, rel=1e-13)
    assert d > 1.0  # far from pretending to be itself, in this metric


def test_self_distance_forms_f_once_per_slice_with_the_two_call_bits(sieve_1e6, monkeypatch):
    # D(f, f)^2 squares one f(p) array per slice; f * f has the bits that
    # two calls of f_at_primes multiplied give, summed exactly and rounded once
    import multlab.primesums

    x = 10**6
    primes = primes_up_to(x, sieve_1e6)
    slices = -(-primes.size // multlab.summation._BLOCK)
    original = multlab.primesums._f_values
    calls = []

    def counting(spec, chunk):
        calls.append(spec)
        return original(spec, chunk)

    monkeypatch.setattr(multlab.primesums, "_f_values", counting)
    for spec in (power_decay_spec(0.5, 0.5, {3: 0.25}), constant_spec(0.3, {2: 1.0})):
        calls.clear()
        d = pretentious_distance_sq(spec, spec, x, sieve_1e6)
        assert len(calls) == slices
        f, g = f_at_primes(spec, primes), f_at_primes(spec, primes)
        expected = math.fsum(((1.0 - f * g) / primes.astype(np.float64)).tolist())
        assert d.hex() == expected.hex()
        # two specs that differ still form each one's values
        calls.clear()
        pretentious_distance_sq(spec, LIOUVILLE, x, sieve_1e6)
        assert len(calls) == 2 * slices


def test_distance_triangle_inequality(sieve_1e4, rng):
    # D(f,h) <= D(f,g) + D(g,h) on the square roots
    specs = [
        liouville_spec(),
        constant_spec(0.5),
        constant_spec(-0.2, {2: 0.9}),
        power_decay_spec(1.0, 1.0),
    ]
    x = 10**4
    for i, f in enumerate(specs):
        for j, g in enumerate(specs):
            for k, h in enumerate(specs):
                dfh = math.sqrt(pretentious_distance_sq(f, h, x, sieve_1e4))
                dfg = math.sqrt(pretentious_distance_sq(f, g, x, sieve_1e4))
                dgh = math.sqrt(pretentious_distance_sq(g, h, x, sieve_1e4))
                assert dfh <= dfg + dgh + 1e-12, (i, j, k)


def test_distance_edge_cases(sieve_1e4):
    assert pretentious_distance_sq(LIOUVILLE, LIOUVILLE, 1, sieve_1e4) == 0.0
    with pytest.raises(ValueError):
        pretentious_distance_sq(LIOUVILLE, LIOUVILLE, 10**5, sieve_1e4)


# ------------------------------------------------- weighted_tail_diagnostic


def test_weighted_tail_liouville_is_identically_zero(sieve_1e6):
    trace, verdict = weighted_tail_diagnostic(LIOUVILLE, 1.0, 10**6, sieve_1e6)
    assert verdict == VERDICT_CONVERGENT
    assert np.all(trace.values == 0.0)
    assert np.array_equal(trace.x_values, checkpoint_schedule(10**6))


def test_weighted_tail_divergent_cases(sieve_1e6):
    # f == 1 at sigma = 1: terms 2 log p / p, partial sums ~ 2 log x
    _, verdict = weighted_tail_diagnostic(constant_spec(1.0), 1.0, 10**6, sieve_1e6)
    assert verdict == VERDICT_DIVERGENT
    _, verdict2 = weighted_tail_diagnostic(constant_spec(-0.5), 1.0, 10**6, sieve_1e6)
    assert verdict2 == VERDICT_DIVERGENT
    _, verdict3 = weighted_tail_diagnostic(constant_spec(0.5), 0.5, 10**6, sieve_1e6)
    assert verdict3 == VERDICT_DIVERGENT


def test_weighted_tail_convergent_cases(sieve_1e6):
    # sigma = 2 makes sum log p / p^2 converge for any bounded f
    _, verdict = weighted_tail_diagnostic(constant_spec(1.0), 2.0, 10**6, sieve_1e6)
    assert verdict == VERDICT_CONVERGENT
    # power-decay base: 1 + f(p) ~ p^(-1) gives log p / p^2 at sigma = 1
    _, verdict2 = weighted_tail_diagnostic(
        power_decay_spec(1.0, 1.0), 1.0, 10**6, sieve_1e6
    )
    assert verdict2 == VERDICT_CONVERGENT
    # finite exceptions on the -1 base: finitely many nonzero terms
    _, verdict3 = weighted_tail_diagnostic(
        liouville_spec({2: 0.5}), 1.0, 10**6, sieve_1e6
    )
    assert verdict3 == VERDICT_CONVERGENT


@pytest.mark.parametrize("spec", [constant_spec(0.5), LIOUVILLE])
def test_weighted_tail_below_three_increments_is_inconclusive(sieve_1e4, spec):
    # x_max < 16 leaves at most three dyadic points (2, 4, 8): two
    # increments or fewer, too few for the decay rule
    for x_max in range(2, 16):
        _, verdict = weighted_tail_diagnostic(spec, 1.0, x_max, sieve_1e4)
        assert verdict == VERDICT_INCONCLUSIVE, x_max


def test_weighted_tail_at_large_sigma_warns_nothing(sieve_1e6):
    # p^60 passes float max from p of about 1.4e5: those terms are 0.0, where
    # the true ones lie below 1e-306, far under an ulp of the sum
    spec = power_decay_spec(0.5, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace, verdict = weighted_tail_diagnostic(spec, 60.0, 10**6, sieve_1e6)
    assert trace.x_values[0] == 10
    assert verdict == VERDICT_CONVERGENT and 0.0 < trace.values[0] < 1e-17
    assert len(set(trace.values[trace.x_values >= 10**5].tolist())) == 1


def test_weighted_tail_deterministic(sieve_1e5):
    r1 = weighted_tail_diagnostic(constant_spec(0.3), 1.0, 10**5, sieve_1e5)
    r2 = weighted_tail_diagnostic(constant_spec(0.3), 1.0, 10**5, sieve_1e5)
    assert r1[1] == r2[1]
    assert np.array_equal(r1[0].x_values, r2[0].x_values)
    assert np.array_equal(r1[0].values, r2[0].values)


def test_weighted_tail_validation(sieve_1e4):
    with pytest.raises(ValueError):
        weighted_tail_diagnostic(LIOUVILLE, 0.0, 10**4, sieve_1e4)
    # NaN is not <= 0 either: it is rejected, not traced as inconclusive
    with pytest.raises(ValueError, match="sigma must be positive, got nan"):
        weighted_tail_diagnostic(LIOUVILLE, math.nan, 10**4, sieve_1e4)
    with pytest.raises(ValueError):
        weighted_tail_diagnostic(LIOUVILLE, 1.0, 10**5, sieve_1e4)
    with pytest.raises(ValueError):
        weighted_tail_diagnostic(LIOUVILLE, 1.0, 1, sieve_1e4)


# ------------------------------------------------- exactly rounded prefixes

#: pi(386093) = 2^15, one full slice of primes: these x end just before,
#: at and just past the first slice boundary
_SLICE_EDGES = (386092, 386093, 386117)


def fsum_at(terms, primes, xs):
    """``math.fsum`` of the terms of the primes <= x, for each x."""
    return [math.fsum(terms[:c].tolist()) for c in np.searchsorted(primes, xs, side="right")]


#: (f, g) pairs: one walks every prime, the others take the specs with
#: f(p) = -1 at every prime but the exceptions, where S, the weighted tail
#: and D(f, g)^2 visit the exception primes only (an exception on the slice
#: edge, and one equal to the base value, among them)
_SUM_SPECS = [
    (power_decay_spec(0.7, 0.4, {3: 0.25, 386093: 1.0}), constant_spec(0.3, {2: -1.0})),
    (liouville_spec({3: 0.25, 386093: 1.0, 7: -1.0}), constant_spec(-1.0, {2: 0.5})),
    (constant_spec(-1.0, {2: 0.5}), power_decay_spec(0.0, 0.5, {5: 0.0})),
    (power_decay_spec(0.0, 0.5, {5: 0.0}), liouville_spec({3: 0.25, 386093: 1.0, 7: -1.0})),
]


@pytest.mark.parametrize("x", _SLICE_EDGES)
def test_prime_side_sums_are_fsum_of_whole_length_terms(sieve_1e6, x):
    primes = primes_up_to(x, sieve_1e6)
    p = primes.astype(np.float64)
    log_p = np.log(p)
    for f, g in _SUM_SPECS:
        fp, gp = f_at_primes(f, primes), f_at_primes(g, primes)

        S = prime_sum_S(f, x, sieve_1e6)
        assert S.values.tolist() == fsum_at((1.0 + fp) * log_p, primes, S.x_values), f

        trace, verdict = weighted_tail_diagnostic(f, 0.75, x, sieve_1e6)
        terms = (1.0 + fp) * log_p / p ** 0.75
        assert trace.values.tolist() == fsum_at(terms, primes, trace.x_values), f
        dyadic = 2 ** np.arange(1, int(math.log2(x)) + 1)
        assert verdict == _dyadic_verdict(np.array(fsum_at(terms, primes, dyadic))), f

        d2 = math.fsum(((1.0 - fp * gp) / p).tolist())
        assert pretentious_distance_sq(f, g, x, sieve_1e6) == d2, (f, g)


@pytest.mark.parametrize(
    "spec, x",
    [
        (power_decay_spec(0.5, 0.5), 10**6),
        (constant_spec(0.1), 10**6),
        (power_decay_spec(0.7, 0.4), 386093),
    ],
)
def test_S_at_x_does_not_depend_on_the_grid(sieve_1e6, spec, x):
    on_grid = prime_sum_S(spec, x, sieve_1e6).values[-1]
    alone = prime_sum_S(spec, x, sieve_1e6, schedule=np.array([x])).values[-1]
    assert alone.tobytes() == on_grid.tobytes()


# ------------------------------------------------------- verdict mechanics


def test_dyadic_verdict_on_synthetic_histories():
    k = np.arange(20, dtype=np.float64)
    # geometric decay of increments: totals -> 2 (increment ratio 0.5)
    assert _dyadic_verdict(2.0 - 0.5**k) == VERDICT_CONVERGENT
    # equal increments forever: plainly divergent
    assert _dyadic_verdict(3.0 * k) == VERDICT_DIVERGENT
    # growing increments: also divergent
    assert _dyadic_verdict(k**2) == VERDICT_DIVERGENT
    # increments shrink at ratio 0.85: between the two thresholds
    assert _dyadic_verdict(10.0 * (1 - 0.85**k)) == VERDICT_INCONCLUSIVE
    # everything at the floor: converged
    assert _dyadic_verdict(np.full(12, 5.0)) == VERDICT_CONVERGENT
    assert _dyadic_verdict(np.zeros(12)) == VERDICT_CONVERGENT
    # too short to say anything
    assert _dyadic_verdict(np.array([0.0, 1.0])) == VERDICT_INCONCLUSIVE
    # thresholds themselves are the documented constants
    assert DECAY_FACTOR < FLAT_FACTOR < 1.0


def test_dyadic_verdict_needs_three_increments():
    # three points give two increments: one step, decaying, flat or zero,
    # is not enough to judge
    for totals in ([1.0, 2.0, 2.1], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0]):
        assert _dyadic_verdict(np.array(totals)) == VERDICT_INCONCLUSIVE, totals
    # a fourth point decides
    assert _dyadic_verdict(np.array([1.0, 2.0, 2.1, 2.11])) == VERDICT_CONVERGENT
    assert _dyadic_verdict(np.array([0.0, 1.0, 2.0, 3.0])) == VERDICT_DIVERGENT
