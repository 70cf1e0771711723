"""Acceptance suite: one test per headline guarantee of the package.

Each criterion is pinned at a fixed tolerance (and runtime budget where one
applies).  The conftest hook prints one PASS/FAIL line per criterion after
the run, so a red line here localizes a broken guarantee, not a flaky test.
"""

import math
import time

import numpy as np
import pytest

import multlab.dirichlet
from multlab.cli import main, save_sieve_cache
from multlab.dirichlet import (
    IdentityKind,
    dirichlet_sum,
    euler_product_G,
    identity_residual,
    zeta,
)
from multlab.exponent import (
    VERDICT_FAIL,
    VERDICT_PASS,
    PartialSumSeries,
    checkpoint_partial_sums,
    fit_exponent,
    kronecker_check,
)
from multlab.multfunc import (
    LIOUVILLE,
    DerivedFunctionKind,
    constant_spec,
    eval_g,
    eval_h,
    f_at_primes,
    integer_coefficient_stream,
    liouville_spec,
    power_decay_spec,
)
from multlab.primesums import pretentious_distance_sq, prime_sum_S
from multlab.sieve import build_sieve, primes_up_to
from multlab.summation import checkpoint_schedule

# The three fixed finite perturbations used throughout: bump one or both of
# the smallest primes away from -1 and every identity must still close.
FIXED_PERTURBATIONS = ({2: 0.5}, {3: -0.25}, {2: 0.5, 3: -0.25})

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _random_spec(rng):
    """One random spec: any base, 0-2 prime exceptions, values in [-1, 1]."""
    base = rng.integers(0, 3)
    if base == 0:
        spec = liouville_spec
    elif base == 1:
        c = float(rng.uniform(-1.0, 1.0))
        spec = lambda exceptions=None: constant_spec(c, exceptions)
    else:
        c = float(rng.uniform(-1.0, 1.0))
        a = float(rng.uniform(0.2, 2.0))
        spec = lambda exceptions=None: power_decay_spec(c, a, exceptions)
    n_exc = int(rng.integers(0, 3))
    primes = rng.choice(_SMALL_PRIMES, size=n_exc, replace=False)
    exceptions = {int(p): float(rng.uniform(-1.0, 1.0)) for p in primes}
    return spec(exceptions)


def test_criterion_01_square_indicator_identity(sieve_1e6):
    start = time.perf_counter()
    limit = 10**6
    coeffs = integer_coefficient_stream(
        LIOUVILLE, DerivedFunctionKind.H_CONV, limit, sieve_1e6
    )
    n = np.arange(1, limit + 1, dtype=np.int64)
    roots = np.rint(np.sqrt(n.astype(np.float64))).astype(np.int64)
    is_square = (roots * roots == n).astype(np.int64)
    assert np.array_equal(coeffs, is_square)

    series = checkpoint_partial_sums(
        LIOUVILLE, DerivedFunctionKind.H_CONV, limit, sieve_1e6
    )
    assert series.exact
    expected = np.array([math.isqrt(int(x)) for x in series.x_values], dtype=np.float64)
    assert np.array_equal(series.values, expected)
    assert time.perf_counter() - start < 10.0


def test_criterion_02_g_collapse_for_liouville(sieve_1e6):
    limit = 10**6
    stream = integer_coefficient_stream(
        LIOUVILLE, DerivedFunctionKind.G_CONV, limit, sieve_1e6
    )
    assert stream[0] == 1  # n = 1
    assert not np.any(stream[1:])  # g(n) = 0 for every 2 <= n <= 10^6

    # Tie the bulk stream to the pointwise evaluator on a deterministic sample.
    rng = np.random.default_rng(202)
    for n in rng.integers(2, limit + 1, size=2000):
        assert eval_g(LIOUVILLE, int(n), sieve_1e6) == 0.0

    # The product must collapse to exactly 1 regardless of the prime cutoff.
    for s in (1.5, 2.0, 3.0):
        for P in (10**3, 10**5):
            ev = euler_product_G(LIOUVILLE, s, P, sieve_1e6)
            assert abs(ev.value - 1.0) < 1e-12
            assert not ev.heuristic


def test_criterion_03_reciprocal_zeta_identity(sieve_1e6):
    f_eval = dirichlet_sum(
        DerivedFunctionKind.F_MU2, LIOUVILLE, 2.0, 10**6, sieve_1e6
    )
    z_eval = zeta(2.0, 1e-14)
    assert not f_eval.heuristic
    assert not z_eval.heuristic
    residual = abs(f_eval.value * z_eval.value - 1.0)
    budget = (
        abs(z_eval.value) * f_eval.tail_bound
        + abs(f_eval.value) * z_eval.tail_bound
        + f_eval.tail_bound * z_eval.tail_bound
    )
    assert residual <= budget
    assert budget <= 1e-4


def test_criterion_04_zeta_closed_forms():
    start = time.perf_counter()
    z2 = zeta(2.0, 1e-12)
    z4 = zeta(4.0, 1e-12)
    assert abs(z2.value - math.pi**2 / 6.0) <= 1e-10
    assert abs(z4.value - math.pi**4 / 90.0) <= 1e-10
    assert time.perf_counter() - start < 1.0


def test_criterion_05_h_equals_zeta_times_f(sieve_1e6):
    specs = [liouville_spec()] + [liouville_spec(e) for e in FIXED_PERTURBATIONS]
    for spec in specs:
        res = identity_residual(
            IdentityKind.H_EQ_ZETA_F, spec, 2.5, 10**5, 10**5, sieve_1e6
        )
        assert not res.heuristic
        assert res.residual <= res.budget, spec.spec_id()


def test_criterion_06_f_mu2_factorization(sieve_1e6):
    rng = np.random.default_rng(606)
    for _ in range(20):
        spec = _random_spec(rng)
        res = identity_residual(
            IdentityKind.FMU2_EQ_F_U, spec, 2.0, 10**5, 10**5, sieve_1e6
        )
        assert not res.heuristic
        assert res.residual <= res.budget + 1e-10, spec.spec_id()


def test_criterion_07_prime_power_nonnegativity(sieve_1e6):
    limit = 10**6
    primes = primes_up_to(limit, sieve_1e6)
    rng = np.random.default_rng(707)

    # Integer boundary for p^m <= limit, immune to float root error.
    def boundary(m):
        b = int(limit ** (1.0 / m))
        while (b + 1) ** m <= limit:
            b += 1
        while b**m > limit:
            b -= 1
        return b

    for _ in range(200):
        spec = _random_spec(rng)
        fp = f_at_primes(spec, primes)
        # g(p^m) = 1 + f(p) for every m, so its minimum over all prime
        # powers is the minimum over primes.
        assert float((1.0 + fp).min()) >= -1e-12, spec.spec_id()
        # h(p^m) = h(p^(m-1)) + f(p)^m, accumulated layer by layer over
        # exactly the primes with p^m <= limit.
        h_val = 1.0 + fp
        fpow = fp.copy()
        min_h = float(h_val.min())
        m = 2
        while 2**m <= limit:
            k = np.searchsorted(primes, boundary(m), side="right")
            fpow = fpow[:k] * fp[:k]
            h_val = h_val[:k] + fpow
            min_h = min(min_h, float(h_val.min()))
            m += 1
        assert min_h >= -1e-12, spec.spec_id()
        # Tie the sweep to the public evaluators on sampled prime powers.
        for _ in range(10):
            p = int(primes[rng.integers(0, 60)])
            max_m = int(math.log(limit) / math.log(p))
            m_s = int(rng.integers(1, max_m + 1))
            n = p**m_s
            assert eval_h(spec, n, sieve_1e6) >= -1e-12
            assert eval_g(spec, n, sieve_1e6) >= -1e-12


def test_criterion_08_prime_sum_plateaus(sieve_1e6):
    trace = prime_sum_S(LIOUVILLE, 10**6, sieve_1e6)
    assert np.all(trace.values == 0.0)

    spec = liouville_spec({2: 0.5, 3: -0.25})
    plateau = 1.5 * math.log(2.0) + 0.75 * math.log(3.0)
    # Extend the default grid down to x = 3 so the plateau onset is covered.
    schedule = np.unique(
        np.concatenate(
            [np.arange(3, 10, dtype=np.int64), checkpoint_schedule(10**6)]
        )
    )
    perturbed = prime_sum_S(spec, 10**6, sieve_1e6, schedule=schedule)
    assert np.all(perturbed.x_values >= 3)
    assert float(np.max(np.abs(perturbed.values - plateau))) <= 1e-12


def test_criterion_09_pretentious_distance(sieve_1e6):
    for x in (2, 10, 10**3, 10**6):
        assert pretentious_distance_sq(LIOUVILLE, LIOUVILLE, x, sieve_1e6) == 0.0

    one = constant_spec(1.0)
    primes_100 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
    assert len(primes_100) == 25
    # f(p) g(p) = -1 at every prime, so each term is (1 - (-1))/p = 2/p.
    direct = math.fsum(2.0 / p for p in primes_100)
    d2 = pretentious_distance_sq(one, LIOUVILLE, 100, sieve_1e6)
    assert abs(d2 - direct) <= 1e-12

    grid = (2, 10, 50, 100, 10**3, 10**4, 10**5, 10**6)
    vals = [pretentious_distance_sq(one, LIOUVILLE, x, sieve_1e6) for x in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def _coeffs_for_target_sums(target):
    """Coefficients a(n) whose partial sums equal the given S(1..x_max)."""
    return np.diff(np.concatenate(([0.0], target)))


def test_criterion_10_kronecker_fixtures():
    x_max = 2**17
    x = np.arange(1, x_max + 1, dtype=np.float64)

    convergent = (
        (_coeffs_for_target_sums(x**0.25), 0.75),  # S/x^s ~ x^-0.5 -> 0
        (np.concatenate((np.ones(100), np.zeros(x_max - 100))), 0.6),
        (np.zeros(x_max), 0.5),
    )
    divergent = (
        (np.ones(x_max), 0.5),  # S(x) = x
        (np.ones(x_max), 0.75),
        (np.ones(x_max), 1.0),
        (_coeffs_for_target_sums(x**0.9), 0.75),  # S/x^s ~ x^0.15
    )
    for coeffs, sigma in convergent:
        _, _, verdict = kronecker_check(coeffs, sigma, x_max)
        assert verdict == VERDICT_PASS, (sigma, verdict)
    for coeffs, sigma in divergent:
        _, _, verdict = kronecker_check(coeffs, sigma, x_max)
        assert verdict == VERDICT_FAIL, (sigma, verdict)

    # Deterministic: an identical call reproduces the trace bit for bit.
    coeffs, sigma = divergent[0]
    s1, n1, v1 = kronecker_check(coeffs, sigma, x_max)
    s2, n2, v2 = kronecker_check(coeffs, sigma, x_max)
    assert v1 == v2
    assert np.array_equal(n1, n2)
    assert np.array_equal(s1.values, s2.values)


def test_criterion_11_exponent_recovery():
    start = time.perf_counter()
    schedule = checkpoint_schedule(10**6)
    for alpha in (0.7, 0.0):
        series = PartialSumSeries(schedule, schedule.astype(np.float64) ** alpha)
        fit = fit_exponent(series)
        assert abs(fit.alpha_hat - alpha) <= 1e-6

    sieve7 = build_sieve(10**7)
    series = checkpoint_partial_sums(
        LIOUVILLE, DerivedFunctionKind.F_PLAIN, 10**7, sieve7
    )
    fit = fit_exponent(series)
    assert 0.35 <= fit.alpha_hat <= 0.65
    assert time.perf_counter() - start < 120.0


def _verify_report(cfg, out) -> bytes:
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    return (out / "verify_report.csv").read_bytes()


def test_criterion_12_determinism_across_threads(tmp_path, monkeypatch):
    cfg = tmp_path / "exp.cfg"
    # At 0.75 + 7i, G and U walk all 283,146 primes <= 4*10^6: nine
    # chunks of 2^15 primes, which the Euler pool splits by CPU count.
    cfg.write_text(
        "sieve_limit = 4000000\ntruncation_N = 100000\neuler_P = 4000000\n"
        "s_grid = 0.75:7, 1.5\n"
        "spec.base = power_decay\nspec.c = 0.5\nspec.a = 0.5\nspec.exception.2 = 0.3\n"
    )
    save_sieve_cache(build_sieve(4000000), tmp_path / "saved")
    # a cache saved from a built sieve, a cache miss, and a hit on the
    # file the miss wrote
    reports = [_verify_report(cfg, tmp_path / sub) for sub in ("saved", "miss", "miss")]
    saved, missed = (
        (tmp_path / sub / "cache" / "spf_4000000.bin").read_bytes() for sub in ("saved", "miss")
    )
    assert saved == missed
    # the Euler products' chunks inline on one CPU, then on a pool of three
    pools = []

    class CountedPool(multlab.dirichlet.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(multlab.dirichlet, "ThreadPoolExecutor", CountedPool)
    for cpus in (1, 3):
        monkeypatch.setattr(multlab.dirichlet, "_cpus", lambda: cpus)
        reports.append(_verify_report(cfg, tmp_path / "miss"))
    assert pools == [3, 3]  # G and U at 0.75 + 7i
    assert len(set(reports)) == 1
    assert len(reports[0]) > 0
