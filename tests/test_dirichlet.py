"""Zeta evaluation, truncated Dirichlet series, Euler products, identities.

High-precision oracle: mpmath at 30 digits, used only in tests.  Every
rigorous (non-heuristic) SeriesEval must contain the oracle value within
its reported tail_bound -- that is the whole contract of the error
accounting, so these assertions are exact, not order-of-magnitude.
"""

import cmath
import math
import os
import random
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from multlab.dirichlet import (
    _EPS,
    _EXP_REL,
    _LIBM_ULPS,
    ComplexArgument,
    ConvergenceError,
    DomainError,
    IdentityKind,
    PoleError,
    SeriesEval,
    _divisor_tail,
    _power_tail,
    _SeriesStore,
    dirichlet_sum,
    euler_product_G,
    euler_product_U,
    _log1p_product,
    identity_residual,
    zeta,
)
import multlab.dirichlet
import multlab.multfunc
import multlab.primesums
import multlab.sieve
import multlab.summation
from multlab.config import ExperimentConfig
from multlab.multfunc import (
    LIOUVILLE,
    DerivedFunctionKind,
    coefficient_stream,
    constant_spec,
    f_at_primes,
    liouville_spec,
    power_decay_spec,
)
from multlab.primesums import prime_sum_S, pretentious_distance_sq, weighted_tail_diagnostic
from multlab.sieve import factorize, primes_up_to
from multlab.verify import run_verify

mp.mp.dps = 30


def mp_zeta(s: complex) -> complex:
    return complex(mp.zeta(mp.mpc(s.real, s.imag)))


# ------------------------------------------------------------------ zeta


def test_zeta_closed_forms():
    z2 = zeta(2.0)
    z4 = zeta(4.0)
    assert abs(z2.value - math.pi**2 / 6) <= z2.tail_bound
    assert abs(z4.value - math.pi**4 / 90) <= z4.tail_bound
    assert abs(z2.value - math.pi**2 / 6) < 1e-12
    assert abs(z4.value - math.pi**4 / 90) < 1e-12
    assert not z2.heuristic


@pytest.mark.parametrize("sigma", [0.5, 0.6, 1.1, 1.5, 2.0, 3.0, 7.5])
@pytest.mark.parametrize("t", [0.0, 1.0, 14.134725, -3.7])
def test_zeta_vs_mpmath_grid(sigma, t):
    s = complex(sigma, t)
    if s == 1:
        return
    got = zeta(s, tol=1e-12)
    diff = abs(got.value - mp_zeta(s))
    assert not got.heuristic
    assert diff <= got.tail_bound, (s, diff, got.tail_bound)
    assert got.tail_bound < 1e-10


def test_zeta_below_half_is_flagged_but_usable():
    got = zeta(complex(0.3, 2.0), tol=1e-10)
    assert got.heuristic
    diff = abs(got.value - mp_zeta(complex(0.3, 2.0)))
    assert diff <= 100 * got.tail_bound  # observed, not certified


def test_zeta_errors():
    with pytest.raises(PoleError):
        zeta(1.0)
    with pytest.raises(DomainError):
        zeta(0.0)
    with pytest.raises(DomainError):
        zeta(complex(-1.0, 5.0))
    with pytest.raises(ValueError):
        zeta(2.0, tol=0.0)
    # 2^(1-s) = 1 kills the alternating prefactor: s = 1 + 2 pi i / ln 2
    bad_t = 2.0 * math.pi / math.log(2.0)
    with pytest.raises(ConvergenceError):
        zeta(complex(1.0, bad_t))
    # huge imaginary part: depth cap reached before tol
    with pytest.raises(ConvergenceError) as exc:
        zeta(complex(2.0, 400.0), tol=1e-12)
    assert exc.value.achieved_bound > 0


def test_zeta_with_an_overflowing_truncation_constant_raises_convergence_error():
    # from about |t| = 434 the depth estimate 6 kappa / tol overflows, from
    # about |t| = 451 kappa itself: both are past the depth cap
    for t, achieved in ((440.0, math.isfinite), (451.5, math.isinf), (460.0, math.isinf)):
        with pytest.raises(ConvergenceError) as exc:
            zeta(complex(2.0, t), tol=1e-12)
        assert exc.value.achieved_bound > 0 and achieved(exc.value.achieved_bound)


def test_zeta_conjugate_symmetry():
    for s in (complex(2.0, 3.0), complex(0.8, 11.0)):
        up = zeta(s).value
        down = zeta(s.conjugate()).value
        assert down.real == pytest.approx(up.real, rel=1e-15)
        assert down.imag == pytest.approx(-up.imag, rel=1e-15)


def test_zeta_depth_responds_to_tol():
    loose = zeta(2.0, tol=1e-4)
    tight = zeta(2.0, tol=1e-14)
    assert loose.truncation_N < tight.truncation_N
    assert loose.tail_bound <= 1e-4
    assert tight.tail_bound <= 1e-13  # rounding adds a hair over the target


# --------------------------------------------------------- dirichlet_sum


def test_dirichlet_sum_liouville_family(sieve_1e6):
    # classical values: sum lambda(n)/n^2 = zeta(4)/zeta(2) = pi^2/15,
    # sum h(n)/n^2 = zeta(4), sum mu(n)/n^2 = 1/zeta(2) = 6/pi^2,
    # and the g-stream collapses to the single term n = 1.
    s, N = 2.0, 10**5
    f = dirichlet_sum(DerivedFunctionKind.F_PLAIN, LIOUVILLE, s, N, sieve_1e6)
    assert abs(f.value - math.pi**2 / 15) <= f.tail_bound
    h = dirichlet_sum(DerivedFunctionKind.H_CONV, LIOUVILLE, s, N, sieve_1e6)
    assert abs(h.value - math.pi**4 / 90) <= h.tail_bound
    m = dirichlet_sum(DerivedFunctionKind.F_MU2, LIOUVILLE, s, N, sieve_1e6)
    assert abs(m.value - 6 / math.pi**2) <= m.tail_bound
    g = dirichlet_sum(DerivedFunctionKind.G_CONV, LIOUVILLE, s, N, sieve_1e6)
    assert g.value == 1.0 + 0.0j
    for ev in (f, h, m, g):
        assert not ev.heuristic
        assert ev.truncation_N == N


def test_dirichlet_sum_tail_shrinks_with_N(sieve_1e6):
    small = dirichlet_sum(DerivedFunctionKind.F_PLAIN, LIOUVILLE, 2.0, 10**3, sieve_1e6)
    large = dirichlet_sum(DerivedFunctionKind.F_PLAIN, LIOUVILLE, 2.0, 10**4, sieve_1e6)
    assert large.tail_bound < small.tail_bound / 5
    # both windows bracket the limit value
    target = math.pi**2 / 15
    assert abs(small.value - target) <= small.tail_bound
    assert abs(large.value - target) <= large.tail_bound


def test_dirichlet_sum_critical_strip_is_heuristic(sieve_1e4):
    ev = dirichlet_sum(DerivedFunctionKind.F_PLAIN, LIOUVILLE, 0.9, 10**4, sieve_1e4)
    assert ev.heuristic
    assert math.isinf(ev.tail_bound)
    assert np.isfinite(ev.value.real)


def test_dirichlet_sum_complex_point_vs_mpmath(sieve_1e6):
    # f == 1 constant: the stream is 1 for every n, so the truncated sum
    # must match the truncated mpmath sum of n^(-s) exactly (same terms)
    s = complex(2.0, 5.0)
    N = 2000
    ones = constant_spec(1.0)
    ev = dirichlet_sum(DerivedFunctionKind.F_PLAIN, ones, s, N, sieve_1e6)
    oracle = complex(mp.nsum(lambda n: mp.power(n, -mp.mpc(2.0, 5.0)), [1, N]))
    assert abs(ev.value - oracle) < 1e-13
    # and the full zeta value is inside value +- tail_bound
    assert abs(ev.value - mp_zeta(s)) <= ev.tail_bound


def test_dirichlet_sum_tail_stays_finite_where_2_to_sigma_overflows(sieve_1e4):
    # the divisor tail's 2^(sigma-1) overflows from sigma = 1025 (and its
    # product with 1 + ln N a little before); the bound stays finite and
    # rigorous, and the value is a(1) = 1 to the last bit
    for sigma in (1019.5, 1024.5, 1100.0, 1e6):
        for kind in (DerivedFunctionKind.H_CONV, DerivedFunctionKind.G_CONV):
            ev = dirichlet_sum(kind, LIOUVILLE, sigma, 1000, sieve_1e4)
            assert not ev.heuristic and ev.value == 1.0
            assert 0.0 < ev.tail_bound < 1e-15


def test_float_h_sum_is_within_4_eps_of_the_exact_truncated_sum(sieve_1e4):
    # f(p) next to +1 and next to -1: the H stream's rounding plus the sum's
    # stays inside 4 eps sum |a(n)| n^-2 against exact rational arithmetic
    N = 10**4
    for c in (0.999, -1.0 + 1e-6):
        f = Fraction(c)
        exact = Fraction(0)
        weight = 0.0
        for n in range(1, N + 1):
            h = Fraction(1)
            for p, e in factorize(n, sieve_1e4):
                h *= sum(f**j for j in range(e + 1))
            exact += h / (n * n)
            weight += float(h) / (n * n)
        ev = dirichlet_sum(DerivedFunctionKind.H_CONV, constant_spec(c), 2.0, N, sieve_1e4)
        assert ev.value.imag == 0.0
        assert abs(Fraction(ev.value.real) - exact) <= 4 * np.finfo(float).eps * weight


def test_dirichlet_sum_validates_N(sieve_1e4):
    with pytest.raises(ValueError):
        dirichlet_sum(DerivedFunctionKind.F_PLAIN, LIOUVILLE, 2.0, 0, sieve_1e4)
    with pytest.raises(ValueError):
        dirichlet_sum(DerivedFunctionKind.F_PLAIN, LIOUVILLE, 2.0, 10**5, sieve_1e4)


def test_dirichlet_sum_that_leaves_float64_raises_domain_error(sieve_1e6):
    # n^70 passes float max from n of about 2.5e4, and its partial sums
    # overflowed math.fsum; at s = -300, +-inf terms met as -inf + inf
    for kind, s, N in (
        (DerivedFunctionKind.H_CONV, -70.0, 10**5),
        (DerivedFunctionKind.F_PLAIN, -300.0, 1000),
        (DerivedFunctionKind.F_MU2, complex(-300.0, 2.0), 1000),  # 0 * inf is NaN
    ):
        with pytest.raises(DomainError, match="leaves float64"):
            dirichlet_sum(kind, LIOUVILLE, s, N, sieve_1e6)
    # while every term and sum is finite, a point left of 0 sums as usual
    n = np.arange(1, 1001, dtype=np.float64)
    terms = coefficient_stream(LIOUVILLE, DerivedFunctionKind.F_PLAIN, 1000, sieve_1e6) * n**3
    ev = dirichlet_sum(DerivedFunctionKind.F_PLAIN, LIOUVILLE, -3.0, 1000, sieve_1e6)
    assert ev.value == complex(math.fsum(terms.tolist()), 0.0) and ev.heuristic


# --------------------------------------------------------- Euler products


def test_euler_product_G_liouville_collapses_exactly(sieve_1e6):
    for sigma in (1.5, 2.0, 3.0):
        ev = euler_product_G(LIOUVILLE, sigma, 10**5, sieve_1e6)
        assert ev.value == 1.0 + 0.0j
        assert not ev.heuristic
        # bound is dominated by the per-factor rounding allowance (~2 eps
        # per factor over ~10^4 factors), still comfortably tiny
        assert ev.tail_bound < 1e-10


def test_euler_product_G_single_exception_factor(sieve_1e6):
    # f(2) = 0, f(p) = -1 elsewhere: every factor except p = 2 is 1, and
    # the p = 2 factor is (2^s + 0)/(2^s - 1) = 4/3 at s = 2
    spec = liouville_spec({2: 0.0})
    ev = euler_product_G(spec, 2.0, 10**5, sieve_1e6)
    assert ev.value.real == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert abs(ev.value - 4.0 / 3.0) <= ev.tail_bound
    # complex point: same single surviving factor, computed by hand
    s = complex(2.0, 1.0)
    ev_c = euler_product_G(spec, s, 10**5, sieve_1e6)
    factor = (2**s) / (2**s - 1)
    assert abs(ev_c.value - factor) <= ev_c.tail_bound
    assert ev_c.value == pytest.approx(factor, rel=1e-12)


def test_euler_product_G_exception_beyond_P_lands_in_tail(sieve_1e6):
    # 99991 is prime and sits between P = 10^4 and P' = 10^5; the truncated
    # product misses its factor entirely, so tail accounting must cover it
    spec = liouville_spec({99991: 1.0})
    near = euler_product_G(spec, 2.0, 10**4, sieve_1e6)
    far = euler_product_G(spec, 2.0, 10**5, sieve_1e6)
    missing = 2.0 / (99991.0**2 - 1.0)
    assert near.tail_bound >= missing
    assert abs(near.value - far.value) <= near.tail_bound + far.tail_bound


def test_euler_product_G_power_decay_rigorous_below_one(sieve_1e6):
    # 1 + f(p) ~ p^(-1), so the product converges for sigma + 1 > 1 and the
    # tail is rigorous even at sigma = 0.75; cross-check two truncations
    spec = power_decay_spec(1.0, 1.0)
    lo = euler_product_G(spec, 0.75, 10**4, sieve_1e6)
    hi = euler_product_G(spec, 0.75, 10**6, sieve_1e6)
    assert not lo.heuristic and not hi.heuristic
    assert abs(lo.value - hi.value) <= lo.tail_bound + hi.tail_bound
    # constant base at the same sigma has no decay: flagged heuristic
    flat = euler_product_G(constant_spec(0.5), 0.75, 10**4, sieve_1e6)
    assert flat.heuristic and math.isinf(flat.tail_bound)


def test_euler_product_U_matches_inverse_zeta(sieve_1e6):
    # f = lambda has f(p)^2 = 1, so U is the truncated 1/zeta(2s)
    for sigma in (0.75, 1.0, 1.5, 2.0):
        ev = euler_product_U(LIOUVILLE, sigma, 10**5, sieve_1e6)
        target = 1.0 / mp_zeta(complex(2 * sigma, 0.0))
        assert not ev.heuristic
        assert abs(ev.value - target) <= ev.tail_bound, sigma
    # complex point
    s = complex(1.5, 2.0)
    ev = euler_product_U(LIOUVILLE, s, 10**5, sieve_1e6)
    assert abs(ev.value - 1.0 / mp_zeta(2 * s)) <= ev.tail_bound


def test_euler_product_U_below_half_is_heuristic(sieve_1e4):
    ev = euler_product_U(LIOUVILLE, 0.4, 10**4, sieve_1e4)
    assert ev.heuristic
    assert math.isinf(ev.tail_bound)


def test_euler_products_whose_tail_factor_overflows_are_heuristic(sieve_1e4):
    # just right of their lines of convergence the tail bound expm1(log_tail)
    # overflows float64: U at sigma = 1/2, G for 1 + f(p) = p^(-1/2) / 2 at
    # sigma = 1/2
    for product, spec in (
        (euler_product_U, LIOUVILLE),
        (euler_product_G, power_decay_spec(0.5, 0.5)),
    ):
        ev = product(spec, 0.5000001, 10**3, sieve_1e4)
        assert ev.heuristic and math.isinf(ev.tail_bound)
        assert math.isfinite(ev.value.real) and ev.value.imag == 0.0
        assert not product(spec, 0.6, 10**3, sieve_1e4).heuristic


def test_euler_product_empty_prime_range(sieve_1e4):
    ev = euler_product_G(LIOUVILLE, 2.0, 1, sieve_1e4)
    assert ev.value == 1.0 + 0.0j
    assert ev.truncation_N == 0


def test_euler_product_validates_P(sieve_1e4):
    with pytest.raises(ValueError):
        euler_product_G(LIOUVILLE, 2.0, 10**5, sieve_1e4)
    with pytest.raises(DomainError):
        euler_product_G(LIOUVILLE, 0.0, 10**3, sieve_1e4)
    with pytest.raises(ValueError):
        euler_product_U(LIOUVILLE, 2.0, 10**5, sieve_1e4)
    # sigma <= 0: a factor 1 - f(p)^2 p^(-2s) can be negative (no logarithm)
    for s in (0.0, -0.5, complex(-0.5, 3.0)):
        with pytest.raises(DomainError):
            euler_product_U(LIOUVILLE, s, 10**3, sieve_1e4)


def _mp_euler(which, spec, s, primes):
    """30-digit product over ``primes`` of the G or U factor at the float f(p)."""
    z = mp.mpc(s.real, s.imag)
    out = mp.mpf(1)
    for p, f in zip(primes.tolist(), f_at_primes(spec, primes).tolist()):
        if which == "G":
            ps = mp.power(p, z)
            out *= (ps + f) / (ps - 1)
        else:
            out *= 1 - mp.mpf(f) ** 2 * mp.power(p, -2 * z)
    return out


def _rounding_only(which, spec, s, P, sieve):
    """(value, rounding allowance) of G or U without the truncation tail."""
    primes = primes_up_to(P, sieve)
    log_p = sieve.log_primes[: primes.size]
    power = 1 if which == "G" else 2
    return _log1p_product(spec, primes, log_p, ComplexArgument.of(s), power)


_ALLOWANCE_CASES = [
    # sigma = 0.3: rigorous for G only, because 1 + f(p) = 1/p
    ("G", power_decay_spec(1.0, 1.0), 0.3, 10**4),
    ("G", power_decay_spec(1.0, 1.0), complex(0.3, 7.5), 10**4),
    # f(2) = 1: the largest x_p, 2 / (2^0.3 - 1) = 8.7
    ("G", power_decay_spec(1.0, 1.0, {2: 1.0}), 0.3, 10**4),
    ("G", power_decay_spec(1.0, 1.0, {2: 1.0}), complex(0.3, 20.0), 10**4),
]
for _which in ("G", "U"):
    _ALLOWANCE_CASES += [
        (_which, constant_spec(0.5), 0.75, 10**4),
        (_which, constant_spec(0.5, {2: 1.0}), complex(0.75, 13.0), 10**4),
        (_which, power_decay_spec(0.5, 0.5), 1.1, 10**5),
        (_which, power_decay_spec(0.5, 0.5), complex(1.1, 20.0), 10**4),
        (_which, constant_spec(-0.3, {2: 1.0, 3: 0.25}), 2.0, 10**4),
        (_which, constant_spec(-0.3, {2: 1.0, 3: 0.25}), complex(2.0, 3.0), 10**4),
        (_which, constant_spec(0.9), 3.0, 10**4),
        (_which, constant_spec(0.9), complex(3.0, 17.0), 10**4),
        # f(p) near -1 at small primes, and 1 + f(p) = 1e-6 p^(-1/2) elsewhere
        (_which, power_decay_spec(1e-6, 0.5, {2: -0.999999, 3: -0.99}), 1.1, 10**4),
        (_which, power_decay_spec(1e-6, 0.5, {2: -0.999999, 3: -0.99}), complex(2.0, 9.0), 10**4),
    ]


@pytest.mark.parametrize(
    "which,spec,s,P",
    _ALLOWANCE_CASES,
    ids=[f"{w}-{sp.spec_id()}-{s}-{P}" for w, sp, s, P in _ALLOWANCE_CASES],
)
def test_euler_rounding_allowance_covers_mpmath(which, spec, s, P, sieve_1e5):
    # truncated at the same P, so |value - oracle| is rounding alone
    value, allowance = _rounding_only(which, spec, s, P, sieve_1e5)
    public = (euler_product_G if which == "G" else euler_product_U)(spec, s, P, sieve_1e5)
    assert public.value == value
    assert 0.0 < allowance < 1e-10 * abs(value)
    oracle = _mp_euler(which, spec, complex(s), primes_up_to(P, sieve_1e5))
    assert abs(mp.mpc(value) - oracle) <= allowance
    if complex(s).imag == 0.0:
        assert value.imag == 0.0


def _bits(ev):
    return struct.pack("<ddd", ev.value.real, ev.value.imag, ev.tail_bound)


#: 78,498 primes up to 10^6: three chunks of 2^15
_POOLED_SPEC = power_decay_spec(0.5, 0.5, {2: 0.3, 7: -0.5})


@pytest.mark.parametrize("product", [euler_product_G, euler_product_U])
@pytest.mark.parametrize("s", [1.5, complex(1.2, 7.0)])
def test_euler_products_do_not_depend_on_the_worker_count(product, s, sieve_1e6, monkeypatch):
    auto = _bits(product(_POOLED_SPEC, s, 10**6, sieve_1e6))
    for workers in (1, 3):
        monkeypatch.setattr(multlab.sieve, "_cpus", lambda: workers)
        assert _bits(product(_POOLED_SPEC, s, 10**6, sieve_1e6)) == auto


def test_euler_allowance_does_not_depend_on_blas_threads():
    # numpy's dot would run through the BLAS library, whose own threads
    # split a reduction in a count-dependent way
    code = """
from multlab.dirichlet import euler_product_G, euler_product_U
from multlab.multfunc import constant_spec, power_decay_spec
from multlab.sieve import build_sieve
sieve = build_sieve(10**6)
for spec in (power_decay_spec(0.5, 0.5, {2: 0.3}), constant_spec(-0.4, {3: 1.0})):
    for s in (1.5, 2.7, complex(1.2, 7.0), complex(2.1, 13.0)):
        for product in (euler_product_G, euler_product_U):
            print(product(spec, s, 10**6, sieve).tail_bound.hex())
"""
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("workers", [1, 3])
def test_degenerate_factor_in_a_late_chunk_raises(workers, sieve_1e6, monkeypatch):
    monkeypatch.setattr(multlab.sieve, "_cpus", lambda: workers)
    primes = primes_up_to(10**6, sieve_1e6)
    log_p = sieve_1e6.log_primes[: primes.size].copy()
    log_p[70000] = math.nan  # third chunk: its factor is NaN
    for power in (1, 2):
        with pytest.raises(DomainError, match="degenerate"):
            _log1p_product(_POOLED_SPEC, primes, log_p, ComplexArgument(1.5, 2.0), power)


def test_pool_workers_call_no_public_function(sieve_1e6, monkeypatch):
    # a wrapper around a public name (as a tracer installs) may assume one
    # thread, so pool workers must keep to private helpers
    main = threading.main_thread()

    def on_main_thread(fn):
        def wrapped(*args, **kwargs):
            assert threading.current_thread() is main, f"{fn.__name__} called on a pool thread"
            return fn(*args, **kwargs)

        return wrapped

    for module in (multlab.dirichlet, multlab.multfunc, multlab.primesums, multlab.summation):
        for name in ("f_at_primes", "fsum_array"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, on_main_thread(getattr(module, name)))
    monkeypatch.setattr(multlab.sieve, "_cpus", lambda: 3)
    for s in (1.5, complex(1.2, 7.0)):
        euler_product_G(_POOLED_SPEC, s, 10**6, sieve_1e6)
        euler_product_U(_POOLED_SPEC, s, 10**6, sieve_1e6)
    pretentious_distance_sq(_POOLED_SPEC, LIOUVILLE, 10**6, sieve_1e6)
    prime_sum_S(_POOLED_SPEC, 10**6, sieve_1e6)
    weighted_tail_diagnostic(_POOLED_SPEC, 1.0, 10**6, sieve_1e6)


@pytest.mark.parametrize("s", [0.3, 2.0, complex(1.5, 20.0)])
def test_euler_products_with_every_factor_one_are_exactly_one(s, sieve_1e5):
    # G with the constant -1 base has 1 + f(p) = 0; U with the constant 0
    # base has f(p)^2 = 0: every factor is exactly 1
    g = euler_product_G(constant_spec(-1.0), s, 10**5, sieve_1e5)
    assert g.value == 1.0 and not g.heuristic and g.tail_bound < 1e-14
    if complex(s).real > 0.5:
        u = euler_product_U(constant_spec(0.0), s, 10**5, sieve_1e5)
        assert u.value == 1.0 and not u.heuristic


def test_euler_product_without_a_rounding_bound_is_heuristic(sieve_1e4):
    # 1 + f(p) = p^(-2) gives G a rigorous tail at any sigma > 0, but at
    # sigma = 1e-4 the factor 1/(1 - 2^-sigma) = 1.4e4 puts the per-term
    # rounding bound past first order: no rigorous bound is claimed
    spec = power_decay_spec(1.0, 2.0)
    assert not euler_product_G(spec, 0.05, 10**4, sieve_1e4).heuristic
    ev = euler_product_G(spec, 1e-4, 10**4, sieve_1e4)
    assert ev.heuristic and math.isinf(ev.tail_bound) and math.isfinite(ev.value.real)


def test_euler_products_at_tiny_sigma_raise_domain_error(sieve_1e4):
    # at sigma = 1e-17, 2^(-sigma) rounds to 1: the factor at p = 2 is a
    # float64 pole.  At sigma = 1e-15 G's log sum (about 3.6e3) is past
    # log(float max), so its exp would overflow.
    spec = power_decay_spec(1.0, 2.0)
    for s in (1e-17, complex(1e-17, 1.0)):
        for product in (euler_product_G, euler_product_U):
            with pytest.raises(DomainError, match="2\\^"):
                product(spec, s, 10**3, sieve_1e4)
    with pytest.raises(DomainError, match="overflows"):
        euler_product_G(spec, 1e-15, 10**3, sieve_1e4)


def test_euler_products_at_huge_sigma_warn_nothing(sieve_1e4):
    # -sigma log p passes -float max: p^(-s) is 0.0 and every factor is 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for s in (1e308, complex(1e308, 1.0)):
            for product in (euler_product_G, euler_product_U):
                assert product(constant_spec(0.5), s, 10**4, sieve_1e4).value == 1.0


def test_liouville_euler_products_over_the_benchmark_input_range(sieve_1e4):
    # the prime-side benchmark's inputs: Liouville with exceptions at small
    # primes, sigma in [1.1, 3], t = 0 or t in [1, 20].  G is then the finite
    # product over the exceptions, so its bound is the rounding allowance alone
    rng = random.Random(7301)
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    P = 10**4
    for _ in range(600):
        chosen = rng.sample(small, rng.randint(0, 3))
        exceptions = {p: rng.choice((-1.0, 0.0, 0.5, 1.0)) for p in chosen}
        spec = liouville_spec(exceptions)
        sigma = round(rng.uniform(1.1, 3.0), 3)
        t = 0.0 if rng.random() < 0.5 else round(rng.uniform(1.0, 20.0), 3)
        s = complex(sigma, t) if t else sigma
        g = euler_product_G(spec, s, P, sieve_1e4)
        u = euler_product_U(spec, s, P, sieve_1e4)
        assert not g.heuristic and not u.heuristic
        z = mp.mpc(sigma, t)
        oracle = mp.mpf(1)
        closed = 1.0 + 0.0j  # the benchmark's own check, in cmath
        for p, v in exceptions.items():
            ps = mp.power(p, z)
            oracle *= (ps + v) / (ps - 1)
            p_s = cmath.exp(complex(s) * math.log(p))
            closed *= (p_s + v) / (p_s - 1.0)
        assert abs(mp.mpc(g.value) - oracle) <= g.tail_bound, (exceptions, s)
        assert abs(g.value - closed) <= g.tail_bound, (exceptions, s)
        if t == 0.0:
            assert g.value.imag == 0.0 and u.value.imag == 0.0
            assert g.value.real >= 1.0 - g.tail_bound
            assert 0.0 < u.value.real <= 1.0 + u.tail_bound


def _ulps(got, exact) -> float:
    """Largest |got - exact| in ulps of the float nearest each exact value."""
    worst = 0.0
    for g, e in zip(got.tolist(), exact):
        ulp = math.ulp(float(e)) if float(e) != 0.0 else math.ulp(0.0)
        worst = max(worst, float(abs(mp.mpf(g) - e)) / ulp)
    return worst


def test_libm_ulp_assumption():
    # the Euler-product allowance assumes each elementary function is within
    # _LIBM_ULPS ulps over the ranges the products use; a numpy build with
    # less accurate kernels must fail here rather than break the allowance
    rng = np.random.default_rng(7302)
    n = 1500
    log_max = math.log(10**7)
    p = rng.integers(2, 10**7, n).astype(np.float64)
    y = -rng.uniform(0.0, 2 * 3.0 * log_max, n)  # -power sigma log p
    theta = rng.uniform(-2 * 20.0 * log_max, 2 * 20.0 * log_max, n)
    z = np.concatenate([rng.uniform(-0.99, 10.0, n), rng.uniform(-1e-8, 1e-8, n)])
    b = rng.uniform(-10.0, 10.0, n) * 10.0 ** rng.uniform(-12, 0, n)
    a1 = rng.uniform(-9.0, 11.0, n)
    checks = {
        "exp": (np.exp(y), [mp.exp(v) for v in y.tolist()]),
        "log": (np.log(p), [mp.log(v) for v in p.tolist()]),
        "log1p": (np.log1p(z), [mp.log1p(v) for v in z.tolist()]),
        "cos": (np.cos(theta), [mp.cos(v) for v in theta.tolist()]),
        "sin": (np.sin(theta), [mp.sin(v) for v in theta.tolist()]),
        "arctan2": (np.arctan2(b, a1), [mp.atan2(v, w) for v, w in zip(b.tolist(), a1.tolist())]),
    }
    for name, (got, exact) in checks.items():
        assert _ulps(got, exact) <= _LIBM_ULPS, name
    # the final exp of a complex log sum, one value at a time
    for re, im in zip(rng.uniform(-50.0, 50.0, 300).tolist(), rng.uniform(-700.0, 700.0, 300).tolist()):
        exact = mp.exp(mp.mpc(re, im))
        assert abs(mp.mpc(complex(np.exp(complex(re, im)))) - exact) <= _EXP_REL * abs(exact)


def test_dirichlet_sum_rejects_swapped_arguments(sieve_1e4):
    with pytest.raises(TypeError, match="kind first"):
        dirichlet_sum(LIOUVILLE, DerivedFunctionKind.F_PLAIN, 2.0, 10**3, sieve_1e4)
    with pytest.raises(TypeError, match="kind first"):
        dirichlet_sum("F_plain", LIOUVILLE, 2.0, 10**3, sieve_1e4)


# ------------------------------------------------------ identity residuals


@pytest.mark.parametrize(
    "spec",
    [
        liouville_spec(),
        liouville_spec({2: 0.5}),
        constant_spec(0.5),
        constant_spec(-0.3, {5: 0.9}),
        power_decay_spec(1.0, 1.0),
    ],
    ids=lambda s: s.spec_id(),
)
@pytest.mark.parametrize("identity", list(IdentityKind))
def test_identities_hold_within_budget(identity, spec, sieve_1e6):
    res = identity_residual(identity, spec, 2.0, 10**4, 10**4, sieve_1e6)
    assert not res.heuristic
    assert res.residual <= res.budget, (identity, spec.spec_id())
    assert res.passes()


def test_identity_residual_at_complex_point(sieve_1e6):
    s = complex(2.5, 3.0)
    for identity in IdentityKind:
        res = identity_residual(identity, liouville_spec({3: 0.25}), s, 10**4, 10**4, sieve_1e6)
        assert not res.heuristic
        assert res.residual <= res.budget, identity


def test_identity_residual_heuristic_needs_tolerance(sieve_1e4):
    res = identity_residual(
        IdentityKind.H_EQ_ZETA_F, LIOUVILLE, 0.8, 10**4, 10**4, sieve_1e4
    )
    assert res.heuristic
    with pytest.raises(ValueError):
        res.passes()
    assert res.passes(tolerance=1.0) in (True, False)


def test_identity_budgets_are_not_vacuous(sieve_1e6):
    # the budget must reflect actual truncation scales: at s = 3, N = P = 10^4
    # everything is known to ~1e-9 or better, so the budget should be small
    res = identity_residual(IdentityKind.H_EQ_ZETA_F, LIOUVILLE, 3.0, 10**4, 10**4, sieve_1e6)
    assert res.budget < 1e-6
    assert math.isfinite(res.budget)


# ------------------------------------------------------------ series store


def test_verify_builds_each_stream_once(sieve_1e6, monkeypatch):
    import multlab.dirichlet as dl

    builds = []
    original = dl.coefficient_stream

    def counting(spec, kind, limit, sieve):
        builds.append(kind)
        return original(spec, kind, limit, sieve)

    monkeypatch.setattr(dl, "coefficient_stream", counting)
    run_verify(ExperimentConfig(), sieve=sieve_1e6)
    assert sorted(builds, key=lambda k: k.value) == sorted(
        DerivedFunctionKind, key=lambda k: k.value
    )


@pytest.mark.parametrize("s", [2.0, complex(1.5, 4.0), 0.8])
def test_store_sums_are_fsum_of_whole_length_terms(s, sieve_1e6):
    # N = 3 * 2^15 + 5: three full slices and a short one
    N = 3 * 2**15 + 5
    spec = power_decay_spec(0.5, 0.5, {3: 0.25})
    point = ComplexArgument.of(s)
    n = np.arange(1, N + 1, dtype=np.float64)
    weights = n ** (-point.sigma)
    phase = -point.t * np.log(n)
    store = _SeriesStore(spec, N, N, sieve_1e6)
    for kind in DerivedFunctionKind:
        mod = coefficient_stream(spec, kind, N, sieve_1e6) * weights
        ev = store.get(kind, point)
        expected = complex(
            math.fsum((mod * np.cos(phase)).tolist()) if point.t else math.fsum(mod.tolist()),
            math.fsum((mod * np.sin(phase)).tolist()) if point.t else 0.0,
        )
        assert (ev.value.real.hex(), ev.value.imag.hex()) == (
            expected.real.hex(), expected.imag.hex()
        ), kind
        if point.sigma > 1.0:
            divisor = kind in (DerivedFunctionKind.H_CONV, DerivedFunctionKind.G_CONV)
            tail = (_divisor_tail if divisor else _power_tail)(N, point.sigma)
            # the allowance sum lies between the exact sum and its
            # (1 + N eps)^2 multiple (see test_allowance_sum_is_bounded_by_its_factor)
            exact = math.fsum(np.abs(mod).tolist())
            factor = 1.0 + N * _EPS
            assert tail + 4.0 * _EPS * exact <= ev.tail_bound, kind
            assert ev.tail_bound <= tail + 4.0 * _EPS * (exact * factor**2), kind
        else:
            assert ev.heuristic and ev.tail_bound == math.inf


@pytest.mark.parametrize("N", [1, 2**15, 3 * 2**15 + 5])
@pytest.mark.parametrize("s", [2.0, complex(1.5, 4.0), 0.8, 40.0])
@pytest.mark.parametrize(
    "spec", [power_decay_spec(0.5, 0.5, {3: 0.25}), constant_spec(-0.9)], ids=["pd", "const"]
)
def test_allowance_sum_is_bounded_by_its_factor(spec, s, N, sieve_1e6):
    # the float allowance sum R of _dirichlet_sums against S, the exact sum
    # of the computed |terms|: S <= R <= S (1 + N eps)^2.  No float lies
    # strictly between S and its rounding math.fsum, so S <= R gives
    # fsum <= R.  Above, R's N roundings use about N u of the second
    # factor's N eps (u = eps / 2), which leaves room for the roundings of
    # fsum and of this product (N = 1: R is fl(fsum * factor))
    point = ComplexArgument.of(s)
    n = np.arange(1, N + 1, dtype=np.float64)
    streams = [coefficient_stream(spec, kind, N, sieve_1e6) for kind in DerivedFunctionKind]
    sums = multlab.dirichlet._dirichlet_sums(streams, N, point)
    factor = 1.0 + N * _EPS
    for kind, stream, (_, allowance) in zip(DerivedFunctionKind, streams, sums):
        exact = math.fsum(np.abs(stream * n ** (-point.sigma)).tolist())
        assert exact <= allowance <= exact * factor**2, kind


def test_residual_sums_every_stream_at_its_point_in_one_pass(sieve_1e4, monkeypatch):
    import multlab.dirichlet as dl

    passes, builds = [], []
    original_sums, original_stream = dl._dirichlet_sums, dl.coefficient_stream

    def counting_sums(coeffs, length, point):
        if coeffs and length == 10**4:  # zeta sums its few acceleration terms here too
            passes.append((len(coeffs), point))
        return original_sums(coeffs, length, point)

    def counting_stream(spec, kind, limit, sieve):
        builds.append(kind)
        return original_stream(spec, kind, limit, sieve)

    monkeypatch.setattr(dl, "_dirichlet_sums", counting_sums)
    monkeypatch.setattr(dl, "coefficient_stream", counting_stream)
    store = _SeriesStore(LIOUVILLE, 10**4, 10**3, sieve_1e4)
    point = ComplexArgument(2.0, 3.0)
    store.get(DerivedFunctionKind.F_PLAIN, point)
    store.residual(IdentityKind.G_PRODUCT_VS_SUM, point)  # sums the other three
    assert passes == [(1, point), (3, point)]
    for identity in IdentityKind:
        store.residual(identity, point)
    for kind in DerivedFunctionKind:
        store.get(kind, point)
    assert len(passes) == 2 and len(builds) == 4


def test_a_failing_point_is_summed_once_for_every_identity(sieve_1e4, monkeypatch):
    import multlab.dirichlet as dl

    passes = []
    original_sums = dl._dirichlet_sums

    def counting_sums(coeffs, length, point):
        if coeffs and length == 10**4:
            passes.append((len(coeffs), point))
        return original_sums(coeffs, length, point)

    monkeypatch.setattr(dl, "_dirichlet_sums", counting_sums)
    store = _SeriesStore(LIOUVILLE, 10**4, 10**3, sieve_1e4)
    point = ComplexArgument(-300.0)  # n^300 leaves float64 from n = 11
    for identity in IdentityKind:
        with pytest.raises(DomainError):
            store.residual(identity, point)
    for kind in DerivedFunctionKind:
        with pytest.raises(DomainError, match="leaves float64"):
            store.get(kind, point)
    assert passes == [(4, point)]


def test_the_store_memoises_exactly_the_no_value_failures(sieve_1e4, monkeypatch):
    import multlab.dirichlet as dl

    calls = []
    original_zeta, original_U = dl.zeta, dl.euler_product_U

    def counting_zeta(s, tol=1e-12):
        calls.append(("zeta", tol))
        return original_zeta(s, tol)

    def counting_U(spec, s, P, sieve):
        calls.append(("U", P))
        return original_U(spec, s, P, sieve)

    monkeypatch.setattr(dl, "zeta", counting_zeta)
    monkeypatch.setattr(dl, "euler_product_U", counting_U)
    store = _SeriesStore(LIOUVILLE, 10**3, 10**3, sieve_1e4)
    # zeta's ConvergenceError keeps its achieved bound; U's factor at p = 2
    # cancels to log1p(-1) at 1e-9 + 1e-9i, a degenerate factor
    first = {}
    for name, s, error in (
        ("zeta", complex(2.0, 400.0), ConvergenceError),
        ("zeta", 1.0, PoleError),
        ("U", complex(1e-9, 1e-9), DomainError),
    ):
        for _ in range(3):
            with pytest.raises(error) as info:
                store.get(name, s)
            assert first.setdefault(error, info.value) is info.value
            assert len(info.traceback) < 10  # re-raising grows no traceback
    assert [name for name, _ in calls] == ["zeta", "zeta", "U"]
    assert first[ConvergenceError].achieved_bound > 0
    assert first[DomainError].args == ("degenerate Euler factor encountered",)
    # any other error is a bad argument, raised afresh on every get
    calls.clear()
    bad = _SeriesStore(LIOUVILLE, 10**3, 10**3, sieve_1e4, zeta_tol=0.0)
    for _ in range(2):
        with pytest.raises(ValueError, match="tol must be positive"):
            bad.get("zeta", 2.0)
    assert calls == [("zeta", 0.0), ("zeta", 0.0)]


@pytest.mark.parametrize(
    "sigma, t", [(math.nan, 1.0), (2.0, math.nan), (math.inf, 0.0), (2.0, math.inf)]
)
def test_zeta_at_a_non_finite_point_is_a_domain_error_the_store_memoises(
    sigma, t, sieve_1e4, monkeypatch
):
    # a NaN part would reach math.ceil's ValueError, which the store does
    # not memoise
    point = ComplexArgument(sigma, t)
    with pytest.raises(DomainError, match="needs a finite s"):
        zeta(point)
    calls = []
    original = multlab.dirichlet.zeta

    def counting_zeta(s, tol=1e-12):
        calls.append(s)
        return original(s, tol)

    monkeypatch.setattr(multlab.dirichlet, "zeta", counting_zeta)
    store = _SeriesStore(LIOUVILLE, 10**3, 10**3, sieve_1e4)
    for _ in range(2):
        with pytest.raises(DomainError):
            store.get("zeta", point)
    assert len(calls) == 1


def test_a_pass_with_a_non_finite_term_stops_at_its_first_slice(sieve_1e6, monkeypatch):
    import multlab.dirichlet as dl

    class Recorded(np.ndarray):  # a stream that records the slices read from it
        def __getitem__(self, key):
            read.append(key.start)
            return np.asarray(self)[key]

    # n^70 passes float max from n of about 2.57e4, inside the first slice
    N, point = 4 * 2**15, ComplexArgument(-70.0)
    message = "Dirichlet sum leaves float64 at sigma=-70.0"
    stream = np.ones(N)
    for s in (point, ComplexArgument(-70.0, 2.0)):
        read = []
        with pytest.raises(DomainError) as info:
            dl._dirichlet_sums([stream.view(Recorded)], N, s)
        assert str(info.value) == message and read == [0]
    # every term finite, the sum not: the allowance sum overflows
    with pytest.raises(DomainError) as info:
        dl._dirichlet_sums([stream], 25_000, point)
    assert str(info.value) == message
    # the store memoises the failure: one pass, the same error every time
    passes = []
    original_sums = dl._dirichlet_sums

    def counting_sums(coeffs, length, at):
        passes.append(len(coeffs))
        return original_sums(coeffs, length, at)

    monkeypatch.setattr(dl, "_dirichlet_sums", counting_sums)
    store = _SeriesStore(LIOUVILLE, N, 10**3, sieve_1e6)
    for _ in range(3):
        for kind in DerivedFunctionKind:
            with pytest.raises(DomainError) as info:
                store.get(kind, point)
            assert str(info.value) == message
    assert passes == [1, 1, 1, 1]


def test_identity_checks_build_no_whole_length_array(sieve_1e6):
    # one float64 array of N = 10^6 terms is 7.6 MiB; a slice of 2^15 is 256 KiB
    N = 10**6
    spec = power_decay_spec(0.5, 0.5, {3: 0.25})
    store = _SeriesStore(spec, N, 10**3, sieve_1e6)
    for kind in DerivedFunctionKind:
        store._streams[kind] = coefficient_stream(spec, kind, N, sieve_1e6)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for s in (2.0, 3.0, complex(2.5, 3.0)):
            for identity in IdentityKind:
                store.residual(identity, s)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_verify_identity_lines_equal_direct_residuals(sieve_1e4):
    # a duplicated point (2+0i beside 2-0i), a complex point, sigma <= 0,
    # the pole and a heuristic point: every line matches a fresh evaluation
    grid = ((2.0, 0.0), (2.0, -0.0), (2.0, 3.0), (-0.5, 0.0), (1.0, 0.0), (0.8, 0.0))
    cfg = ExperimentConfig(
        sieve_limit=10**4,
        spec=power_decay_spec(0.5, 0.5, {3: 0.25}),
        s_grid=grid,
        truncation_N=10**3,
        euler_P=500,
        tolerances=(("H_eq_zetaF", 1e-2),),
    )
    lines = run_verify(cfg, sieve=sieve_1e4).lines[2 : 2 + 4 * len(grid)]
    expected = [(identity, sigma, t) for sigma, t in grid for identity in IdentityKind]
    assert len(lines) == len(expected)
    for line, (identity, sigma, t) in zip(lines, expected):
        assert line.check_name == f"{identity.value}:s={ComplexArgument(sigma, t)}"
        try:
            res = identity_residual(
                identity, cfg.spec, complex(sigma, t), cfg.truncation_N, cfg.euler_P,
                sieve_1e4, zeta_tol=cfg.zeta_tol,
            )
        except (PoleError, DomainError, ConvergenceError):
            assert (line.status, math.isnan(line.measured), line.budget) == (
                "inconclusive", True, math.inf
            )
            continue
        assert struct.pack("<d", line.measured) == struct.pack("<d", res.residual)
        if not res.heuristic:
            assert struct.pack("<d", line.budget) == struct.pack("<d", res.budget)


# ------------------------------------------------------- ComplexArgument


def test_complex_argument_coercion_and_format():
    a = ComplexArgument.of(2.5)
    assert (a.sigma, a.t) == (2.5, 0.0)
    b = ComplexArgument.of(complex(1.5, -3.0))
    assert (b.sigma, b.t) == (1.5, -3.0)
    assert ComplexArgument.of(b) is b
    assert str(ComplexArgument(2.0, 0.0)) == "2+0i"
    assert str(ComplexArgument(1.5, -3.0)) == "1.5-3i"
    assert ComplexArgument(2.0, 1.0).as_complex == complex(2.0, 1.0)
