"""Zeta evaluation, truncated Dirichlet series, Euler products, identities.

High-precision oracle: mpmath at 30 digits, used only in tests.  Every
rigorous (non-heuristic) SeriesEval must contain the oracle value within
its reported tail_bound -- that is the whole contract of the error
accounting, so these assertions are exact, not order-of-magnitude.
"""

import bisect
import cmath
import math
import os
import random
import re
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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multlab.dirichlet import (
    _EPS,
    _EXP_REL,
    _KAPPA,
    _LIBM_ULPS,
    _PHASE,
    _SLACK,
    _UNIT,
    ComplexArgument,
    ConvergenceError,
    DomainError,
    IdentityKind,
    PoleError,
    SeriesEval,
    _divisor_tail,
    _first_true,
    _power_tail,
    _prime_tail,
    _deflation,
    _identity_keys,
    _read,
    _residual,
    _series_table,
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
import multlab.summation
from multlab.config import ExperimentConfig, load_config
from multlab.multfunc import (
    LIOUVILLE,
    DerivedFunctionKind,
    _base_value,
    coefficient_stream,
    constant_spec,
    f_at_primes,
    liouville_spec,
    power_decay_spec,
)
from multlab.primesums import prime_sum_S, pretentious_distance_sq, weighted_tail_diagnostic
from multlab.sieve import build_sieve, factorize, primes_up_to
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


def test_em_coefficients_are_the_exact_quotients_rounded_once():
    # c_n = B_n / n! from sum_{j<=n} c_j / (n - j + 1)! = 0 (n >= 1), the
    # Taylor series of x / (e^x - 1) times that of (e^x - 1) / x, in exact
    # Fractions: every order zeta can use, bit for bit
    orders = multlab.dirichlet._EM_ORDERS
    c = [Fraction(1)]
    for n in range(1, 2 * orders + 1):
        c.append(-sum(c[j] / math.factorial(n - j + 1) for j in range(n)))
    assert c[1] == Fraction(-1, 2) and c[2] == Fraction(1, 12)
    want = [float(c[2 * k]) for k in range(1, orders + 1)]
    assert multlab.dirichlet._em_coefficients() == tuple(want)


def test_deflation_reads_each_zeta_once_per_process(monkeypatch):
    # G and U at one s share zeta(2s) for a flat base: the second product
    # finds it memoised, with every bit
    calls = []
    original = multlab.dirichlet.zeta

    def counting(s, tol=1e-12):
        calls.append(ComplexArgument.of(s))
        return original(s, tol)

    monkeypatch.setattr(multlab.dirichlet, "zeta", counting)
    multlab.dirichlet._zeta_memo.cache_clear()
    spec, point = constant_spec(0.3), ComplexArgument(1.7, 2.5)
    first = [_deflation(power, spec, point) for power in (1, 2)]
    assert calls.count(ComplexArgument(3.4, 5.0)) == 1
    calls.clear()
    assert [_deflation(power, spec, point) for power in (1, 2)] == first and calls == []


def test_zeta_below_half_is_proven():
    # Backlund's remainder bound holds for every sigma > 0
    for s in (complex(0.3, 2.0), 0.3, complex(0.05, -30.0)):
        got = zeta(s, tol=1e-10)
        assert not got.heuristic
        assert abs(got.value - mp_zeta(s)) <= got.tail_bound <= 1e-9


def test_zeta_errors():
    with pytest.raises(PoleError):
        zeta(1.0)
    with pytest.raises(DomainError):
        zeta(0.0)
    with pytest.raises(DomainError):
        zeta(complex(-1.0, 5.0))
    with pytest.raises(ValueError):
        zeta(2.0, tol=0.0)


def test_zeta_raises_convergence_error_only_for_a_non_finite_bound():
    # N stops growing at _EM_MAX_N (|t| past about 2e5): the bound grows
    # with |t| but stays proven, until the phase of N^(-s) is off by more
    # than the first-order slack covers (|t| past about 2e10)
    loose = zeta(complex(2.0, 1e7), tol=1e-12)
    assert not loose.heuristic and 1e-12 < loose.tail_bound < math.inf
    for t in (1e11, 1e200, -1e300):
        with pytest.raises(ConvergenceError) as exc:
            zeta(complex(2.0, t), tol=1e-12)
        assert exc.value.achieved_bound == math.inf


@pytest.mark.parametrize(
    "s",
    [
        # a zero of 1 - 2^(1-s), where zeta(s) = eta(s) / (1 - 2^(1-s)) fails
        complex(1.0, 2.0 * math.pi / math.log(2.0)),
        complex(2.0, 400.0), complex(2.0, 451.5), complex(2.0, 460.0),
        complex(0.01, 1e4), complex(4.0, -1e4),
    ],
)
def test_zeta_is_proven_at_large_t_and_at_the_zeros_of_1_minus_2_to_1_minus_s(s):
    got = zeta(s, tol=1e-15)
    # the head's phase term grows like |t| log N sum n^(-sigma)
    assert not got.heuristic and got.tail_bound < 1e-6
    assert abs(mp.mpc(got.value) - mp.zeta(_mp_point(s))) <= got.tail_bound


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


def _zeta_points():
    """s for the zeta audit: sigma in (0, 4] with |t| <= 1000, points within
    1e-4 of 1, and the zeros 1 + 2 pi i k / ln 2 of 1 - 2^(1-s)."""
    near_one = st.builds(
        lambda d, t: complex(1.0 + d, t),
        st.floats(-1e-4, 1e-4),
        st.one_of(st.just(0.0), st.floats(-1e-4, 1e-4)),
    ).filter(lambda s: s != 1)
    return st.one_of(
        st.builds(complex, st.floats(0.0, 4.0, exclude_min=True), st.floats(-1000.0, 1000.0)),
        near_one,
        st.sampled_from([complex(1.0, 2.0 * math.pi * k / math.log(2.0)) for k in (-3, -1, 1, 3)]),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@example(complex(1.0001), 1e-15)
@example(complex(1.001), 1e-15)
@example(complex(1.0131), 1e-15)
@example(complex(0.6, -55.0), 1e-15)
@example(complex(0.7, 50.0), 1e-15)
@example(complex(0.6, 400.0), 1e-15)
@example(complex(0.6, 1000.0), 1e-15)
@example(complex(1.0, 2.0 * math.pi / math.log(2.0)), 1e-15)
@given(_zeta_points(), st.sampled_from([1e-15, 1e-12, 1e-4]))
def test_zeta_error_is_within_its_bound(s, tol):
    # mpmath at 50 digits; the bound is proven for every sigma > 0
    got = zeta(s, tol)
    assert not got.heuristic and math.isfinite(got.tail_bound)
    with mp.workdps(50):
        error = abs(mp.mpc(got.value) - mp.zeta(_mp_point(s)))
    assert error <= got.tail_bound, (s, tol, float(error), got.tail_bound)


def _mp_direct_sum(coeffs, s) -> mp.mpc:
    """sum c(n) n^(-s) at 50 digits, from the float coefficients."""
    with mp.workdps(50):
        z = _mp_point(s)
        return mp.fsum(mp.mpf(c) * mp.power(n, -z) for n, c in enumerate(coeffs.tolist(), 1) if c)


@settings(max_examples=30, deadline=None, derandomize=True)
# +-1 coefficients at sigma = 0.6, where an allowance of 4 eps sum |term|
# without the phase term falls short, by 1.87 and 1.12 times
@example(72, 0.6, 55.0, True, 4)
@example(10**4, 0.6, 1000.0, True, 5)
@given(
    st.integers(1, 300),
    st.floats(0.1, 3.0),
    st.floats(-1000.0, 1000.0),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_direct_sum_error_is_within_its_allowance(N, sigma, t, pm1, seed):
    # random +-1 (int8, as exact streams are) or float coefficients
    rng = np.random.default_rng(seed)
    if pm1:
        coeffs = rng.choice(np.array([-1, 1], dtype=np.int8), N)
    else:
        coeffs = rng.uniform(-1.0, 1.0, N)
    point = ComplexArgument(sigma, t)
    [(value, allowance)] = multlab.dirichlet._dirichlet_sums([coeffs], N, point)
    error = abs(mp.mpc(value) - _mp_direct_sum(coeffs, complex(sigma, t)))
    assert error <= allowance, (N, sigma, t, float(error), allowance)


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
    # overflows float64: U at sigma = 1/2 and G for 1 + f(p) = min(5 p^(-1/2), 2)
    # at sigma = 1/2, both undeflated (power decay that clamps f(p) at +1)
    for product, spec in (
        (euler_product_U, power_decay_spec(5.0, 0.5)),
        (euler_product_G, power_decay_spec(5.0, 0.5)),
    ):
        ev = product(spec, 0.5000001, 10**3, sieve_1e4)
        assert ev.heuristic and math.isinf(ev.tail_bound)
        assert math.isfinite(ev.value.real) and ev.value.imag == 0.0
        assert not product(spec, 0.6, 10**3, sieve_1e4).heuristic
        # unclamped, the same products are deflated, with remainders whose
        # tails have exponents 3 sigma + a and 4 sigma + a
        ev = product(power_decay_spec(0.5, 0.5), 0.5000001, 10**3, sieve_1e4)
        assert not ev.heuristic and ev.tail_bound < 1e-3 * abs(ev.value)
    # deflated, Liouville's U is 1/zeta(2s) there, with zeta's bound
    ev = euler_product_U(LIOUVILLE, 0.5000001, 10**3, sieve_1e4)
    assert not ev.heuristic and ev.tail_bound < 1e-14


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


def _mp_point(s):
    """s at 30 digits: real where s is, so real-s oracles stay in real arithmetic."""
    s = complex(s)
    return mp.mpf(s.real) if s.imag == 0.0 else mp.mpc(s.real, s.imag)


def _exact_shifts(which, spec, s, kept=None) -> list:
    """(e, w) at 30 digits of each power of zeta that G or U divides out at
    s: the table's exact e and w = k s + m a, written out here from the
    spec's base value or its c and a, as many as ``_deflation`` keeps (or
    the first ``kept``)."""
    if kept is None:
        kept = len(_deflation(1 if which == "G" else 2, spec, ComplexArgument.of(s)))
    z = _mp_point(s)
    base = multlab.multfunc._base_value(spec)
    if base is not None:
        b = mp.mpf(base)
        rows = [(1 + b, z), (-b * (1 + b) / 2, 2 * z)] if which == "G" else [(-b * b, 2 * z)]
    else:
        c, a = map(mp.mpf, multlab.multfunc._one_plus_f_decay(spec))
        if which == "G":
            rows = [(c, z + a), (c, 2 * z + a), (-c * (1 + c) / 2, 2 * z + 2 * a)]
        else:
            rows = [(mp.mpf(-1), 2 * z), (2 * c, 2 * z + a), (-c * c, 2 * z + 2 * a)]
    return [(e, w) for e, w in rows if e != 0][:kept]


def _mp_euler(which, spec, s, primes):
    """30-digit prod_j zeta(w_j)^(e_j) times the product over ``primes`` of
    the G or U factor at the float f(p) times prod_j (1 - p^(-w_j))^(e_j),
    with G's or U's own shifts (``_exact_shifts``)."""
    z = mp.mpc(s.real, s.imag)
    shifts = _exact_shifts(which, spec, s)
    out = mp.mpf(1)
    for e, w in shifts:
        out *= mp.zeta(w) ** e
    for p, f in zip(primes.tolist(), f_at_primes(spec, primes).tolist()):
        if which == "G":
            ps = mp.power(p, z)
            out *= (ps + f) / (ps - 1)
        else:
            out *= 1 - mp.mpf(f) ** 2 * mp.power(p, -2 * z)
        for e, w in shifts:
            out *= (1 - mp.power(p, -w)) ** e
    return out


def _rounding_only(which, spec, s, P, sieve):
    """(value, rounding allowance) of G or U without the truncation tail,
    deflated as the public product is."""
    primes = primes_up_to(P, sieve)
    log_p = sieve.log_primes[: primes.size]
    power = 1 if which == "G" else 2
    point = ComplexArgument.of(s)
    return _log1p_product(spec, primes, log_p, point, power, None, _deflation(power, spec, point))


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
# deflated, with a non-integer e, at a larger |t| (G at sigma >= 1.045, U at 2 sigma)
_ALLOWANCE_CASES += [
    ("G", constant_spec(-0.3, {2: 1.0, 3: 0.25}), complex(1.1, 20.0), 10**4),
    ("U", constant_spec(0.5, {2: 1.0}), complex(0.55, 20.0), 10**4),
]
# power decay with every shift divided out, where k sigma + m a rounds
# (1.3 + 0.6 and 2.6 + 0.6 are not floats), also with zeta(2s + a) at
# |Im| = 300; and with none: U's (2c, 2s + a) needs Re >= 1.045 at complex s
_ALLOWANCE_CASES += [
    ("G", power_decay_spec(1.2, 0.6, {2: 0.4}), complex(1.3, 9.0), 10**4),
    ("U", power_decay_spec(1.2, 0.6, {2: 0.4}), 1.3, 10**4),
    ("U", power_decay_spec(0.7, 0.01, {2: 0.4}), complex(0.51, 3.0), 10**4),
    ("G", power_decay_spec(1.2, 0.6, {2: 0.4}), complex(1.3, 150.0), 10**4),
]


@pytest.mark.parametrize(
    "which,spec,s,P",
    _ALLOWANCE_CASES,
    ids=[f"{w}-{sp.spec_id()}-{s}-{P}" for w, sp, s, P in _ALLOWANCE_CASES],
)
def test_euler_rounding_allowance_covers_mpmath(which, spec, s, P, sieve_1e5):
    # truncated at the same P, so |value - oracle| is rounding alone; a
    # deflated product's oracle carries the same zeta(w)^e and (1 - p^-w)^e
    value, allowance = _rounding_only(which, spec, s, P, sieve_1e5)
    public = (euler_product_G if which == "G" else euler_product_U)(spec, s, P, sieve_1e5)
    # the public walk ends at Q <= P, the first prime whose tail is below 2^-53
    Q = int(primes_up_to(P, sieve_1e5)[public.truncation_N - 1])
    assert public.value == _rounding_only(which, spec, s, Q, sieve_1e5)[0]
    assert 0.0 < allowance < 1e-10 * abs(value)
    oracle = _mp_euler(which, spec, complex(s), primes_up_to(P, sieve_1e5))
    assert abs(mp.mpc(value) - oracle) <= allowance
    if complex(s).imag == 0.0:
        assert value.imag == 0.0


#: 78,498 primes up to 10^6: three chunks of 2^15.  c = 5 > 2^(1 + a)
#: clamps f(p) at +1, so nothing is divided out and the walk is long
_POOLED_SPEC = power_decay_spec(5.0, 0.5, {2: 0.3, 7: -0.5})


@pytest.mark.parametrize("product", [euler_product_G, euler_product_U])
@pytest.mark.parametrize(
    "spec,s",
    [
        (_POOLED_SPEC, 1.5),
        (_POOLED_SPEC, complex(1.2, 7.0)),
        # U stops after 71,134 primes, still three chunks
        (_POOLED_SPEC, complex(1.805, 7.0)),
        # deflated by three powers of zeta, with a remainder whose tail
        # stays above 2^-53: every prime
        (power_decay_spec(0.5, 0.5, {2: 0.3, 7: -0.5}), complex(0.75, 7.0)),
    ],
)
def test_euler_products_do_not_depend_on_the_worker_count(product, spec, s, sieve_1e6, monkeypatch):
    auto = _bits(product(spec, s, 10**6, sieve_1e6))
    for workers in (1, 3):
        monkeypatch.setattr(multlab.dirichlet, "_cpus", lambda: workers)
        assert _bits(product(spec, s, 10**6, sieve_1e6)) == auto


def test_auto_threads_follow_cpu_affinity(sieve_1e6, monkeypatch):
    # a complex-s full walk at P = 10^6 is three chunks: on two usable
    # CPUs it starts a pool, on one it runs them inline.  A walk that
    # visits the exception primes alone runs inline on any number of CPUs,
    # here with one exception prime in each of the three chunks (positions
    # 100, 40000 and 70000 in the prime table)
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    s = complex(1.2, 7.0)
    visited_spec = liouville_spec({547: 0.5, 479939: 1.0, 882389: -0.5})
    want = _bits(euler_product_G(_POOLED_SPEC, s, 10**6, sieve_1e6))
    visited = euler_product_G(visited_spec, s, 10**6, sieve_1e6)
    assert visited.truncation_N == 70001
    monkeypatch.setattr(multlab.dirichlet, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(multlab.dirichlet.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(AssertionError, match="pool was started"):
        euler_product_G(_POOLED_SPEC, s, 10**6, sieve_1e6)
    assert _bits(euler_product_G(visited_spec, s, 10**6, sieve_1e6)) == _bits(visited)
    monkeypatch.setattr(multlab.dirichlet.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _bits(euler_product_G(_POOLED_SPEC, s, 10**6, sieve_1e6)) == want


def test_euler_allowance_does_not_depend_on_blas_threads():
    # numpy's dot would run through the BLAS library, whose own threads
    # split a reduction in a count-dependent way
    code = """
from multlab.dirichlet import euler_product_G, euler_product_U
from multlab.multfunc import constant_spec, power_decay_spec
from multlab.sieve import build_sieve
sieve = build_sieve(10**6)
for spec in (power_decay_spec(0.5, 0.5, {2: 0.3}), power_decay_spec(5.0, 0.5), constant_spec(-0.4, {3: 1.0})):
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
    monkeypatch.setattr(multlab.dirichlet, "_cpus", lambda: workers)
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
    monkeypatch.setattr(multlab.dirichlet, "_cpus", lambda: 3)
    for s in (1.5, complex(1.2, 7.0)):
        euler_product_G(_POOLED_SPEC, s, 10**6, sieve_1e6)
        euler_product_U(_POOLED_SPEC, s, 10**6, sieve_1e6)
    pretentious_distance_sq(_POOLED_SPEC, LIOUVILLE, 10**6, sieve_1e6)
    prime_sum_S(_POOLED_SPEC, 10**6, sieve_1e6)
    weighted_tail_diagnostic(_POOLED_SPEC, 1.0, 10**6, sieve_1e6)


#: specs whose G or U factor is 1 at every prime but the exceptions: bare,
#: with three exceptions in one chunk of 2^15 primes and in three chunks,
#: the constant 0 base (U visits the exceptions only) and power decay with
#: c = 0 (f(p) = -1)
_SKIPPING_SPECS = [
    LIOUVILLE,
    liouville_spec({2: 0.5, 5: 0.3, 7: -0.2}),
    liouville_spec({3: 0.5, 386093: 1.0, 999983: -0.5}),
    constant_spec(0.0, {3: 0.5, 7: -1.0}),
    power_decay_spec(0.0, 0.5, {5: 0.3}),
]


def _walk_every_prime(m) -> None:
    """Patch ``_log1p_product`` (through the monkeypatch context ``m``) to
    take every prime <= Q: the full walk, with the skipping product's tail
    and its Q."""
    log1p_product = multlab.dirichlet._log1p_product
    m.setattr(
        multlab.dirichlet,
        "_log1p_product",
        lambda spec, primes, log_p, point, power, visited, shifts: log1p_product(
            spec, primes, log_p, point, power, None, shifts
        ),
    )


@pytest.mark.parametrize("spec", _SKIPPING_SPECS, ids=lambda spec: spec.spec_id())
@pytest.mark.parametrize("s", [1.5, complex(0.75, 5.0)])
def test_euler_products_that_skip_primes_keep_the_bits_of_the_full_walk(
    spec, s, sieve_1e6, monkeypatch
):
    for P in (0, 2, 386093, 10**6):
        for product, power in ((euler_product_G, 1), (euler_product_U, 2)):
            skipping = product(spec, s, P, sieve_1e6)
            with monkeypatch.context() as m:
                _walk_every_prime(m)
                full = product(spec, s, P, sieve_1e6)
            if not _deflation(power, spec, ComplexArgument.of(s)):
                assert _bits(skipping) == _bits(full), (product.__name__, P)
            else:
                # U of the Liouville family and G of the constant 0 base,
                # deflated: a skipped prime's remainder factor is exactly 1,
                # so the skip drops only the rounding (and its allowance)
                # that the full walk spends on it
                assert abs(skipping.value - full.value) <= skipping.tail_bound + full.tail_bound
                assert skipping.tail_bound <= full.tail_bound
                assert skipping.truncation_N == full.truncation_N


def test_a_skipping_euler_product_at_tiny_sigma_still_raises(sieve_1e6):
    # G visits p = 3 alone, yet 2^(-sigma) still rounds to 1
    for s in (1e-300, complex(1e-300, 1.0)):
        for product in (euler_product_G, euler_product_U):
            with pytest.raises(DomainError, match="2\\^"):
                product(liouville_spec({3: 0.5}), s, 10**6, sieve_1e6)


def _former_zero_test(power: int, shifts, f: float) -> float:
    """The walk's term at f(p) = f under the hand-written rule that decided
    which primes an Euler product skipped before its tail coefficient did:
    a prime with that f(p) was skipped where this is 0."""
    if not shifts:
        return 1.0 + f if power == 1 else -(f * f)
    if power == 2:
        return f * f * (1.0 - f * f)
    return f * (1.0 + f) * (1.0 - f)


def _spy_walk(m, seen: list) -> None:
    """Patch ``_log1p_product`` (through the monkeypatch context ``m``) to
    append the primes it visits to ``seen``: a list, or None for every prime."""
    log1p_product = multlab.dirichlet._log1p_product

    def spy(spec, primes, log_p, point, power, visited, shifts):
        seen.append(None if visited is None else primes[visited].tolist())
        return log1p_product(spec, primes, log_p, point, power, visited, shifts)

    m.setattr(multlab.dirichlet, "_log1p_product", spy)


#: every spelling of a flat base: f(p) = -1 (Liouville, constant -1, power
#: decay with c = 0 and c = -2) and the constants 0, 1, +-0.5 and 0.7, bare
#: and with the exceptions {3: 0.5, 7: -1}
_FLAT_SPECS = [
    spell(exceptions)
    for exceptions in ({}, {3: 0.5, 7: -1.0})
    for spell in (
        liouville_spec,
        lambda exc: constant_spec(-1.0, exc),
        lambda exc: power_decay_spec(0.0, 0.5, exc),
        lambda exc: power_decay_spec(-2.0, 0.5, exc),
        *(lambda exc, b=b: constant_spec(b, exc) for b in (0.0, 1.0, 0.5, -0.5, 0.7)),
    )
]
_RULE_POINTS = [0.4, 0.5000001, 1.5, complex(0.75, 5.0)]


@pytest.mark.parametrize("spec", _FLAT_SPECS, ids=lambda spec: spec.spec_id())
@pytest.mark.parametrize("s", _RULE_POINTS)
def test_euler_products_skip_primes_only_where_the_former_zero_test_did(
    spec, s, sieve_1e5, monkeypatch
):
    # the tail coefficient decides the skip: where it is 0 every factor but
    # the exception primes' is exactly 1, which the former rule also said
    b = _base_value(spec)
    for product, power in ((euler_product_G, 1), (euler_product_U, 2)):
        seen = []
        with monkeypatch.context() as m:
            _spy_walk(m, seen)
            skipping = product(spec, s, 10**5, sieve_1e5)
        (walked,) = seen
        if b == 0.0 and power == 2:  # U of the constant 0 base, at every s
            assert walked is not None
        if walked is None:
            continue
        shifts = _deflation(power, spec, ComplexArgument.of(s))
        assert _former_zero_test(power, shifts, b) == 0.0, (product.__name__, shifts)
        assert set(walked) <= {p for p, _ in spec.exceptions}
        with monkeypatch.context() as m:
            _walk_every_prime(m)
            full = product(spec, s, 10**5, sieve_1e5)
        if not shifts:
            assert _bits(skipping) == _bits(full), product.__name__
        else:  # a skipped remainder factor is 1: only the rounding is dropped
            assert abs(skipping.value - full.value) <= skipping.tail_bound + full.tail_bound
            assert skipping.tail_bound <= full.tail_bound
        assert skipping.truncation_N == full.truncation_N


@pytest.mark.parametrize("b", [5e-324, 1e-200])
@pytest.mark.parametrize("s", _RULE_POINTS)
def test_U_of_a_tiny_flat_base_walks_every_prime_and_keeps_its_value(b, s, sieve_1e5, monkeypatch):
    # -b^2 rounds to -0.0, so the former zero test skipped every prime but
    # 3 and 7 with tail coefficient 1; the coefficient is now |b| != 0, so
    # no prime is skipped, each other term is an exact zero, and the tail
    # past Q is far smaller
    spec = constant_spec(b, {3: 0.5, 7: -1.0})
    assert not _deflation(2, spec, ComplexArgument.of(s))
    seen = []
    with monkeypatch.context() as m:
        _spy_walk(m, seen)
        now = euler_product_U(spec, s, 10**5, sieve_1e5)
    assert seen == [None]
    log1p_product = multlab.dirichlet._log1p_product

    def exceptions_only(spec, primes, log_p, point, power, visited, shifts):
        at = np.searchsorted(primes, np.array([3, 7], dtype=np.int64))
        return log1p_product(spec, primes, log_p, point, power, at, shifts)

    with monkeypatch.context() as m:
        m.setattr(multlab.dirichlet, "_log1p_product", exceptions_only)
        former = multlab.dirichlet._euler_product(
            spec, s, 10**5, sieve_1e5, 2, lambda Q, sigma, deflated: (1.0, 2.0 * sigma, 1.0, ())
        )
    assert _bits(now)[:2] == _bits(former)[:2]
    assert now.tail_bound <= former.tail_bound


@pytest.mark.parametrize("s", _RULE_POINTS)
def test_U_of_the_constant_zero_base_is_its_two_exception_factors(s, sieve_1e5):
    got = euler_product_U(constant_spec(0.0, {3: 0.5, 7: -1.0}), s, 10**5, sieve_1e5)
    w = -2 * mp.mpc(s)
    exact = complex((1 - 0.25 * mp.power(3, w)) * (1 - mp.power(7, w)))
    assert not got.heuristic and got.truncation_N == 4
    assert abs(got.value - exact) <= got.tail_bound


def test_prime_side_sums_of_a_flat_spec_read_f_at_few_primes(sieve_1e6, monkeypatch):
    # Liouville with one exception: G, S, the weighted tail and D^2 are
    # sums over that one prime, not over the 78,498 primes <= 10^6 (the
    # prime-side sums read f(p) through multfunc._f_slice, which calls
    # multfunc's own _f_values)
    original = multlab.multfunc._f_values
    seen = []

    def counting(spec, primes):
        seen.append(np.size(primes))
        return original(spec, primes)

    for module in (multlab.dirichlet, multlab.multfunc):
        monkeypatch.setattr(module, "_f_values", counting)
    spec = liouville_spec({3: 0.5})
    calls = {
        "G": lambda: euler_product_G(spec, 1.5, 10**6, sieve_1e6),
        "G complex": lambda: euler_product_G(spec, complex(1.5, 3.0), 10**6, sieve_1e6),
        "S": lambda: prime_sum_S(spec, 10**6, sieve_1e6),
        "weighted tail": lambda: weighted_tail_diagnostic(spec, 1.0, 10**6, sieve_1e6),
        "D^2": lambda: pretentious_distance_sq(spec, LIOUVILLE, 10**6, sieve_1e6),
    }
    for name, call in calls.items():
        seen.clear()
        call()
        assert sum(seen) <= 2**15, name


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


#: each golden spec, once, with the s-points of its cases (the default grid where one sets none)
_GOLDEN_POINTS: dict = {}
for _path in sorted((Path(__file__).resolve().parent / "golden").glob("*/config.cfg")):
    _cfg = load_config(_path)
    _GOLDEN_POINTS.setdefault(_cfg.spec, set()).update(_cfg.s_grid)
_GOLDEN_SPECS = list(_GOLDEN_POINTS)


def _captured_tail(product, spec, s, P, sieve, monkeypatch):
    """(the product's SeriesEval, power, and the ``tail(Q, sigma, deflated)``
    rule that it hands to ``_euler_product``)."""
    seen = []
    original = multlab.dirichlet._euler_product

    def capturing(spec, s, P, sieve, power, tail):
        seen.append((power, tail))
        return original(spec, s, P, sieve, power, tail)

    with monkeypatch.context() as m:
        m.setattr(multlab.dirichlet, "_euler_product", capturing)
        ev = product(spec, s, P, sieve)
    [(power, tail)] = seen
    return ev, power, tail


def _with_tail_rule(product, spec, s, P, sieve, monkeypatch):
    """(the product's SeriesEval, its tail rule: Q -> log tail bound past Q)."""
    ev, power, tail = _captured_tail(product, spec, s, P, sieve, monkeypatch)
    deflated = bool(_deflation(power, spec, ComplexArgument.of(s)))
    sigma = complex(s).real
    return ev, lambda Q: _prime_tail(Q, *tail(Q, sigma, deflated))


def _full_walk(product, spec, s, P, sieve, log_tail, deflate=True):
    """The walk over every prime <= P with the tail at P: (value, bound,
    heuristic), deflated as the product is, or plain (``deflate`` False)."""
    primes = primes_up_to(P, sieve)
    power = 1 if product is euler_product_G else 2
    point = ComplexArgument.of(s)
    deflation = _deflation(power, spec, point) if deflate else ()
    value, rounding = 1.0 + 0.0j, 0.0
    if primes.size or deflation:
        log_p = sieve.log_primes[: primes.size]
        value, rounding = _log1p_product(spec, primes, log_p, point, power, None, deflation)
    bound = math.inf
    if log_tail <= math.log(sys.float_info.max):
        bound = abs(value) * math.expm1(log_tail) + rounding
    return value, bound, not bound < math.inf


@pytest.mark.parametrize("spec", _GOLDEN_SPECS, ids=lambda spec: spec.spec_id())
def test_euler_products_stop_where_the_tail_is_below_one_rounding_unit(
    spec, sieve_1e6, monkeypatch
):
    stopped = 0
    for P in (2, 10**3, 10**6):
        primes = primes_up_to(P, sieve_1e6)
        for s in (1.5, 2.0, 3.0, complex(2.0, 3.0)):
            for product in (euler_product_G, euler_product_U):
                ev, log_tail = _with_tail_rule(product, spec, s, P, sieve_1e6, monkeypatch)
                n = ev.truncation_N
                assert 1 <= n <= primes.size
                # the walk ends at Q, the first prime whose tail is at most 2^-53
                if n < primes.size:
                    stopped += 1
                    assert log_tail(int(primes[n - 1])) <= _UNIT
                if n > 1:
                    assert log_tail(int(primes[n - 2])) > _UNIT
                # the full walk's enclosure and the stopped one's overlap
                value, bound, heuristic = _full_walk(
                    product, spec, s, P, sieve_1e6, log_tail(P)
                )
                assert ev.heuristic == heuristic, (product.__name__, P, s)
                assert abs(ev.value - value) <= ev.tail_bound + bound, (product.__name__, P, s)
                if n < primes.size:  # the stop costs at most |value| expm1(2^-53)
                    assert ev.tail_bound <= bound + abs(ev.value) * math.expm1(_UNIT)
    assert stopped > 0


def _drawn_spec(family, b, c, a, exceptions):
    if family == "liouville":
        return liouville_spec(exceptions)
    if family == "constant":
        return constant_spec(b, exceptions)
    if family == "clamped":  # c > 2^(1 + a) clamps f(2) at +1: no deflation
        return power_decay_spec(2.0 ** (1.0 + a) + 1.0 + c, a, exceptions)
    return power_decay_spec(c, a, exceptions)


@settings(max_examples=80, deadline=None)
# a tail held up by the exception at 99991: the guess lies far to the left
@example("constant", 0.5, 1.0, 1.0, {99991: -1.0}, 2.0, 0.0, 10**6, euler_product_G)
# a tail crossing 2^-53 between 997 and 1000: the guess lies past the last prime
@example("constant", 0.5, 1.0, 1.0, {}, 1.9442824643977372, 0.0, 10**3, euler_product_G)
# P = 2 with a guess below 2, and U's tail fed by one exception (coef 0)
@example("power_decay", 0.0, 0.5, 0.5, {}, 20.0, 0.0, 2, euler_product_G)
@example("liouville", 0.0, 1.0, 1.0, {2: 0.5}, 4.0, 0.0, 2, euler_product_U)
# U's later shifts have no proven branch: none is divided out
@example("power_decay", 0.0, 0.3, 0.01, {}, 0.51, 5.0, 10**6, euler_product_U)
@given(
    st.sampled_from(("liouville", "constant", "power_decay", "clamped")),
    st.floats(-0.95, 0.95),
    st.floats(0.05, 2.0),
    st.one_of(st.floats(0.001, 0.04), st.floats(0.05, 1.5)),
    st.dictionaries(
        st.sampled_from((2, 3, 7, 997, 1009, 99991)), st.floats(-1.0, 1.0), max_size=3
    ),
    # at complex s, 2 sigma + a < 1.045 leaves power decay's U undeflated
    st.one_of(st.floats(0.501, 0.52), st.floats(0.51, 4.0)),
    st.one_of(st.just(0.0), st.floats(1.0, 20.0)),
    st.sampled_from((10**6, 10**3, 2)),
    st.sampled_from((euler_product_G, euler_product_U)),
)
def test_stop_search_finds_the_prime_a_bisection_over_every_prime_finds(
    sieve_1e6, family, b, c, a, exceptions, sigma, t, P, product
):
    spec = _drawn_spec(family, b, c, a, exceptions)
    s = complex(sigma, t) if t else sigma
    primes = primes_up_to(P, sieve_1e6)
    n = primes.size
    calls = []
    counted = multlab.dirichlet._prime_tail

    def counting(*args):
        calls.append(args[0])
        return counted(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(multlab.dirichlet, "_prime_tail", counting)
        ev, log_tail = _with_tail_rule(product, spec, s, P, sieve_1e6, m)
    # the oracle: the first prime whose tail is at most 2^-53, bisected over
    # every prime <= P; no stop where the tail at P is larger
    expected = n
    if log_tail(P) <= _UNIT:
        k = bisect.bisect_left(range(n), True, key=lambda k: log_tail(int(primes[k])) <= _UNIT)
        expected = min(k + 1, n)
    assert ev.truncation_N == expected, (spec.spec_id(), s, P)
    # one tail at P, the search, and one at the stop
    assert len(calls) <= 2 * math.ceil(math.log2(n)) + 3, (spec.spec_id(), s, P, calls)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 100, 78498])
def test_first_true_from_any_start_is_the_bisection(n):
    # starts past both ends are clipped; each answer, from 0 to n (none holds)
    rng = random.Random(n)
    answers = {0, 1, n // 2, n - 1, n, *(rng.randrange(n + 1) for _ in range(8))}
    for answer in answers:
        for start in {-3, 0, answer - 1, answer, answer + 1, n - 1, n, n + 5}:
            calls = []

            def holds(k):
                assert 0 <= k < n
                calls.append(k)
                return k >= answer

            assert _first_true(n, start, holds) == answer, (answer, start)
            assert len(calls) <= 2 * math.ceil(math.log2(n)) + 1, (answer, start)
            if abs(start - answer) <= 2 and 0 < answer < n:  # a close guess is cheap
                assert len(calls) <= 4, (answer, start, calls)


@pytest.mark.parametrize("exceptions", [{}, {3: 0.5, 7: 1.0}])
@pytest.mark.parametrize(
    "s",
    [2.0, complex(1.5, 3.0), 1.0, 0.75, complex(0.75, 5.0), complex(0.6, 14.0), 1.5, 3.0],
)
def test_stopped_liouville_u_is_inverse_zeta_times_the_exception_factors(
    exceptions, s, sieve_1e6
):
    z = mp.mpc(complex(s).real, complex(s).imag)
    oracle = 1 / mp.zeta(2 * z)
    for p, v in exceptions.items():
        w = mp.power(p, -2 * z)
        oracle *= (1 - mp.mpf(v) ** 2 * w) / (1 - w)
    for P in (1, 10**6):
        ev = euler_product_U(liouville_spec(exceptions), s, P, sieve_1e6)
        assert not ev.heuristic
        assert abs(mp.mpc(ev.value) - oracle) <= ev.tail_bound
        # deflated by zeta(2s), the remainder is the exception factors: the
        # walk ends at the last exception (no prime at all below P = 2,
        # where the exceptions are all in the tail)
        assert ev.truncation_N == (0 if P < 2 else 4 if exceptions else 1)
        if P >= 2 or not exceptions:
            assert ev.tail_bound < 1e-12


@pytest.mark.parametrize(
    "product,spec,s",
    [
        (euler_product_U, constant_spec(0.7), 0.6),  # deflated, tail above 2^-53
        (euler_product_U, LIOUVILLE, 0.4),  # no tail bound
        (euler_product_G, constant_spec(0.7), 1.05),  # deflated, tail above 2^-53
        (euler_product_G, constant_spec(0.7), 0.9),  # no tail bound
    ],
)
def test_a_tail_above_one_rounding_unit_walks_every_prime(
    product, spec, s, sieve_1e6, monkeypatch
):
    for P in (10**3, 10**6):
        ev, log_tail = _with_tail_rule(product, spec, s, P, sieve_1e6, monkeypatch)
        assert not log_tail(P) <= _UNIT
        value, bound, heuristic = _full_walk(product, spec, s, P, sieve_1e6, log_tail(P))
        full = SeriesEval(
            value, primes_up_to(P, sieve_1e6).size, math.inf if heuristic else bound,
            heuristic, ev.method,
        )
        assert _bits(ev) == _bits(full) and ev == full


@pytest.mark.parametrize("spec", _GOLDEN_SPECS, ids=lambda spec: spec.spec_id())
def test_euler_products_at_tiny_sigma_still_raise_with_the_stop(spec, sieve_1e6):
    for s in (1e-17, 1e-300, complex(1e-300, 1.0)):
        for product in (euler_product_G, euler_product_U):
            with pytest.raises(DomainError, match="2\\^"):
                product(spec, s, 10**6, sieve_1e6)


def _outcome(product, spec, s, P, sieve):
    """The product's SeriesEval, or the type of the _NO_VALUE failure it raises."""
    try:
        return product(spec, s, P, sieve)
    except (DomainError, PoleError, ConvergenceError) as exc:
        return type(exc)


@pytest.mark.parametrize("spec", _GOLDEN_SPECS, ids=lambda spec: spec.spec_id())
def test_deflated_products_overlap_the_plain_walk(spec, sieve_1e5, monkeypatch):
    # both enclose the same product; the plain walk is the product with no
    # power of zeta divided out, as before deflation
    deflated = 0
    for sigma, t in sorted(_GOLDEN_POINTS[spec]):
        s = complex(sigma, t)
        for P in (10**3, 10**5):
            for product, power in ((euler_product_G, 1), (euler_product_U, 2)):
                ev = _outcome(product, spec, s, P, sieve_1e5)
                with monkeypatch.context() as m:
                    m.setattr(multlab.dirichlet, "_deflation", lambda *args: ())
                    plain = _outcome(product, spec, s, P, sieve_1e5)
                if isinstance(plain, type):  # sigma <= 0: no product either way
                    assert ev is plain
                    continue
                assert ev.heuristic <= plain.heuristic
                assert abs(ev.value - plain.value) <= ev.tail_bound + plain.tail_bound
                if _deflation(power, spec, ComplexArgument.of(s)):
                    deflated += 1
                    # never wider than the plain walk's, but for the zeta
                    # powers' own relative bounds, |e| max(2e-14, 2 delta)
                    # each (delta that of zeta(w), larger at complex w for
                    # its phase term), where the plain walk was already short
                    shifts = _deflation(power, spec, ComplexArgument.of(s))
                    zetas = 0.0
                    for sh in shifts:
                        z = multlab.dirichlet._zeta_memo(sh.w, 1e-15)
                        zetas += abs(sh.e) * max(2e-14, 2.0 * z.tail_bound / abs(z.value))
                    assert ev.tail_bound <= plain.tail_bound + zetas * abs(ev.value)
    # every golden spec is flat or a power decay that clamps no f(p) at +1
    # (c <= 2^(1 + a)), so each has powers of zeta to divide out
    c, a = multlab.multfunc._one_plus_f_decay(spec)
    clamped = multlab.multfunc._base_value(spec) is None and c > 2.0 ** (1.0 + a)
    assert not clamped and deflated > 0


def _mp_remainder_log(which, f, p, s, shifts):
    """30-digit log of the remainder's factor at p with f(p) = f: G's or U's
    own log plus sum_j e_j log(1 - p^(-w_j)), in real arithmetic at real s."""
    z = _mp_point(s)
    v = mp.power(p, -z)
    own = mp.log((1 + f * v) / (1 - v)) if which == "G" else mp.log(1 - f * f * v * v)
    return own + sum(e * mp.log(1 - mp.power(p, -w)) for e, w in shifts)


@pytest.mark.parametrize("c", [-0.9, -0.4, 0.5, 0.7])
def test_deflated_constant_base_products_match_mpmath(c, sieve_1e6):
    # G = zeta(s)^(1 + c) zeta(2s)^(-c (1 + c) / 2) R_G and
    # U = zeta(2s)^(-c^2) R_U: R summed at 30 digits over p <= 10^4, plus
    # its proven tail past 10^4, from the log terms
    # |c| min(1/3, 1 - c) p^(-3 sigma) / (1 - p^-sigma) of R_G and
    # c^2 min(1 - c^2, 1/2) p^(-4 sigma) / (1 - p^(-2 sigma)) of R_U.  At
    # s = 0.6 G's non-integer 1 + c has no proven branch: the plain walk,
    # heuristic there
    R = 10**4
    primes = primes_up_to(R, sieve_1e6).tolist()
    spec, b = constant_spec(c), mp.mpf(c)
    for s in (0.6, 1.1, 1.3, 1.5, 2.0, complex(2.0, 3.0)):
        sigma = complex(s).real
        z = _mp_point(s)
        shifts_g = [(1 + b, z), (-b * (1 + b) / 2, 2 * z)]
        log_g = mp.fsum(_mp_remainder_log("G", b, p, s, shifts_g) for p in primes)
        log_u = mp.fsum(_mp_remainder_log("U", b, p, s, [(-b * b, 2 * z)]) for p in primes)
        tail_g = abs(c) * min(1 / 3, 1 - c) / (1 - R**-sigma) * R ** (1 - 3 * sigma) / (3 * sigma - 1)
        tail_u = c * c * min(1 - c * c, 0.5) / (1 - R ** (-2 * sigma)) * R ** (1 - 4 * sigma) / (4 * sigma - 1)
        oracle_g = mp.zeta(z) ** (1 + b) * mp.zeta(2 * z) ** (-b * (1 + b) / 2) * mp.exp(log_g)
        for product, oracle, tail, tight in (
            (euler_product_G, oracle_g, tail_g, 1e-11),
            # U at s = 0.6: a tail of exponent 4 sigma = 2.4 past 10^6
            (euler_product_U, mp.zeta(2 * z) ** (-b * b) * mp.exp(log_u), tail_u,
             1e-13 if sigma > 1.0 else 1e-9),
        ):
            ev = product(spec, s, 10**6, sieve_1e6)
            if product is euler_product_G and sigma < 1.0:
                assert ev.heuristic and not _deflation(1, spec, ComplexArgument.of(s))
                continue
            # the walk at 10^6 leaves bounds that the plain walk's tails
            # (exponents sigma and 2 sigma) cannot reach; at s = 1.1 G's
            # is mostly the rounding allowance of a walk to 10^6
            assert not ev.heuristic and ev.tail_bound < tight * abs(ev.value), (product.__name__, s)
            slack = float(abs(oracle)) * math.expm1(tail)
            assert abs(mp.mpc(ev.value) - oracle) <= ev.tail_bound + slack, (product.__name__, s)
            if complex(s).imag == 0.0:
                assert ev.value.imag == 0.0


#: primes up to 10^4 at which each remainder's log terms are checked: all
#: below 300 and every 40th one past that
_CHECKED_PRIMES = [
    p for i, p in enumerate(primes_up_to(10**4, build_sieve(10**4)).tolist()) if p < 300 or i % 40 == 0
]

_ROWS = [("G", constant_spec(b, {3: 0.5, 101: -1.0, 9973: 0.25})) for b in (-0.9, -0.4, 0.0, 0.5, 0.7, 1.0)]
_ROWS += [("U", constant_spec(b, {3: 0.5, 101: 0.0, 9973: -1.0})) for b in (-0.9, -0.4, 0.5, 0.7)]
for _c, _a in ((0.3, 0.2), (1.2, 0.6), (2.0, 1.0), (5.6, 1.5)):
    _ROWS += [
        ("G", power_decay_spec(_c, _a, {3: 1.0, 101: -1.0, 9973: 0.25})),
        ("U", power_decay_spec(_c, _a, {3: 1.0, 101: 0.5, 9973: -1.0})),
    ]


@pytest.mark.parametrize("which,spec", _ROWS, ids=[f"{w}-{sp.spec_id()}" for w, sp in _ROWS])
@pytest.mark.parametrize("s", [0.75, 1.1, complex(2.0, 3.0), complex(0.6, 14.0)])
def test_remainder_log_terms_are_within_their_tail_coefficients(which, spec, s, sieve_1e4, monkeypatch):
    # each row's remainder R, with every shift of the table divided out, has
    # |log R_p| <= coef kappa p^(-exponent) at each p > Q that is no exception
    # and its own term at each exception, as the product's tail reads them
    # at Q = p - 1.  The log is formed from the exact f(p) at 80 digits,
    # since its terms of order p^(-sigma) cancel down to p^(-4 sigma - a);
    # the remainders that vanish (G at b = 0 and 1) come out within 1e-70
    product = euler_product_G if which == "G" else euler_product_U
    _, _, tail = _captured_tail(product, spec, s, 2, sieve_1e4, monkeypatch)
    sigma = complex(s).real
    base = multlab.multfunc._base_value(spec)
    c, a = multlab.multfunc._one_plus_f_decay(spec)
    exceptions = dict(spec.exceptions)
    with mp.workdps(80):
        shifts = _exact_shifts(which, spec, s, kept=3)
        for p in _CHECKED_PRIMES:
            coef, exponent, kappa, terms = tail(p - 1, sigma, True)
            if p in exceptions:
                f, bound = mp.mpf(exceptions[p]), terms[0]
            else:
                f = mp.mpf(base) if base is not None else -1 + mp.mpf(c) * mp.power(p, -mp.mpf(a))
                bound = coef * kappa * p ** -exponent
            exact = abs(_mp_remainder_log(which, f, p, s, shifts))
            assert exact <= bound + mp.mpf(10) ** -70, (p, float(exact), bound)
            if base is None and p not in exceptions and p > 1000:
                # the leading term, c p^(-(3 sigma + a)) or 2c p^(-(4 sigma + a)),
                # is most of it
                assert float(exact) > 0.2 * bound


@pytest.mark.parametrize("c", [0.3, 1.2, 2.0])
def test_deflated_power_decay_products_match_mpmath(c, sieve_1e6):
    # G and U of 1 + f(p) = c p^(-a) are prod_j zeta(w_j)^(e_j) R: the
    # powers of zeta at 30 digits, R over p <= 1000 at the float f(p), and
    # past 1000 R's log terms, at most 8c p^(-(3 sigma + a)) (G) or
    # 8c p^(-(4 sigma + a)) (U) by their tail coefficients
    R = 1000
    primes = primes_up_to(R, sieve_1e6)
    for a in (0.2, 0.6, 1.0):
        spec = power_decay_spec(c, a)
        values = f_at_primes(spec, primes).tolist()
        for s in (1.1, 1.5, 2.0, complex(2.0, 3.0), 0.75, complex(0.75, 5.0)):
            sigma = complex(s).real
            for which, product, exponent in (
                ("G", euler_product_G, 3 * sigma + a),
                ("U", euler_product_U, 4 * sigma + a),
            ):
                ev = product(spec, s, 10**6, sieve_1e6)
                power = 1 if which == "G" else 2
                if ev.heuristic:  # G's own product diverges there: the plain walk
                    assert which == "G" and sigma + a <= 1.0, (which, a, s)
                    assert not _deflation(power, spec, ComplexArgument.of(s))
                    continue
                shifts = _exact_shifts(which, spec, s, kept=3)
                log_r = mp.fsum(
                    _mp_remainder_log(which, mp.mpf(f), p, s, shifts)
                    for p, f in zip(primes.tolist(), values)
                )
                oracle = mp.exp(log_r)
                for e, w in shifts:
                    oracle *= mp.zeta(w) ** e
                slack = float(abs(oracle)) * math.expm1(8 * c * R ** (1 - exponent) / (exponent - 1))
                assert abs(mp.mpc(ev.value) - oracle) <= ev.tail_bound + slack, (which, a, s)
                # every shift is divided out, and the bound is far below the
                # plain walk's (a tail of exponent sigma + a)
                assert len(_deflation(power, spec, ComplexArgument.of(s))) == 3
                assert ev.tail_bound < 1e-9 * abs(ev.value), (which, a, s)
                if complex(s).imag == 0.0:
                    assert ev.value.imag == 0.0


@pytest.mark.parametrize(
    "product,spec,s,most",
    [
        # pi(10^6) = 78,498; each walk's length is pinned near what it measured
        (euler_product_G, power_decay_spec(1.0, 0.5), 1.5, 0.015),
        (euler_product_G, power_decay_spec(1.0, 0.5), complex(1.5, 5.0), 0.015),
        (euler_product_U, power_decay_spec(1.0, 0.5), 1.2, 0.01),
        (euler_product_G, constant_spec(0.7), 1.3, 0.2),
    ],
)
def test_deflated_walks_stop_far_below_p(product, spec, s, most, sieve_1e6):
    # the remainder's tail reaches 2^-53 long before P = 10^6, so a change
    # that brought back the full walk (or the plain walk) fails here
    ev = product(spec, s, 10**6, sieve_1e6)
    assert not ev.heuristic
    assert ev.truncation_N <= most * primes_up_to(10**6, sieve_1e6).size, ev.truncation_N


@pytest.mark.parametrize(
    "which,spec,s",
    [
        # zeta(2s) and zeta(2s + a) at |Im| of 260 to 520, and zeta(s) at a
        # zero of 1 - 2^(1-s), are proven like any other
        ("G", power_decay_spec(1.2, 0.6, {2: 0.4}), complex(1.3, 150.0)),
        ("U", power_decay_spec(1.2, 0.6, {2: 0.4}), complex(1.3, -200.0)),
        ("U", LIOUVILLE, complex(1.5, 150.0)),
        ("G", constant_spec(0.5), complex(2.0, 250.0)),
        ("G", constant_spec(0.0, {3: 0.5}), complex(1.0, 2.0 * math.pi / math.log(2.0))),
    ],
)
def test_products_at_large_t_divide_out_every_shift(which, spec, s, sieve_1e6):
    product, power = (euler_product_G, 1) if which == "G" else (euler_product_U, 2)
    shifts = _deflation(power, spec, ComplexArgument.of(s))
    assert shifts and len(shifts) == len(_exact_shifts(which, spec, s, kept=3))
    P = 10**6
    primes = primes_up_to(P, sieve_1e6)
    ev = product(spec, s, P, sieve_1e6)
    # the remainder's tail reaches 2^-53 long before pi(P) = 78,498
    assert not ev.heuristic and ev.truncation_N <= 0.05 * primes.size, ev.truncation_N
    oracle = _mp_euler(which, spec, s, primes[: ev.truncation_N])
    assert abs(mp.mpc(ev.value) - oracle) <= ev.tail_bound


@pytest.mark.parametrize(
    "product,spec,s",
    [
        # power decay with c > 2^(1 + a): f(p) is clamped at +1 for p < 25
        (euler_product_G, power_decay_spec(5.0, 0.5, {3: 0.25}), 1.5),
        (euler_product_U, power_decay_spec(5.0, 0.5, {3: 0.25}), complex(2.0, 3.0)),
        # a non-integer e where the principal log of zeta is not proven
        (euler_product_G, constant_spec(0.7), complex(1.02, 30.0)),
        (euler_product_U, constant_spec(0.5), complex(0.51, 3.0)),
        # only a later shift's: every shift is divided out, or none
        (euler_product_U, power_decay_spec(0.7, 0.01, {2: 0.4}), complex(0.51, 3.0)),
        (euler_product_U, power_decay_spec(0.3, 0.01), complex(0.51, 5.0)),
    ],
)
def test_undeflated_products_are_the_plain_walk_bit_for_bit(
    product, spec, s, sieve_1e4, monkeypatch
):
    power = 1 if product is euler_product_G else 2
    assert _deflation(power, spec, ComplexArgument.of(s)) == ()
    P = 10**3
    ev, log_tail = _with_tail_rule(product, spec, s, P, sieve_1e4, monkeypatch)
    assert not log_tail(P) <= _UNIT  # no stop: every prime <= P is walked
    value, bound, heuristic = _full_walk(product, spec, s, P, sieve_1e4, log_tail(P), deflate=False)
    full = SeriesEval(
        value, primes_up_to(P, sieve_1e4).size, math.inf if heuristic else bound,
        heuristic, ev.method,
    )
    assert _bits(ev) == _bits(full) and ev == full


def test_deflated_g_raises_at_its_pole(sieve_1e4):
    # an integer 1 + b >= 1 gives G the pole of zeta^(1 + b) at s = 1
    for spec in (constant_spec(0.0), constant_spec(1.0, {3: 0.5})):
        with pytest.raises(PoleError):
            euler_product_G(spec, 1.0, 10**3, sieve_1e4)
    # a non-integer 1 + b at s = 1 is left undeflated: no tail bound there
    assert euler_product_G(constant_spec(0.5), 1.0, 10**3, sieve_1e4).heuristic


@pytest.mark.parametrize("s", [0.75, 0.9, complex(0.75, 5.0)])
def test_deflated_g_left_of_one_is_zetas_continuation(s, sieve_1e4):
    # base 0: zeta(s) times the exception factors (negative at real
    # 1/2 < s < 1); base 1: zeta(s)^2 / zeta(2s) times theirs
    z = mp.mpc(complex(s).real, complex(s).imag)
    for b, leading in ((0.0, mp.zeta(z)), (1.0, mp.zeta(z) ** 2 / mp.zeta(2 * z))):
        spec = constant_spec(b, {3: 0.5, 7: -1.0})
        oracle = leading
        for p, v in spec.exceptions:  # each factor over the base's, (1 + v p^-s) / (1 + b p^-s)
            ps = mp.power(p, z)
            oracle *= (ps + v) / (ps + b)
        ev = euler_product_G(spec, s, 10**4, sieve_1e4)
        assert not ev.heuristic and ev.tail_bound < (1e-11 if b == 0.0 else 0.1)
        assert abs(mp.mpc(ev.value) - oracle) <= ev.tail_bound
        if complex(s).imag == 0.0:
            assert ev.value.imag == 0.0 and (ev.value.real < 0.0) == (b == 0.0)


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
    # math's log, cos, sin and hypot, one value at a time (zeta's N^(-s) and 1 / (s - 1))
    d = rng.uniform(-1.0, 3.0, n)
    scalar = {
        "math.log": ([math.log(v) for v in p.tolist()], [mp.log(v) for v in p.tolist()]),
        "math.cos": ([math.cos(v) for v in theta.tolist()], [mp.cos(v) for v in theta.tolist()]),
        "math.sin": ([math.sin(v) for v in theta.tolist()], [mp.sin(v) for v in theta.tolist()]),
        "math.hypot": (
            [math.hypot(v, w) for v, w in zip(d.tolist(), theta.tolist())],
            [mp.sqrt(mp.mpf(v) ** 2 + mp.mpf(w) ** 2) for v, w in zip(d.tolist(), theta.tolist())],
        ),
    }
    for name, (got, exact) in scalar.items():
        assert _ulps(np.array(got), exact) <= _LIBM_ULPS, name
    # n^(-sigma) of the direct sums (numpy's power) and of zeta (float **)
    # within one ulp
    m = rng.integers(1, 2**16, n).astype(np.float64)
    sigma = rng.uniform(0.0, 12.0, n)
    exact = [mp.power(v, -mp.mpf(x)) for v, x in zip(m.tolist(), sigma.tolist())]
    assert _ulps(m ** -sigma, exact) <= 1.0
    assert _ulps(np.array([v ** -x for v, x in zip(m.tolist(), sigma.tolist())]), exact) <= 1.0
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


# ------------------------------------------------------------ series table


def _count_passes(monkeypatch, passes):
    """Record the kinds of every stream pass a series table makes."""
    import multlab.dirichlet as dl

    original = dl._coefficients

    def counting(spec, kinds, limit, sieve):
        passes.append(kinds)
        return original(spec, kinds, limit, sieve)

    monkeypatch.setattr(dl, "_coefficients", counting)


def test_verify_builds_each_stream_once(sieve_1e6, monkeypatch):
    # one pass builds all four streams for every s-grid and h-grid point
    passes = []
    _count_passes(monkeypatch, passes)
    run_verify(ExperimentConfig(), sieve=sieve_1e6)
    assert passes == [tuple(DerivedFunctionKind)]


def test_run_verify_makes_two_stream_passes_and_evaluates_each_product_once(
    sieve_1e4, monkeypatch
):
    # a duplicated point (2+0i beside 2-0i), a complex point, sigma <= 0
    # and the pole
    import multlab.exponent

    grid = ((2.0, 0.0), (2.0, -0.0), (2.0, 3.0), (-0.5, 0.0), (1.0, 0.0))
    cfg = ExperimentConfig(sieve_limit=10**4, s_grid=grid, truncation_N=10**3, euler_P=500)
    passes, calls = [], []
    for module in (multlab.dirichlet, multlab.exponent):

        def counting(spec, kinds, limit, sieve, original=module._coefficients):
            passes.append((limit, kinds))
            return original(spec, kinds, limit, sieve)

        monkeypatch.setattr(module, "_coefficients", counting)
    for name in ("zeta", "euler_product_G", "euler_product_U"):

        def counting(*args, name=name, original=getattr(multlab.dirichlet, name)):
            if name != "zeta":  # (spec, s, P, sieve)
                calls.append((name, ComplexArgument.of(args[1])))
            elif args[1:] == (cfg.zeta_tol,):  # the tails and products read other tols
                calls.append((name, ComplexArgument.of(args[0])))
            return original(*args)

        monkeypatch.setattr(multlab.dirichlet, name, counting)
    run_verify(cfg, sieve=sieve_1e4)
    # the table's one pass, then the exponent line's F at x_max: that second
    # pass is the duplicate build of F that CHANGES.md's FOUND line on
    # run_verify names
    assert passes == [
        (cfg.truncation_N, tuple(DerivedFunctionKind)),
        (cfg.effective_x_max, (DerivedFunctionKind.F_PLAIN,)),
    ]
    points = list(dict.fromkeys(ComplexArgument(*s) for s in grid))
    expected = [(n, p) for p in points for n in ("zeta", "euler_product_U", "euler_product_G")]
    assert calls == expected


def test_a_table_has_no_hidden_pass(sieve_1e4, monkeypatch):
    # a key the table was not given is a KeyError, and no pass makes it
    passes = []
    _count_passes(monkeypatch, passes)
    F, H = DerivedFunctionKind.F_PLAIN, DerivedFunctionKind.H_CONV
    table = _series_table(LIOUVILLE, 10**3, 10**3, sieve_1e4, [(F, 2.0), ("zeta", 2.0)])
    for name, s in ((H, 2.0), (F, 3.0), ("G", 2.0), ("zeta", 3.0)):
        with pytest.raises(KeyError):
            _read(table, name, s)
    assert passes == [(F,)]


@pytest.mark.parametrize("s", [2.0, complex(1.5, 4.0), 0.8, -0.5])
def test_the_public_evaluators_read_a_table(s, sieve_1e4):
    # dirichlet_sum and identity_residual give the bits of one table that
    # holds every key of every identity at s and at two other points
    spec = power_decay_spec(0.5, 0.5, {3: 0.25})
    N, P = 10**3, 500
    keys = [key for p in (s, 3.0, complex(2.0, 1.0)) for key in _identity_keys(p)]
    table = _series_table(spec, N, P, sieve_1e4, keys)
    for kind in DerivedFunctionKind:
        assert _bits(dirichlet_sum(kind, spec, s, N, sieve_1e4)) == _bits(_read(table, kind, s))
    for identity in IdentityKind:
        try:
            expected = _residual(table, identity, s)
        except (PoleError, DomainError, ConvergenceError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                identity_residual(identity, spec, s, N, P, sieve_1e4)
            continue
        got = identity_residual(identity, spec, s, N, P, sieve_1e4)
        assert (got.identity, got.point, got.heuristic) == (
            expected.identity, expected.point, expected.heuristic
        )
        assert (got.residual.hex(), got.budget.hex()) == (
            expected.residual.hex(), expected.budget.hex()
        )


@pytest.mark.parametrize("s", [2.0, complex(1.5, 4.0), 0.8])
def test_table_sums_are_fsum_of_whole_length_terms(s, sieve_1e6):
    # N = 3 * 2^15 + 5: three full slices and a short one
    N = 3 * 2**15 + 5
    spec = power_decay_spec(0.5, 0.5, {3: 0.25})
    point = ComplexArgument.of(s)
    n = np.arange(1, N + 1, dtype=np.float64)
    weights = n ** (-point.sigma)
    phase = -point.t * np.log(n)
    table = _series_table(spec, N, None, sieve_1e6, [(kind, point) for kind in DerivedFunctionKind])
    for kind in DerivedFunctionKind:
        mod = coefficient_stream(spec, kind, N, sieve_1e6) * weights
        ev = _read(table, kind, point)
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
            # the allowance lies between its rule at the exact sums and at
            # their (1 + N eps)^2 multiples, log n raised to log N
            # (see test_allowance_sum_is_bounded_by_its_factor)
            low, high = _allowance_rule(mod, n, point)
            assert tail + low <= ev.tail_bound <= tail + high, kind
        else:
            assert ev.heuristic and ev.tail_bound == math.inf


def _allowance_rule(mod, n, point) -> tuple[float, float]:
    """``_DirichletSums``' allowance rule at the exact sums S of |mod| and
    L of log n |mod|, and at S (1 + N eps)^2 with L raised to S log N (N
    the last n), the upper end a little raised for this sum's rounding."""
    exact = math.fsum(np.abs(mod).tolist())
    phase = math.fsum((np.abs(mod) * np.log(n)).tolist())
    factor = (1.0 + n.size * _EPS) ** 2

    def rule(size, phase):
        allowance = 4.0 * _EPS * size
        if point.t != 0.0:
            allowance += _SLACK * (2.0 * _KAPPA * size + _PHASE * abs(point.t) * phase)
        return allowance

    top = exact * factor
    return rule(exact, phase), rule(top, top * math.log(n[-1])) * (1.0 + 1e-12)


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
    # fsum and of this product (N = 1: R is fl(fsum * factor)).  At real s
    # the allowance is 4 eps R, exactly; at complex s the phase term's L
    # lies between sum log n |term| and S log N
    point = ComplexArgument.of(s)
    n = np.arange(1, N + 1, dtype=np.float64)
    streams = [coefficient_stream(spec, kind, N, sieve_1e6) for kind in DerivedFunctionKind]
    sums = multlab.dirichlet._dirichlet_sums(streams, N, point)
    factor = 1.0 + N * _EPS
    for kind, stream, (_, allowance) in zip(DerivedFunctionKind, streams, sums):
        mod = stream * n ** (-point.sigma)
        if point.t == 0.0:
            exact = math.fsum(np.abs(mod).tolist())
            assert exact <= allowance / (4.0 * _EPS) <= exact * factor**2, kind
        else:
            low, high = _allowance_rule(mod, n, point)
            assert low <= allowance <= high, kind


def test_four_identities_at_one_point_make_one_pass(sieve_1e4, monkeypatch):
    passes = []
    _count_passes(monkeypatch, passes)
    point = ComplexArgument(2.0, 3.0)
    table = _series_table(LIOUVILLE, 10**4, 10**3, sieve_1e4, _identity_keys(point))
    for identity in IdentityKind:
        _residual(table, identity, point)
    assert passes == [tuple(DerivedFunctionKind)]
    # each identity on its own sums all four streams at s, in one pass
    for identity in IdentityKind:
        identity_residual(identity, LIOUVILLE, point, 10**4, 10**3, sieve_1e4)
    assert passes == [tuple(DerivedFunctionKind)] * 5


def test_a_failing_point_is_summed_once_for_every_identity(sieve_1e4, monkeypatch):
    passes = []
    _count_passes(monkeypatch, passes)
    point = ComplexArgument(-300.0)  # n^300 leaves float64 from n = 11
    table = _series_table(LIOUVILLE, 10**4, 10**3, sieve_1e4, _identity_keys(point))
    for identity in IdentityKind:
        with pytest.raises(DomainError):
            _residual(table, identity, point)
    for kind in DerivedFunctionKind:
        with pytest.raises(DomainError, match="leaves float64"):
            _read(table, kind, point)
    # zeta, G and U refuse sigma <= 0 before any work
    for name in ("zeta", "G", "U"):
        with pytest.raises(DomainError, match="Re\\(s\\) > 0"):
            _read(table, name, point)
    assert passes == [tuple(DerivedFunctionKind)]


def test_the_table_stores_exactly_the_no_value_failures(sieve_1e4, monkeypatch):
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
    # zeta's ConvergenceError (no finite bound) keeps its achieved bound;
    # U's factor at p = 2 cancels to log1p(-1) at 1e-9 + 1e-9i, a
    # degenerate factor
    failures = (
        ("zeta", complex(2.0, 1e200), ConvergenceError),
        ("zeta", 1.0, PoleError),
        ("U", complex(1e-9, 1e-9), DomainError),
    )
    table = _series_table(
        LIOUVILLE, 10**3, 10**3, sieve_1e4, [(name, s) for name, s, _ in failures] * 2
    )
    first = {}
    for name, s, error in failures:
        for _ in range(3):
            with pytest.raises(error) as info:
                _read(table, name, s)
            assert first.setdefault(error, info.value) is info.value
            assert len(info.traceback) < 10  # re-raising grows no traceback
    assert [name for name, _ in calls] == ["zeta", "zeta", "U"]
    assert first[ConvergenceError].achieved_bound > 0
    assert first[DomainError].args == ("degenerate Euler factor encountered",)
    # any other error is a bad argument: it leaves the table unmade
    calls.clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="tol must be positive"):
            _series_table(LIOUVILLE, 10**3, 10**3, sieve_1e4, [("zeta", 2.0)], zeta_tol=0.0)
    assert calls == [("zeta", 0.0), ("zeta", 0.0)]


@pytest.mark.parametrize(
    "sigma, t", [(math.nan, 1.0), (2.0, math.nan), (math.inf, 0.0), (2.0, math.inf)]
)
def test_zeta_at_a_non_finite_point_is_a_domain_error_the_table_stores(
    sigma, t, sieve_1e4, monkeypatch
):
    # a NaN part would reach math.ceil's ValueError, which a table does
    # not store
    point = ComplexArgument(sigma, t)
    with pytest.raises(DomainError, match="needs a finite s"):
        zeta(point)
    calls = []
    original = multlab.dirichlet.zeta

    def counting_zeta(s, tol=1e-12):
        calls.append(s)
        return original(s, tol)

    monkeypatch.setattr(multlab.dirichlet, "zeta", counting_zeta)
    table = _series_table(LIOUVILLE, 10**3, 10**3, sieve_1e4, [("zeta", point)])
    for _ in range(2):
        with pytest.raises(DomainError):
            _read(table, "zeta", point)
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
    # a table stores the failure for every kind: one pass, the same short
    # error every time, and a pass whose every point failed draws no block
    # past the first
    passes, drawn = [], []
    original = dl._coefficients

    def counting(spec, kinds, limit, sieve):
        passes.append(len(kinds))
        exact, blocks = original(spec, kinds, limit, sieve)
        return exact, (drawn.append(lo) or (lo, block) for lo, block in blocks)

    monkeypatch.setattr(dl, "_coefficients", counting)
    table = _series_table(LIOUVILLE, N, None, sieve_1e6, [(k, point) for k in DerivedFunctionKind])
    for _ in range(3):
        for kind in DerivedFunctionKind:
            with pytest.raises(DomainError) as info:
                _read(table, kind, point)
            assert str(info.value) == message
            assert len(info.traceback) < 10  # re-raising grows no traceback
    assert passes == [4] and drawn == [0]


#: specs with every f(p) in {-1, 0, 1}: a table sums their exact streams
PM1_SPECS = [
    LIOUVILLE,
    liouville_spec({2: 0.0}),
    liouville_spec({3: 1.0}),
    liouville_spec({7: 0.0}),
    constant_spec(-1.0),
    constant_spec(0.0),
    constant_spec(1.0),
    power_decay_spec(0.0, 1.0),
]


def _bits(ev):
    return ev.value.real.hex(), ev.value.imag.hex(), ev.tail_bound.hex(), ev.heuristic


@pytest.mark.parametrize("N", [1, 2, 2**15 + 1])
@pytest.mark.parametrize("spec", PM1_SPECS, ids=lambda spec: spec.spec_id())
def test_pm1_table_sums_exact_streams_bit_for_bit(spec, N, sieve_1e5, monkeypatch):
    # a +-1 spec's table sums the exact int8/int16 streams its partial-sum
    # traces read, and every sum and budget is the one that the float
    # streams give
    import multlab.dirichlet as dl

    original, dtypes = dl._coefficients, {}

    def recording(spec, kinds, limit, sieve):
        exact, blocks = original(spec, kinds, limit, sieve)

        def seen():
            for lo, block in blocks:
                dtypes.update((kind, b.dtype) for kind, b in zip(kinds, block))
                yield lo, block

        return exact, seen()

    def floats(spec, kinds, limit, sieve):
        return False, multlab.multfunc._stream_blocks(spec, kinds, limit, sieve, False)

    points = (1.5, 2.0, complex(2.0, 3.0), 0.8)
    sums = [(kind, s) for s in points for kind in DerivedFunctionKind]
    with monkeypatch.context() as m:
        m.setattr(dl, "_coefficients", recording)
        table = _series_table(spec, N, None, sieve_1e5, sums)
        exact = {(kind, s): _bits(_read(table, kind, s)) for kind, s in sums}
    monkeypatch.setattr(dl, "_coefficients", floats)
    float_table = _series_table(spec, N, None, sieve_1e5, sums)
    for kind, s in sums:
        assert exact[(kind, s)] == _bits(_read(float_table, kind, s)), (kind, s)
    assert dtypes == {
        DerivedFunctionKind.F_PLAIN: np.int8,
        DerivedFunctionKind.F_MU2: np.int8,
        DerivedFunctionKind.H_CONV: np.int16,
        DerivedFunctionKind.G_CONV: np.int16,
    }


def test_identity_checks_build_no_whole_length_array(sieve_1e6, monkeypatch):
    # one float64 array of N = 10^6 terms is 7.6 MiB; a slice of 2^15 is 256 KiB.
    # The streams are held outside the table and handed on in slices, so
    # the peak is that of the sums, products and zeta alone
    N = 10**6
    spec = power_decay_spec(0.5, 0.5, {3: 0.25})
    streams = {kind: coefficient_stream(spec, kind, N, sieve_1e6) for kind in DerivedFunctionKind}
    block = multlab.summation._BLOCK

    def held(spec, kinds, limit, sieve):
        return False, (
            (lo, [streams[k][lo : lo + block] for k in kinds]) for lo in range(0, limit, block)
        )

    monkeypatch.setattr(multlab.dirichlet, "_coefficients", held)
    points = (2.0, 3.0, complex(2.5, 3.0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        keys = [key for s in points for key in _identity_keys(s)]
        table = _series_table(spec, N, 10**3, sieve_1e6, keys)
        for s in points:
            for identity in IdentityKind:
                _residual(table, identity, s)
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
