"""Zeta evaluation, truncated Dirichlet series, Euler products, identities.

High-precision oracle: mpmath at 30 digits, used only in tests.  Every
rigorous (non-heuristic) SeriesEval must contain the oracle value within
its reported tail_bound -- that is the whole contract of the error
accounting, so these assertions are exact, not order-of-magnitude.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from multlab.dirichlet import (
    ComplexArgument,
    ConvergenceError,
    DomainError,
    IdentityKind,
    PoleError,
    SeriesEval,
    dirichlet_sum,
    euler_product_G,
    euler_product_U,
    identity_residual,
    zeta,
)
from multlab.multfunc import (
    LIOUVILLE,
    DerivedFunctionKind,
    constant_spec,
    liouville_spec,
    power_decay_spec,
)

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


def test_dirichlet_sum_validates_N(sieve_1e4):
    with pytest.raises(ValueError):
        dirichlet_sum(DerivedFunctionKind.F_PLAIN, LIOUVILLE, 2.0, 0, sieve_1e4)
    with pytest.raises(ValueError):
        dirichlet_sum(DerivedFunctionKind.F_PLAIN, LIOUVILLE, 2.0, 10**5, sieve_1e4)


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
