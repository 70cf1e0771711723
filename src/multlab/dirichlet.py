"""Dirichlet series, Euler products, and identity residuals with error budgets.

Every evaluator returns a :class:`SeriesEval`: a truncated value together
with a *tail bound* that is either rigorous (a proven bound on the
truncation error, plus a small explicit rounding allowance) or flagged
heuristic when the abscissa of absolute convergence is not comfortably to
the left of the evaluation point.  Identity checks combine constituent
bounds first-order:

    |A*B - Ahat*Bhat| <= |Ahat|*tail_B + |Bhat|*tail_A + tail_A*tail_B

so a reported residual <= budget is a genuine end-to-end verification, not
a tolerance pulled out of the air.

zeta itself is evaluated through the alternating (eta) series accelerated
with Chebyshev-polynomial averaging coefficients: valid for Re(s) > 0,
geometric convergence at rate 1/(3+sqrt(8)) per term, with an explicit
truncation constant for Re(s) >= 1/2 (heuristic flag below that line).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .multfunc import (
    BASE_CONSTANT,
    BASE_LIOUVILLE,
    DerivedFunctionKind,
    PrimeFunctionSpec,
    coefficient_stream,
    f_at_primes,
)
from .sieve import FactorSieve, primes_up_to
from .summation import fsum_array

_EPS = float(np.finfo(np.float64).eps)

METHOD_DIRECT_SUM = "direct_sum"
METHOD_EULER_PRODUCT = "euler_product"
METHOD_ALTERNATING = "alternating_accelerated"


class PoleError(ValueError):
    """Evaluation requested exactly at a pole."""


class DomainError(ValueError):
    """Evaluation point outside the supported half-plane."""


class ConvergenceError(RuntimeError):
    """Requested tolerance unreachable at the configured maximum depth."""

    def __init__(self, message: str, achieved_bound: float):
        super().__init__(message)
        self.achieved_bound = achieved_bound


@dataclass(frozen=True)
class ComplexArgument:
    """A point s = sigma + i t, kept as a real pair for hashing/printing."""

    sigma: float
    t: float = 0.0

    @property
    def as_complex(self) -> complex:
        return complex(self.sigma, self.t)

    @staticmethod
    def of(s) -> "ComplexArgument":
        if isinstance(s, ComplexArgument):
            return s
        z = complex(s)
        return ComplexArgument(sigma=z.real, t=z.imag)

    def __str__(self) -> str:
        return f"{self.sigma:g}{self.t:+g}i"


@dataclass(frozen=True)
class SeriesEval:
    """Truncated series/product value plus truncation-error accounting.

    ``tail_bound`` is a rigorous bound on |true - value| when
    ``heuristic`` is False; otherwise it is math.inf and the caller must
    supply an explicit tolerance to make decisions.
    """

    value: complex
    truncation_N: int
    tail_bound: float
    heuristic: bool
    method: str


def _twisted_sum(mod: np.ndarray, n: np.ndarray, t: float) -> complex:
    """sum mod * n^(-i t), exactly rounded per part; real sums skip the twist."""
    if t == 0.0:
        return complex(fsum_array(mod), 0.0)
    phase = -t * np.log(n)
    return complex(fsum_array(mod * np.cos(phase)), fsum_array(mod * np.sin(phase)))


# ---------------------------------------------------------------------------
# Riemann zeta via the accelerated alternating series
# ---------------------------------------------------------------------------

_ZETA_MAX_DEPTH = 256
_ACCEL_RATE = 3.0 + math.sqrt(8.0)


@functools.lru_cache(maxsize=64)
def _accel_coefficients(n: int) -> tuple[float, ...]:
    """e_k = (d_k - d_n) / d_n for the depth-n Chebyshev averaging scheme.

    Computed exactly in integers and reduced with Fraction, so each float
    is correctly rounded; every e_k lies in (-1, 0].
    """
    d = []
    for k in range(n + 1):
        total = 0
        for i in range(k + 1):
            total += (
                math.factorial(n + i - 1)
                * 4 ** i
                // (math.factorial(n - i) * math.factorial(2 * i))
            )
        d.append(n * total)
    dn = d[n]
    return tuple(float(Fraction(dk - dn, dn)) for dk in d[:n])


def zeta(s, tol: float = 1e-12) -> SeriesEval:
    """Riemann zeta at s (Re s > 0, s != 1) to within tol.

    The evaluation path is eta(s) / (1 - 2^(1-s)) with eta summed by the
    accelerated alternating scheme; depth is chosen from tol via the
    geometric truncation constant (valid for sigma >= 1/2; points with
    0 < sigma < 1/2 are evaluated the same way but flagged heuristic).

    Raises
    ------
    PoleError       at s = 1.
    DomainError     for sigma <= 0.
    ConvergenceError when tol is unreachable at the depth cap (carries the
                    achieved bound).
    """
    point = ComplexArgument.of(s)
    if point.sigma <= 0:
        raise DomainError(f"zeta evaluation needs Re(s) > 0, got sigma={point.sigma}")
    if point.as_complex == 1 + 0j:
        raise PoleError("zeta has a pole at s = 1")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    z = point.as_complex
    prefactor_den = 1.0 - 2.0 ** (1.0 - z)
    if abs(prefactor_den) < 1e-12:
        raise ConvergenceError(
            f"alternating-series prefactor degenerates at s={point} "
            "(1 - 2^(1-s) ~ 0); no reliable evaluation at this point",
            math.inf,
        )
    kappa = (
        (1.0 + 2.0 * abs(point.t))
        * math.exp(math.pi * abs(point.t) / 2.0)
        / abs(prefactor_den)
    )
    # smallest depth with 3 * kappa / rate^n <= tol/2
    need = 3.0 * kappa / (tol / 2.0)
    n = max(8, int(math.ceil(math.log(max(need, 1.0)) / math.log(_ACCEL_RATE))) + 1)
    if n > _ZETA_MAX_DEPTH:
        achieved = 3.0 * kappa / _ACCEL_RATE ** _ZETA_MAX_DEPTH
        raise ConvergenceError(
            f"tolerance {tol} unreachable at depth cap {_ZETA_MAX_DEPTH} "
            f"for s={point}; achieved bound {achieved:.3e}",
            achieved,
        )

    e = _accel_coefficients(n)
    k_arr = np.arange(1, n + 1, dtype=np.float64)
    e_arr = np.asarray(e, dtype=np.float64)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    base = signs * e_arr * k_arr ** (-point.sigma)
    value = -_twisted_sum(base, k_arr, point.t) / prefactor_den
    truncation = 3.0 * kappa / _ACCEL_RATE ** n
    abs_sum = fsum_array(np.abs(base))
    rounding = _EPS * (4.0 * abs_sum / abs(prefactor_den) + 4.0 * abs(value))
    return SeriesEval(
        value=value,
        truncation_N=n,
        tail_bound=truncation + rounding,
        heuristic=point.sigma < 0.5,
        method=METHOD_ALTERNATING,
    )


@functools.lru_cache(maxsize=256)
def _zeta_real(sigma: float) -> float:
    """Cached real zeta value used inside tail constants (sigma > 1)."""
    return zeta(ComplexArgument(sigma), tol=1e-13).value.real + 1e-13


# ---------------------------------------------------------------------------
# truncated Dirichlet series
# ---------------------------------------------------------------------------


def _power_tail(N: int, sigma: float) -> float:
    """Rigorous bound on sum_{n>N} n^(-sigma) for sigma > 1."""
    return N ** (1.0 - sigma) / (sigma - 1.0)


def _divisor_tail(N: int, sigma: float) -> float:
    """Rigorous bound on sum_{n>N} d(n) n^(-sigma) for sigma > 1.

    Splitting d(n) = sum_{ab=n} 1 over a <= N and a > N gives

        N^(1-sigma)/(sigma-1) * ( 2^(sigma-1) (1 + ln N) + zeta(sigma) ).
    """
    c = 2.0 ** (sigma - 1.0) * (1.0 + math.log(N)) + _zeta_real(sigma)
    return N ** (1.0 - sigma) * c / (sigma - 1.0)


def dirichlet_sum(
    kind: DerivedFunctionKind,
    spec: PrimeFunctionSpec,
    s,
    N: int,
    sieve: FactorSieve,
) -> SeriesEval:
    """Truncated Dirichlet series sum_{n<=N} a(n) n^(-s) for the chosen stream.

    Tail accounting uses |a(n)| <= 1 for the plain/squarefree-restricted
    streams and |a(n)| <= d(n) for the two divisor-sum transforms; both
    bounds are rigorous only for sigma > 1, so evaluations at sigma <= 1
    come back flagged heuristic (value still computed).
    """
    point = ComplexArgument.of(s)
    if not 1 <= N <= sieve.limit:
        raise ValueError(f"N={N} outside [1, sieve limit {sieve.limit}]")
    coeffs = coefficient_stream(spec, kind, N, sieve)
    n_arr = np.arange(1, N + 1, dtype=np.float64)
    mod = coeffs * n_arr ** (-point.sigma)
    value = _twisted_sum(mod, n_arr, point.t)
    abs_sum = fsum_array(np.abs(mod))
    rounding = 4.0 * _EPS * abs_sum
    if point.sigma > 1.0:
        if kind in (DerivedFunctionKind.H_CONV, DerivedFunctionKind.G_CONV):
            tail = _divisor_tail(N, point.sigma)
        else:
            tail = _power_tail(N, point.sigma)
        return SeriesEval(value, N, tail + rounding, False, METHOD_DIRECT_SUM)
    return SeriesEval(value, N, math.inf, True, METHOD_DIRECT_SUM)


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------


def _base_one_plus_f_tail(spec: PrimeFunctionSpec):
    """(coefficient, effective exponent) with |1 + f(p)| <= coef * p^(-extra)
    for every prime p under the base rule alone (exceptions handled
    separately by the caller).
    """
    if spec.base == BASE_LIOUVILLE:
        return 0.0, 0.0
    if spec.base == BASE_CONSTANT:
        return abs(1.0 + spec.c), 0.0
    # power decay: 1 + f(p) = clamp(c * p^(-a), 0 shifted) so |1+f| <= |c| p^(-a)
    return abs(spec.c), float(spec.a)


def _log_tail_over_primes(coef: float, exponent: float, P: int) -> float:
    """Bound sum_{p>P} coef * p^(-exponent), exponent > 1, via the integral."""
    Pe = max(P, 1)
    return coef * Pe ** (1.0 - exponent) / (exponent - 1.0)


def _euler_primes(point: ComplexArgument, P: int, sieve: FactorSieve) -> np.ndarray:
    """The primes p <= P of an Euler product at ``point`` (needs sigma > 0)."""
    if point.sigma <= 0:
        raise DomainError(f"Euler product needs Re(s) > 0, got sigma={point.sigma}")
    if P > sieve.limit:
        raise ValueError(f"P={P} exceeds sieve limit {sieve.limit}")
    return primes_up_to(P, sieve)


def _prime_powers(primes: np.ndarray, point: ComplexArgument, scale: float) -> np.ndarray:
    """p^(scale * s) for each prime p."""
    pf = primes.astype(np.float64)
    if point.t == 0.0:
        # real path, a real power: a/a == 1 exactly, so e.g. the constant
        # -1 base yields the empty-product value with zero rounding
        return pf ** (scale * point.sigma)
    return np.exp(scale * point.as_complex * np.log(pf))


def _log_product(factors: np.ndarray) -> tuple[np.complex128, float]:
    """(prod factors, rounding allowance), the product accumulated in log space."""
    if np.any(np.abs(factors) < 1e-300):
        raise ArithmeticError("degenerate Euler factor encountered")
    logs = np.log(factors)
    if np.iscomplexobj(logs):
        log_value = complex(fsum_array(logs.real), fsum_array(logs.imag))
        abs_log_sum = fsum_array(np.abs(logs.real)) + fsum_array(np.abs(logs.imag))
    else:
        log_value = complex(fsum_array(logs), 0.0)
        abs_log_sum = fsum_array(np.abs(logs))
    value = np.exp(log_value)
    # each factor sits near 1 and carries ~eps absolute representation
    # error, so the honest rounding allowance scales with the factor count
    return value, _EPS * abs(value) * (2.0 * factors.size + 8.0 * abs_log_sum + 4.0)


def euler_product_G(
    spec: PrimeFunctionSpec, s, P: int, sieve: FactorSieve
) -> SeriesEval:
    """prod_{p<=P} (p^s + f(p)) / (p^s - 1), accumulated in log space.

    Each factor equals 1 + (1 + f(p))/(p^s - 1), so the tail beyond P is
    controlled by how fast 1 + f(p) dies: identically for the constant -1
    base (tail exactly 0), like p^(-a) for the power-decay family, not at
    all for a generic constant base (rigorous only for sigma > 1 there).
    """
    point = ComplexArgument.of(s)
    primes = _euler_primes(point, P, sieve)
    value, rounding = 1.0 + 0.0j, 0.0
    if primes.size:
        fp = f_at_primes(spec, primes)
        ps = _prime_powers(primes, point, 1.0)
        value, rounding = _log_product((ps + fp) / (ps - 1.0))

    # tail over p > P: factor - 1 = (1 + f(p)) / (p^s - 1)
    coef, extra = _base_one_plus_f_tail(spec)
    Pe = max(P, 1)
    kappa1 = 1.0 / (1.0 - (Pe + 1.0) ** (-point.sigma))
    log_tail = 0.0
    zmax = 0.0
    heuristic = False
    if coef != 0.0:
        exponent = point.sigma + extra
        if exponent > 1.0:
            log_tail += kappa1 * _log_tail_over_primes(coef, exponent, P)
            zmax = max(zmax, coef * kappa1 * (Pe + 1.0) ** (-exponent))
        else:
            heuristic = True
    for p, v in spec.exceptions:
        if p > P:
            zp = abs(1.0 + v) / (p ** point.sigma - 1.0)
            zmax = max(zmax, zp)
            log_tail += zp
    if not heuristic and zmax < 0.5:
        log_tail = log_tail / (1.0 - zmax)
        tail = abs(value) * math.expm1(log_tail) + rounding
        return SeriesEval(complex(value), int(primes.size), tail, False, METHOD_EULER_PRODUCT)
    return SeriesEval(complex(value), int(primes.size), math.inf, True, METHOD_EULER_PRODUCT)


def euler_product_U(
    spec: PrimeFunctionSpec, s, P: int, sieve: FactorSieve
) -> SeriesEval:
    """prod_{p<=P} (1 - f(p)^2 p^(-2s)); absolutely convergent for sigma > 1/2.

    Evaluated only for sigma > 0, like G (DomainError otherwise): at
    sigma <= 0 a factor can turn negative and has no logarithm.
    """
    point = ComplexArgument.of(s)
    primes = _euler_primes(point, P, sieve)
    value, rounding = 1.0 + 0.0j, 0.0
    if primes.size:
        fp = f_at_primes(spec, primes)
        value, rounding = _log_product(1.0 - fp ** 2 * _prime_powers(primes, point, -2.0))
    if point.sigma > 0.5:
        zmax = (max(P, 1) + 1.0) ** (-2.0 * point.sigma)
        log_tail = _log_tail_over_primes(1.0, 2.0 * point.sigma, P) / (1.0 - zmax)
        tail = abs(value) * math.expm1(log_tail) + rounding
        return SeriesEval(complex(value), int(primes.size), tail, False, METHOD_EULER_PRODUCT)
    return SeriesEval(complex(value), int(primes.size), math.inf, True, METHOD_EULER_PRODUCT)


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------


class IdentityKind(Enum):
    H_EQ_ZETA_F = "H_eq_zetaF"
    FMU2_EQ_F_U = "Fmu2_eq_FU"
    RECIP_ZETA_EQ_FMU2_OVER_G = "recip_zeta_eq_Fmu2_over_G"
    G_PRODUCT_VS_SUM = "G_product_vs_sum"


@dataclass(frozen=True)
class IdentityResidual:
    """|LHS - RHS| for one identity, with the propagated error budget.

    When ``heuristic`` is True at least one constituent had no rigorous
    tail bound; the budget is then infinite and decisions need an explicit
    tolerance (``passes(tolerance=...)``).
    """

    identity: IdentityKind
    point: ComplexArgument
    residual: float
    budget: float
    heuristic: bool

    def passes(self, tolerance: float | None = None) -> bool:
        if self.heuristic:
            if tolerance is None:
                raise ValueError(
                    "heuristic residual needs an explicit tolerance to decide"
                )
            return self.residual <= tolerance
        return self.residual <= self.budget


def _product_budget(A: SeriesEval, B: SeriesEval) -> float:
    return (
        abs(A.value) * B.tail_bound
        + abs(B.value) * A.tail_bound
        + A.tail_bound * B.tail_bound
    )


def identity_residual(
    identity: IdentityKind,
    spec: PrimeFunctionSpec,
    s,
    N: int,
    P: int,
    sieve: FactorSieve,
    zeta_tol: float = 1e-14,
) -> IdentityResidual:
    """Evaluate both sides of one proof identity and report |LHS - RHS|.

    The budget is the first-order propagation of constituent tail bounds;
    with rigorous constituents, residual <= budget is mathematically
    guaranteed for a correct implementation, so a violation localizes a
    genuine bug (or a heuristic evaluation, which is flagged).
    """
    point = ComplexArgument.of(s)
    if identity is IdentityKind.H_EQ_ZETA_F:
        lhs = dirichlet_sum(DerivedFunctionKind.H_CONV, spec, point, N, sieve)
        zeta_eval = zeta(point, zeta_tol)
        f_eval = dirichlet_sum(DerivedFunctionKind.F_PLAIN, spec, point, N, sieve)
        residual = abs(lhs.value - zeta_eval.value * f_eval.value)
        budget = lhs.tail_bound + _product_budget(zeta_eval, f_eval)
        heuristic = lhs.heuristic or zeta_eval.heuristic or f_eval.heuristic
    elif identity is IdentityKind.FMU2_EQ_F_U:
        lhs = dirichlet_sum(DerivedFunctionKind.F_MU2, spec, point, N, sieve)
        f_eval = dirichlet_sum(DerivedFunctionKind.F_PLAIN, spec, point, N, sieve)
        u_eval = euler_product_U(spec, point, P, sieve)
        residual = abs(lhs.value - f_eval.value * u_eval.value)
        budget = lhs.tail_bound + _product_budget(f_eval, u_eval)
        heuristic = lhs.heuristic or f_eval.heuristic or u_eval.heuristic
    elif identity is IdentityKind.RECIP_ZETA_EQ_FMU2_OVER_G:
        # stated as 1/zeta = F_mu2 / G; checked multiplied out:
        # |zeta * F_mu2 - G|, avoiding division by small products
        fmu2 = dirichlet_sum(DerivedFunctionKind.F_MU2, spec, point, N, sieve)
        zeta_eval = zeta(point, zeta_tol)
        g_eval = euler_product_G(spec, point, P, sieve)
        residual = abs(zeta_eval.value * fmu2.value - g_eval.value)
        budget = _product_budget(zeta_eval, fmu2) + g_eval.tail_bound
        heuristic = fmu2.heuristic or zeta_eval.heuristic or g_eval.heuristic
    elif identity is IdentityKind.G_PRODUCT_VS_SUM:
        prod = euler_product_G(spec, point, P, sieve)
        summ = dirichlet_sum(DerivedFunctionKind.G_CONV, spec, point, N, sieve)
        residual = abs(prod.value - summ.value)
        budget = prod.tail_bound + summ.tail_bound
        heuristic = prod.heuristic or summ.heuristic
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown identity {identity}")
    return IdentityResidual(
        identity=identity,
        point=point,
        residual=float(residual),
        budget=float(budget),
        heuristic=heuristic,
    )
