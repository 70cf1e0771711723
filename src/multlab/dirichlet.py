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

The Euler products G and U sum log(1 + x_p) in real arithmetic, in one
pass per chunk of primes, with log p read from the sieve's table; their
rounding allowance is derived term by term in ``_log1p_product``.  At
complex s, a full walk with several chunks runs them on a thread pool
where two or more CPUs are usable; each chunk hands back exact pieces of
its log sums and its share of the allowance, joined in chunk order, so G
and U do not depend on the number of threads.  Both are one evaluator,
``_euler_product``, with one rule for the primes past a cutoff,
``_prime_tail``.  P only caps the walk: it stops at the first prime Q <= P
whose log tail bound is at most 2^-53, which adds at most
|value| expm1(2^-53) to the bound, under 1/30 of the final exp's own
rounding allowance |value| _EXP_REL = 34 |value| 2^-53; where the tail at
P is larger, Q = P.
Where the factors' logs start with fixed multiples of powers of p, the
products are deflated by powers of zeta (``_deflation``; H. Cohen, *High
precision computation of Hardy-Littlewood constants*, 1998): G or U is
prod_j zeta(w_j)^(e_j) R, w_j = k_j s + m_j a, with the shifts (e_j, w_j)
of this table, where b is a flat base value and 1 + f(p) = c p^(-a) that
of power decay:

    G, flat b != -1:        (1 + b, s), (-b (1 + b) / 2, 2s)
    U, flat b != 0:         (-b^2, 2s)
    G, power decay, 0 < c <= 2^(1 + a):
                            (c, s + a), (c, 2s + a), (-c (1 + c) / 2, 2s + 2a)
    U, the same:            (-1, 2s), (2c, 2s + a), (-c^2, 2s + 2a)

R's log terms are then O(p^(-3 sigma)), O(p^(-4 sigma)),
O(p^(-(3 sigma + a))) and O(p^(-(4 sigma + a))), so R's tail has that
exponent and the walk stops much earlier.  A shift whose log zeta is not
proven ends the list there (a prefix is kept), and R's tail then has the
exponent of the first shift left out; an empty list, the plain walk bit
for bit, is left for sigma <= 1/2 and for power decay that clamps some
f(p) at +1.
Where every factor but the exception primes' is exactly 1 (G for a base
value of -1, U for a base value of 0, and with deflation R for G at
b = 0 or 1 and U at b^2 = 1; ``multfunc._visited``), the product visits
the exception primes alone, with the bits of the full walk where no
shift is divided out.

zeta itself is evaluated through the alternating (eta) series accelerated
with Chebyshev-polynomial averaging coefficients: valid for Re(s) > 0,
geometric convergence at rate 1/(3+sqrt(8)) per term, with an explicit
truncation constant for Re(s) >= 1/2 (heuristic flag below that line).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple
from fractions import Fraction

import numpy as np

from .multfunc import (
    DerivedFunctionKind,
    PrimeFunctionSpec,
    _base_value,
    _coefficients,
    _f_values,
    _one_plus_f_decay,
    _visited,
)
from .sieve import FactorSieve, primes_up_to
from .summation import _BLOCK, _ExactSum

_EPS = float(np.finfo(np.float64).eps)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # exp of more overflows

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


#: the failures that mean "no value at this point": a series table stores
#: exactly these, and verify and the ``series`` command catch them
_NO_VALUE = (PoleError, DomainError, ConvergenceError)


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

    ``truncation_N`` is the number of terms summed: for a Dirichlet sum N,
    for zeta the depth, and for an Euler product the number of primes
    walked, pi(Q) <= pi(P) (see ``_euler_product``).
    ``tail_bound`` is a rigorous bound on |true - value| when ``heuristic``
    is False.  A heuristic value claims no bound: ``tail_bound`` is math.inf,
    or for zeta at 0 < sigma < 1/2 an estimate proven only for sigma >= 1/2,
    and decisions need an explicit tolerance.
    """

    value: complex
    truncation_N: int
    tail_bound: float
    heuristic: bool
    method: str


class _DirichletSums:
    """(sum c(n) n^(-s), allowance sum) at one point s for several c, fed
    slice by slice.

    ``feed(lo, blocks)`` takes c(lo + 1), ..., c(hi) of every c, as
    float64 or as integers: an int8 or int16 slice times the float64
    weights is promoted exactly, so an exact stream gives the sums of the
    float stream with the same values.  Each slice forms n^(-sigma) and,
    at complex s, cos and sin of -t log n once for every c, and feeds the
    real and imaginary terms to their own ``_ExactSum``: each part of the
    value is its exact sum rounded once, bit for bit ``math.fsum`` of the
    whole-length terms, whatever the slicing.  At real s the imaginary
    part is exactly 0.0.  ``results(length)`` rounds them, N = ``length``
    being the number of terms fed.

    The allowance sum is an upper bound on S, the exact sum of the computed
    |c(n) n^(-sigma)|, so it is summed in float: each slice with numpy's
    ``sum`` (never BLAS, whose threads could change the bits), the slice
    sums in order into one float T, and then R = T (1 + N eps), with
    eps = 2^-52 (exact as a float for N < 2^52).  Its bits depend on the
    slicing, so every caller feeds slices of _BLOCK n from n = 1.
    Proof that S <= R, in the standard model of Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., 2.2 and 4.2: with
    u = 2^-53, a rounded + or * of nonnegative x gives fl(x) >= x / (1 + u)
    (a sum in the subnormal range is exact, and a subnormal T is S).
    Whatever order numpy adds in, T comes from N terms by additions alone,
    so each term meets at most N - 1 roundings there and one more in the
    product: R >= S (1 + N eps) / (1 + u)^N.  For N u <= 1,
    (1 + u)^N <= exp(N u) <= 1 + 2 N u = 1 + N eps, so R >= S.  For a
    normal T the same count with fl(x) <= x (1 + u) gives
    R <= S (1 + N eps)^2.

    Raises DomainError when a term or a sum leaves float64 (n^(-sigma)
    overflows from sigma of about -308 / log10 length): ``feed`` at the
    first slice whose |c(n)| n^(-sigma) hold an inf or NaN, which no sum
    could survive, or whose allowance sum so far overflows, and
    ``results`` when R overflows.  No value can overflow while R is
    finite, since S bounds its parts.
    """

    def __init__(self, point: ComplexArgument, count: int, buf: np.ndarray) -> None:
        self.point = point
        # ``buf`` is the scratch of every sum: each is fed in turn
        self.sums = [(_ExactSum(buf), _ExactSum(buf)) for _ in range(count)]  # re, im
        self.sizes = [0.0] * count

    def _error(self) -> DomainError:
        return DomainError(f"Dirichlet sum leaves float64 at sigma={self.point.sigma}")

    def feed(self, lo: int, blocks) -> None:
        point = self.point
        n = np.arange(lo + 1, lo + len(blocks[0]) + 1, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):  # the sums are checked
            weights = n ** (-point.sigma)
            if point.t != 0.0:  # n turns into the phase -t log n, then its sine
                np.log(n, out=n)
                n *= -point.t
                cos, sin = np.cos(n), np.sin(n, out=n)
            for i, (c, (re, im)) in enumerate(zip(blocks, self.sums)):
                mod = c * weights
                self.sizes[i] += float(np.abs(mod).sum())
                if not math.isfinite(self.sizes[i]):
                    raise self._error()
                if point.t == 0.0:
                    re.add(mod)
                else:
                    re.add(mod * cos)
                    im.add(mod * sin)

    def results(self, length: int) -> list[tuple[complex, float]]:
        factor = 1.0 + length * _EPS
        bounds = [size * factor for size in self.sizes]
        if not all(math.isfinite(bound) for bound in bounds):
            raise self._error()
        values = [complex(re.value(), im.value()) for re, im in self.sums]
        return list(zip(values, bounds))


def _dirichlet_sums(coeffs, length: int, point: ComplexArgument) -> list[tuple[complex, float]]:
    """(sum c(n) n^(-s), allowance sum) over n <= ``length`` for each array
    c in ``coeffs`` (c(1), c(2), ...): one ``_DirichletSums`` fed in slices
    of _BLOCK n, with no whole-length temporary."""
    sums = _DirichletSums(point, len(coeffs), np.empty((2, min(length, _BLOCK))))
    for lo in range(0, length, _BLOCK):
        hi = min(lo + _BLOCK, length)
        sums.feed(lo, [c[lo:hi] for c in coeffs])
    return sums.results(length)


# ---------------------------------------------------------------------------
# Riemann zeta via the accelerated alternating series
# ---------------------------------------------------------------------------

_ZETA_MAX_DEPTH = 256
_ACCEL_RATE = 3.0 + math.sqrt(8.0)


@functools.lru_cache(maxsize=64)
def _accel_coefficients(n: int) -> np.ndarray:
    """(-1)^k e_k, k < n, with e_k = (d_k - d_n) / d_n for the depth-n
    Chebyshev averaging scheme: the coefficient of (k + 1)^(-s) in the
    accelerated eta sum, up to its overall sign.

    d_k is n times the prefix sum up to k of the integer terms
    floor((n + i - 1)! 4^i / ((n - i)! (2i)!)).  n times the exact term,
    u_i, is an integer: u_0 = 1 and u_(i+1) = u_i 2 (n + i) (n - i) /
    ((2i + 1) (i + 1)), a division with no remainder, so each term is
    u_i // n with no factorial formed.  Each coefficient is one int true
    division, which CPython rounds correctly, as ``float(Fraction(...))``
    does; every e_k lies in (-1, 0).  The float64 array is cached, so it
    is read-only.
    """
    u, terms = 1, []
    for i in range(n + 1):
        terms.append(u // n)
        u = u * 2 * (n + i) * (n - i) // ((2 * i + 1) * (i + 1))
    d = [n * total for total in itertools.accumulate(terms)]
    dn = d[n]
    coefficients = np.array(
        [(dk - dn if k % 2 == 0 else dn - dk) / dn for k, dk in enumerate(d[:n])]
    )
    coefficients.flags.writeable = False
    return coefficients


def zeta(s, tol: float = 1e-12) -> SeriesEval:
    """Riemann zeta at s (Re s > 0, s != 1) to within tol.

    The evaluation path is eta(s) / (1 - 2^(1-s)) with eta summed by the
    accelerated alternating scheme; depth is chosen from tol via the
    geometric truncation constant (valid for sigma >= 1/2; points with
    0 < sigma < 1/2 are evaluated the same way but flagged heuristic).
    The rounding allowance is 4 eps of the accelerated terms' absolute sum
    over |1 - 2^(1-s)|, plus 4 eps |value|; that sum comes from
    ``_dirichlet_sums``, summed in float and raised by its factor
    1 + n eps (n <= 256 terms), so it is at least the exact one.

    Raises
    ------
    PoleError       at s = 1.
    DomainError     for sigma <= 0 and for a point with a NaN or infinite part.
    ConvergenceError when tol is unreachable at the depth cap (carries the
                    achieved bound, inf once the truncation constant
                    overflows float64, from about |t| = 451).
    """
    point = ComplexArgument.of(s)
    if not (math.isfinite(point.sigma) and math.isfinite(point.t)):
        raise DomainError(f"zeta evaluation needs a finite s, got s={point}")
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
    # clamping at the largest finite exp leaves kappa = inf wherever the
    # exact constant overflows, since (1 + 2|t|) / |prefactor_den| > 1 there
    kappa = (
        (1.0 + 2.0 * abs(point.t))
        * math.exp(min(math.pi * abs(point.t) / 2.0, _LOG_FLOAT_MAX))
        / abs(prefactor_den)
    )
    # smallest depth with 3 * kappa / rate^n <= tol/2; past the cap (need
    # may be inf) the exact depth does not matter
    need = 3.0 * kappa / (tol / 2.0)
    depth = min(math.log(max(need, 1.0)) / math.log(_ACCEL_RATE), _ZETA_MAX_DEPTH)
    n = max(8, int(math.ceil(depth)) + 1)
    if n > _ZETA_MAX_DEPTH:
        achieved = 3.0 * kappa / _ACCEL_RATE ** _ZETA_MAX_DEPTH
        raise ConvergenceError(
            f"tolerance {tol} unreachable at depth cap {_ZETA_MAX_DEPTH} "
            f"for s={point}; achieved bound {achieved:.3e}",
            achieved,
        )

    [(eta_sum, abs_sum)] = _dirichlet_sums([_accel_coefficients(n)], n, point)
    value = -eta_sum / prefactor_den
    truncation = 3.0 * kappa / _ACCEL_RATE ** n
    rounding = _EPS * (4.0 * abs_sum / abs(prefactor_den) + 4.0 * abs(value))
    return SeriesEval(
        value=value,
        truncation_N=n,
        tail_bound=truncation + rounding,
        heuristic=point.sigma < 0.5,
        method=METHOD_ALTERNATING,
    )


@functools.lru_cache(maxsize=768)
def _zeta_memo(point: ComplexArgument, tol: float) -> SeriesEval:
    """``zeta(point, tol)``, memoised per process: the Dirichlet tails and
    the Euler products' deflation meet each point again and again.  A
    raised error is not memoised."""
    return zeta(point, tol)


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

    Where 2^(sigma-1) (1 + ln N) overflows float64 (sigma above about
    1019), the bound at sigma = 1000 is scaled by (N+1)^(1000-sigma): every
    n > N has n^(-sigma) <= (N+1)^(1000-sigma) n^(-1000).
    """
    if sigma - 1.0 < 1024.0:  # 2.0 ** 1024 raises
        lead = 2.0 ** (sigma - 1.0) * (1.0 + math.log(N))
        if lead < math.inf:
            zeta_sigma = _zeta_memo(ComplexArgument(sigma), 1e-13).value.real + 1e-13
            return N ** (1.0 - sigma) * (lead + zeta_sigma) / (sigma - 1.0)
    return (N + 1.0) ** (1000.0 - sigma) * _divisor_tail(N, 1000.0)


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

    Raises TypeError when ``kind`` and ``spec`` are not a DerivedFunctionKind
    and a PrimeFunctionSpec, in that order.
    """
    if not isinstance(kind, DerivedFunctionKind) or not isinstance(spec, PrimeFunctionSpec):
        raise TypeError(
            "dirichlet_sum takes (kind, spec, s, N, sieve), kind first; got "
            f"({type(kind).__name__}, {type(spec).__name__}, ...)"
        )
    return _read(_series_table(spec, N, None, sieve, [(kind, s)]), kind, s)


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------


#: accuracy assumed of numpy's exp, log, log1p, cos, sin and arctan2 on
#: float64 arrays, and of its complex exp on one value: at most this many
#: ulps of the exact result (``test_libm_ulp_assumption`` checks it)
_LIBM_ULPS = 4.0

_KAPPA = _LIBM_ULPS * _EPS  # relative error of one elementary function
_UNIT = _EPS / 2.0  # unit roundoff of + - * /
_TERM_CONST = 17.0 * _KAPPA + 32.0 * _UNIT  # c0 of the per-term bound
_EXP_REL = 4.0 * _KAPPA + 2.0 * _UNIT  # relative error of the final exp
_FIRST_ORDER_MAX = 2.0 ** -12  # largest per-term bound the slack covers
_SLACK = 1.0 + 2.0 ** -6  # second-order terms and the bound's own rounding
_UNDERFLOW = 2.0 ** -990  # absolute error of a term that leaves the normal range
_LOG_DEGENERATE = math.log(1e-300)  # log |1 + x_p| below this: |1 + x_p| < 1e-300


def _numerator(power: int, fp):
    """g_p of the Euler factor 1 + x_p, from fp = f(p) (an array or one number):
    1 + f(p) for G (power 1), -f(p)^2 for U (power 2)."""
    return 1.0 + fp if power == 1 else -(fp * fp)


#: zeta's absolute tolerance where it deflates an Euler product (its
#: relative bound is then about 2-5e-15 at the points the products use)
_ZETA_TOL = 1e-15
#: log zeta(1.0443) = pi, so from Re w >= 1.045 on |Im log zeta(w)| <=
#: log zeta(Re w) < pi and the principal log is the branch continued from +inf
_BRANCH_SIGMA = 1.045


class _Shift(NamedTuple):
    """zeta(w)^e, one power of zeta divided out of an Euler product."""

    e: float
    #: k s + m a as floats: the point at which zeta and the walk both take it
    w: ComplexArgument
    #: whether m a != 0, so Re w carries the rounding of k sigma + m a
    shifted: bool
    #: e log zeta(w), and a bound on its error
    log: complex
    err: float
    #: -1.0 where zeta(w) < 0 and e is odd, else 1.0
    sign: float


@functools.lru_cache(maxsize=256)
def _shift_rows(power: int, spec: PrimeFunctionSpec) -> tuple[tuple[float, int, float, bool], ...]:
    """(e, k, m a, whether e is an integer) of each shift of G (power 1) or
    U (power 2), in ascending order of Re w, w = k s + m a.

    For a base value b (``multfunc._base_value``) G's log at p is
    sum_k ((-1)^(k+1) b^k + 1) p^(-ks) / k and U's is -sum_k b^(2k) p^(-2ks) / k:
    G takes 1 + b at s and -b (1 + b) / 2 at 2s, U takes -b^2 at 2s.
    For power decay, 1 + f(p) = c q with q = p^(-a) (``_one_plus_f_decay``),
    G's log is log(1 + z), z = c q v / (1 - v), v = p^-s, whose terms of
    order v and v^2 are c q v + c q v^2 - c^2 q^2 v^2 / 2; the shift
    (c, s + a) also brings -c q^2 v^2 / 2, so the third shift has
    e = -c (1 + c) / 2.  U's log is log(1 - f(p)^2 v^2) with
    f(p)^2 = 1 - 2 c q + c^2 q^2, which the three shifts of U cancel term
    by term at order v^2.  Power decay needs c <= 2^(1 + a), so that no
    f(p) is clamped at +1 (c > 0 there, since c <= 0 is a base value), and
    c <= 2^511, so that c^2 is finite; otherwise there is no row.  Each e
    is formed exactly (``Fraction``) and rounded once, so it is within
    u |e| of the exact one and is an integer, or zero, exactly when the
    exact one is.  Shifts with e = 0
    (G at b = -1 or 0, U at b = 0) divide nothing and are left out; a
    nonzero e below the normal range (b within 2^-1021 of 0) leaves no
    row at all, since its rounding is not relative.  Cached per
    (power, spec): a product calls it twice, and a run many times.
    """
    base = _base_value(spec)
    if base is not None:
        b = Fraction(base)
        rows = ((1 + b, 1, 0.0), (-b * (1 + b) / 2, 2, 0.0)) if power == 1 else ((-b * b, 2, 0.0),)
    else:
        c, a = _one_plus_f_decay(spec)
        if not c <= 2.0 ** min(1.0 + a, 511.0):  # clamps no f(p), and c^2 is finite
            return ()
        c = Fraction(c)
        if power == 1:
            rows = ((c, 1, a), (c, 2, a), (-c * (1 + c) / 2, 2, 2.0 * a))
        else:
            rows = ((Fraction(-1), 2, 0.0), (2 * c, 2, a), (-c * c, 2, 2.0 * a))
    rows = [(float(e), k, ma, e.denominator == 1) for e, k, ma in rows if e != 0]
    if any(abs(e) < sys.float_info.min for e, *_ in rows):
        return ()
    return tuple(rows)


def _deflation(power: int, spec: PrimeFunctionSpec, point: ComplexArgument) -> tuple[_Shift, ...]:
    """The powers of zeta divided out of G (power 1) or U (power 2) at s.

    The product is prod_j zeta(w_j)^(e_j) R, with R = prod_p (1 + x_p)
    prod_j (1 - p^(-w_j))^(e_j), for the shifts (e_j, w_j) of
    ``_shift_rows``: then R's log at every prime that is no exception has
    none of the terms they cancel.  Returns the longest prefix of those
    shifts whose log zeta is proven, as ``_Shift`` values, so () (the
    plain walk) where the first is not.  Nothing is divided out for
    sigma <= 1/2 (G's remainder needs 2 sigma > 1 there, and U's own
    product does not converge; the walk is kept, heuristic as before);
    past that every w_j has Re w_j >= sigma > 1/2, where zeta's bound is
    proven.  The list ends at the first shift with a non-integer e unless
    w is real and above 1 or Re w >= _BRANCH_SIGMA (elsewhere the
    principal log is not proven to be the branch of log zeta continued from
    +inf), with m a != 0 unless Re w > 1 (see below), where ``zeta``
    raises ConvergenceError or DomainError, or where zeta's bound is not
    below |zeta|.  An integer e needs no branch, since only exp of the
    total log is used.  PoleError (w = 1: G of b = 0 or 1 at s = 1, a
    pole of the product) propagates.

    Error, with zeta^ = ``zeta(w, _ZETA_TOL)`` (read through ``_zeta_memo``:
    G and U at one s share zeta(2s) for a flat base, and zeta(2s + a) and
    zeta(2s + 2a) for power decay) and delta its tail bound over |zeta^|:
    |log zeta - log zeta^| <= -log(1 - delta) <=
    delta / (1 - delta).  log zeta^ is 0.5 log(re^2 + im^2) + i arctan2(im,
    re): the squares and their sum lose 2u, which the log turns into u
    after halving, and each numpy function adds kappa of its part.  e is
    the exact one rounded (u |e|, ``_shift_rows``), and the product e log
    rounds once more.  To first order the shift's error is at most

        |e| (delta / (1 - delta) + 2u + (kappa + 2u) (|Re L| + |Im L|)),

    L = log zeta^; ``_log1p_product``'s _SLACK covers the second order.
    Where m a != 0, Re w = k sigma + m a is rounded: w is off the exact
    point by d, read exactly off the rounding (TwoSum), and zeta is taken
    at the float w, which the walk uses too.  For Re w > 1,
    |zeta'/zeta(w)| <= -zeta'/zeta(Re w) <= 1/(Re w - 1) + 1/e_0
    (e_0 = 2.718..., from zeta(x) >= 1/(x - 1) and -zeta'(x) <=
    1/(x - 1)^2 + 1/(e_0 x), the sum of a unimodal function below its
    integral plus its peak), so for Re w - |d| > 1 the shift's error
    gains |e| |d| (1/(Re w - |d| - 1) + 1/e_0).  At real w the log is of
    |zeta^|, and sign is -1 where zeta(w) < 0 and e is odd (G of b = 0 at
    1/2 < s < 1), so the value stays real.
    """
    if not point.sigma > 0.5:
        return ()
    shifts = []
    for e, k, ma, integer in _shift_rows(power, spec):
        x = k * point.sigma
        re_w = x + ma
        slip = (x - (re_w - (re_w - x))) + (ma - (re_w - x))  # re_w + slip = x + ma exactly
        w = ComplexArgument(re_w, k * point.t)
        branch_free = integer or re_w >= _BRANCH_SIGMA or (w.t == 0.0 and re_w > 1.0)
        if not branch_free or (ma and not re_w - abs(slip) > 1.0):
            break
        try:
            z = _zeta_memo(w, _ZETA_TOL)
        except (ConvergenceError, DomainError):
            break
        re, im = z.value.real, z.value.imag
        size = re * re + im * im
        delta = z.tail_bound / abs(z.value) if size > 0.0 else math.inf
        if not delta < 1.0:
            break
        log_re = 0.5 * float(np.log(size))
        log_im = float(np.arctan2(im, re)) if w.t != 0.0 else 0.0
        sign = -1.0 if w.t == 0.0 and re < 0.0 and e % 2.0 == 1.0 else 1.0
        size_log = abs(log_re) + abs(log_im)
        err = abs(e) * (delta / (1.0 - delta) + 2.0 * _UNIT + (_KAPPA + 2.0 * _UNIT) * size_log)
        if slip:
            err += abs(e) * abs(slip) * (1.0 / (re_w - abs(slip) - 1.0) + 1.0 / math.e)
        shifts.append(_Shift(e, w, bool(ma), complex(e * log_re, e * log_im), err, sign))
    return tuple(shifts)


def _cpus() -> int:
    """The CPUs this process may run on, so ``taskset`` or a cpuset limits pools."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - platforms without CPU affinity


def _log1p_product(
    spec: PrimeFunctionSpec,
    primes: np.ndarray,
    log_p: np.ndarray,
    point: ComplexArgument,
    power: int,
    visited: np.ndarray | None = None,
    shifts: tuple[_Shift, ...] = (),
) -> tuple[complex, float]:
    """(prod_j zeta(w_j)^(e_j) prod_p (1 + x_p) prod_j (1 - p^(-w_j))^(e_j),
    rounding allowance), summed as logs.

    With v_p = p^(-power s), x_p = g_p v_p / (1 - v_p) for G (power 1,
    g = 1 + f(p)) and x_p = g_p v_p for U (power 2, g = -f(p)^2; see
    ``_numerator``), where f(p) are the float values of ``spec`` at
    ``primes`` and ``log_p`` holds log p.  ``shifts`` are ``_deflation``'s
    (e_j, w_j, e_j log zeta(w_j), its error, sign); with none (the
    default) the product is prod_p (1 + x_p), and no step below that names
    a shift is taken.  ``visited`` None takes every prime; otherwise it
    holds the positions of the only primes whose term can be nonzero
    (``multfunc._visited``), and the product skips the others, whose
    factors are exactly 1 (see "Skipped primes" below).
    Each chunk of _BLOCK primes is one pass: it forms f(p),
    r = exp(-power sigma log p) and phase = -power t log p, so
    v = r (cos phase + i sin phase) and x = a + i b with no complex array.
    log(1 + x) has real part 0.5 log1p(2a + a^2 + b^2) and imaginary part
    arctan2(b, 1 + a) (real s: log1p(a), imaginary part 0).  Each
    log(1 - v_j), v_j = p^(-w_j), is formed the same way from
    a'_j + i b'_j = -v_j (real s: log1p(-r_j)), with r_j = exp(-Re w_j log p)
    and phase -Im w_j log p, each formed once per chunk for each distinct
    Re w_j and Im w_j (and read from r and the phase where those are
    power sigma and power t); the terms e_j log(1 - v_j) are summed in shift
    order and their sum is added to log(1 + x) term by term.  The chunk
    splits each part into exact pieces (``summation._ExactSum``) and sums
    its terms of the allowance (step 4); only those leave it, so no
    whole-length array is built.  The chunks run on a thread pool of
    min(``_cpus()``, chunks) workers where s is complex, every prime is
    visited and that count is at least 2, and inline otherwise; either way
    they are joined in chunk order.  Each part is its pieces' exact
    sum rounded once, and the value is exp of the complex total, so at real
    s its imaginary part is exactly 0.0.  Value and allowance are bit-identical for every worker
    count.

    Raises DomainError when some |1 + x_p| < 1e-300 (or is NaN), when
    2^(-power sigma) rounds to 1 (tiny sigma: the factor at p = 2 is a
    float64 pole; checked before any chunk, whether 2 is visited or not)
    or when the product overflows float64.  An error raised in a chunk
    comes from the first chunk that raises, as in a serial loop.

    Skipped primes.  Where g_p = 0, x_p, its log terms and its step-4 bound
    below are exact zeros, so leaving the prime out keeps every bit, as
    long as the rest of the computation is the full walk's.  Each visited
    prime stays in its own chunk of _BLOCK primes, formed from the visited
    entries alone, and a chunk with none is not formed (the full walk adds
    +0.0 for it).  The log parts are exact sums rounded once, so fewer
    zero terms change nothing.  The allowance is not an exact sum: numpy
    sums a chunk's bounds pairwise, in an order set by the array's length,
    so a visited chunk scatters its bounds into a zero array of the
    chunk's full length and sums that, in the full walk's order (the
    visited bounds summed alone can differ in the last bit once a chunk
    holds three of them).  The n of step 4 stays the number of primes, and
    step 6 reads log p of the largest prime, as in the full walk.  With
    shifts a prime is skipped where the remainder's factor
    (1 + x_p) prod_j (1 - v_j)^(e_j) is exactly 1 at the base value (G at
    b = 0 or 1 with every shift of its row, U at b^2 = 1), though g_p is
    not 0: leaving it out changes the exact product not at all and skips
    rounding that the full walk would make and allow for, so value and
    allowance are rigorous but are the full walk's bits only with no shift.

    Rounding allowance (first order, in the standard model of Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 3).
    The product is that of the float values f(p), and x^ is the computed
    x; u = eps/2 bounds each + - * / (forming g included), and
    kappa = _LIBM_ULPS eps bounds the relative error of each elementary
    function (absolute for cos and sin).  Write eta = kappa + u,
    y = power sigma log p, phi = power t log p and A = 1 / (1 - r), with
    r = p^(-power sigma) < 1.

    1. log p carries relative error kappa, so y and phi carry eta, r has
       relative error rho <= y eta + kappa, and cos and sin have absolute
       error <= |phi| eta + kappa (the phase error).
    2. U: |x^ - x| <= |x| (2 (y + |phi|) eta + 4 kappa + 6u).
       G: x = g r / (e^(-i phase) - r) with |e^(-i phase) - r| >= 1 - r,
       so the denominator's absolute error 2 (|phi| eta + kappa) + r rho + 2u
       is amplified by A = R / (R - 1), R = p^sigma:
       |x^ - x| <= |x| A (2 (y + |phi|) eta + 4 kappa + 9u).
    3. Moving x to x^ moves log(1 + x) by at most |x^ - x| L with
       L = 1 / min(1, |1 + x|); L <= (1 + r) / (1 - r) <= 2A for G and
       L <= A for U.  At x^ the real part loses 3u (2|x| + |x|^2) in its
       log1p argument, which is amplified by L^2 / 2 with 2 + |x| <= 2A,
       plus kappa |log|1 + x||, with |log|1 + x|| <= L |x|; the imaginary
       part loses u L |x| to rounding 1 + a and kappa |arg(1 + x)|, with
       |arg(1 + x)| <= pi L |x|.
    4. Summing, with A >= 1 and |x| <= |a| + |b|, every case has

           |computed log - log(1 + x_p)| <= (|a| + |b|) A^3 (c0 + c1 log p),
           c0 = 17 kappa + 32u,  c1 = 4 (sigma + |t|) eta,

       which each chunk sums with numpy's ``sum``; the chunk sums are
       added in chunk order.  A term whose r or x leaves the normal range
       errs by less than 2^-990 in absolute value; n such amounts are
       added.
       The term e_j log(1 - v_j) is U's log at g = -1, x = -v_j,
       a'_j + i b'_j = -v_j.  Every w_j has Re w_j >= power sigma, so
       r_j <= r, 1 / (1 - r_j) <= A, |1 - v_j| >= 1 - r_j and
       2 + r_j <= 2A.  By steps 2 and 3 its log errs by at most
       (|a'_j| + |b'_j|) A^3 ((5 + pi) kappa + 10u + c1_j log p), where
       c1_j log p covers the 2 (y_j + |phi_j|) eta of step 2 at
       y_j = Re w_j log p, phi_j = Im w_j log p.  For m a = 0, Re w_j =
       k sigma is exact with k <= 2 and |Im w_j| = k |t|, and c1 covers it
       (exactly at k = 2).  For m a != 0, Re w_j = k sigma + m a is rounded
       once, so y_j carries eta + u and r_j's relative error is at most
       y_j (eta + u) + kappa; c1_a = 2 (Re w_j + |Im w_j|) eta + 2 Re w_j u,
       its largest over those shifts, covers them.  Rounding e_j
       (u |e_j|) and the product e_j log (u in each part) add at most
       2u |e_j| (|Re log(1 - v_j)| + |arg(1 - v_j)|) <= 2u |e_j| (A r_j +
       pi r_j / 2).  The shift terms are summed in order and their sum is
       added to log(1 + x) once, so each passes through at most three
       additions (a row has at most three shifts), each rounding by u
       parts to which it adds at most |e_j| A r_j and |e_j| pi r_j / 2.
       With r_j <= |a'_j| + |b'_j|, all of it is at most
       5 (1 + pi / 2) u |e_j| A^3 (|a'_j| + |b'_j|), 12.9u, and with U's
       log 8.14 kappa + 22.9u, well inside c0.  That last addition also
       rounds log(1 + x)'s parts once more:
       u (|log|1 + x|| + |arg(1 + x)|) <= u (L + pi) |x| <=
       (2 + pi) u A^3 (|a| + |b|), with |arg(1 + x)| <= pi |x|, which fits
       in what c0 leaves over G's 16.28 kappa + 32u of steps 2 and 3,
       0.72 kappa = 5.76u.  The prime's bound is then
       (|a| + |b| + sum_(m a = 0) |e_j| (|a'_j| + |b'_j|)) A^3 (c0 + c1 log p)
       + sum_(m a != 0) |e_j| (|a'_j| + |b'_j|) A^3 (c0 + c1_a log p),
       and n more amounts of 2^-990 are added for each shift.  Each shift's
       e_j log zeta(w_j) joins the exact sums as two floats, and its error
       bound (``_deflation``) joins E.
    5. ``math.fsum`` of the pieces rounds each part's exact sum once: add
       u (|Re L| + |Im L|).
       The final exp of L (numpy's complex exp) has relative error
       e = 4 kappa + 2u, so with E the total log error,
       |prod - value| <= |value| (expm1(E) + e) / (1 - e).  Negating the
       value (the product of the shifts' signs) is exact.
    6. Second-order terms and the rounding of this bound's own evaluation
       stay below 2^-6 of it while every per-term bound is below 2^-12 of
       |x_p|; that holds unless A(2)^3 (c0 + c1' log P) > 2^-12, with c1'
       the larger of c1 and c1_a (sigma near 0, or (sigma + |t| + a) log P
       above about 6 10^10), where the allowance is infinite.  The bound's
       own rounding includes the chunk sums of
       step 4: numpy's ``sum`` of at most _BLOCK nonnegative terms (never
       BLAS, whose threads could change the bits) errs by less than
       2^15 u = 2^-38 relative, and _SLACK covers that too.
    """
    sigma, t = point.sigma, point.t
    n = primes.size
    c1 = 4.0 * (_KAPPA + _UNIT) * (sigma + abs(t))
    c1_a = max(
        (2.0 * (sh.w.sigma + abs(sh.w.t)) * (_KAPPA + _UNIT) + 2.0 * sh.w.sigma * _UNIT
         for sh in shifts if sh.shifted),
        default=None,
    )
    amp_max = 1.0 / -math.expm1(-power * sigma * math.log(2.0))

    def factor_r(lp: np.ndarray, exponent: float = power * sigma) -> np.ndarray:
        with np.errstate(over="ignore"):  # a product past -float max: r = exp(-inf) = 0
            return np.exp(-exponent * lp)

    # r falls with p, so only p = 2 can round to 1 (a deflated product may
    # have no prime: it is the powers of zeta alone)
    if n and not factor_r(log_p[:1])[0] < 1.0:
        raise DomainError(
            f"Euler product needs 2^(-{power}*sigma) < 1 in float64, got sigma={sigma}"
        )

    def phase_trig(lp: np.ndarray, w_t: float) -> tuple[np.ndarray, np.ndarray]:
        phase = (-w_t) * lp
        return np.cos(phase), np.sin(phase)

    def own_log(fp: np.ndarray, r: np.ndarray, amp: np.ndarray, cos, sin) -> tuple:
        """(Re, Im or None at real s, |a| + |b|) of each log(1 + x_p); its
        temporaries die on return, so a chunk holds few arrays at once."""
        g = _numerator(power, fp)
        if t == 0.0:
            a = g * r
            if power == 1:
                a *= amp
            return np.log1p(a), None, np.abs(a)
        if power == 1:
            dr = cos - r
            w = g * r / (dr * dr + sin * sin)
            a, b = w * dr, w * sin
        else:
            w = g * r
            a, b = w * cos, w * sin
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf is caught in the chunk
            re = np.log1p(a * (2.0 + a) + b * b)
        re *= 0.5
        return re, np.arctan2(b, 1.0 + a), np.abs(a) + np.abs(b)

    def shift_log(e: float, r: np.ndarray, cos, sin) -> tuple:
        """(Re, Im or None, |e| (|a'| + |b'|)) of each e log(1 - v), from a' + i b' = -v."""
        if t == 0.0:
            return e * np.log1p(-r), None, abs(e) * r
        a, b = -(r * cos), -(r * sin)
        re = (0.5 * e) * np.log1p(a * (2.0 + a) + b * b)
        return re, e * np.arctan2(b, 1.0 + a), abs(e) * (np.abs(a) + np.abs(b))

    def chunk(item: tuple[int, slice | np.ndarray]) -> tuple[list[float], list[float], float]:
        # may run on a pool thread, so it calls private helpers only:
        # multlab's public functions may be wrapped by callers that expect
        # to run on one thread
        lo, at = item
        lp = log_p[at]
        r = factor_r(lp)
        amp = 1.0 / (1.0 - r)
        # r and the phase's cos and sin by Re w and Im w, each formed once
        rs = {power * sigma: r}
        trigs = {} if t == 0.0 else {power * t: phase_trig(lp, power * t)}
        re, im, mag = own_log(_f_values(spec, primes[at]), r, amp, *trigs.get(power * t, (None, None)))
        if not re.min() >= _LOG_DEGENERATE:
            raise DomainError("degenerate Euler factor encountered")
        mag_a = 0.0
        if shifts:  # plus sum_j e_j log(1 - v_j), term by term
            sum_re = sum_im = None
            for sh in shifts:
                if sh.w.sigma not in rs:
                    rs[sh.w.sigma] = factor_r(lp, sh.w.sigma)
                if t != 0.0 and sh.w.t not in trigs:
                    trigs[sh.w.t] = phase_trig(lp, sh.w.t)
                term_re, term_im, size = shift_log(
                    sh.e, rs[sh.w.sigma], *trigs.get(sh.w.t, (None, None))
                )
                sum_re = term_re if sum_re is None else sum_re + term_re
                if t != 0.0:
                    sum_im = term_im if sum_im is None else sum_im + term_im
                if sh.shifted:
                    mag_a = mag_a + size
                else:
                    mag += size
            re += sum_re
            if t != 0.0:
                im += sum_im
        log_re, log_im = _ExactSum(), _ExactSum()
        log_re.add(re)
        if t != 0.0:
            log_im.add(im)
        cube = amp * amp * amp
        bound = mag * cube
        bound *= _TERM_CONST + c1 * lp
        if c1_a is not None:
            bound += mag_a * cube * (_TERM_CONST + c1_a * lp)
        if not isinstance(at, slice):  # the full walk's pairwise order
            full = np.zeros(min(_BLOCK, n - lo))
            full[at - lo] = bound
            bound = full
        return log_re.pieces, log_im.pieces, float(bound.sum())

    if visited is None:
        chunks = [(lo, slice(lo, lo + _BLOCK)) for lo in range(0, n, _BLOCK)]
    else:
        groups: dict[int, list[int]] = {}
        for pos in visited.tolist():
            groups.setdefault(pos - pos % _BLOCK, []).append(pos)
        chunks = [(lo, np.array(at, dtype=np.intp)) for lo, at in groups.items()]
    total_re, total_im = _ExactSum(), _ExactSum()
    log_err = (1 + len(shifts)) * n * _UNDERFLOW
    # a real-s chunk (about 0.7 ms) is too cheap for the pool: two workers
    # spend what they gain in handing the GIL back and forth; so are the
    # few primes of a visited chunk
    workers = min(_cpus(), len(chunks)) if t != 0.0 and visited is None else 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(chunk, chunks))
    else:
        parts = map(chunk, chunks)
    for re_pieces, im_pieces, err in parts:
        total_re.pieces += re_pieces
        total_im.pieces += im_pieces
        log_err += err
    sign = 1.0
    for sh in shifts:
        total_re.pieces.append(sh.log.real)
        total_im.pieces.append(sh.log.imag)
        log_err += sh.err
        sign *= sh.sign
    log_re, log_im = total_re.value(), total_im.value()
    if log_re > _LOG_FLOAT_MAX:
        raise DomainError(
            f"Euler product overflows float64 at sigma={sigma} "
            f"(log |value| = {log_re:.6g})"
        )
    value = complex(np.exp(complex(log_re, log_im)))
    if sign < 0.0:
        value = -value
    c1_max = c1 if c1_a is None else max(c1, c1_a)
    if n and amp_max ** 3 * (_TERM_CONST + c1_max * float(log_p[-1])) > _FIRST_ORDER_MAX:
        return value, math.inf
    log_err += _UNIT * (abs(log_re) + abs(log_im))
    rounding = abs(value) * (math.expm1(log_err) + _EXP_REL) / (1.0 - _EXP_REL)
    return value, _SLACK * rounding


def _prime_tail(P: int, coef: float, exponent: float, kappa: float, terms) -> float:
    """Bound on |log prod_{p>P} (1 + x_p)|, the one prime-tail rule.

    Every prime p > P has |x_p| <= kappa coef p^(-exponent), except the
    exception primes, whose |x_p| bounds are ``terms``.  A bound on
    |log(1 + x_p)| itself (a deflated remainder's, see ``_euler_product``)
    may stand in for |x_p|: the result then only errs high.  Bounding the sum
    over primes by the integral over all integers, sum_{p>P} |x_p| <=
    kappa coef P^(1-exponent) / (exponent - 1) + sum(terms) (P read as 1
    when 0), which needs exponent > 1 unless coef = 0.  With zmax the
    largest |x_p| bound, |log(1 + z)| <= |z| / (1 - zmax) for |z| <= zmax
    turns it into a log bound while zmax < 1/2; otherwise it is inf.
    """
    Pe = max(P, 1)
    total = zmax = 0.0
    if coef != 0.0:
        if not exponent > 1.0:
            return math.inf
        total = kappa * (coef * Pe ** (1.0 - exponent) / (exponent - 1.0))
        zmax = coef * kappa * (Pe + 1.0) ** (-exponent)
    for z in terms:
        zmax = max(zmax, z)
        total += z
    return total / (1.0 - zmax) if zmax < 0.5 else math.inf


def _omitted_tail(bound, Q: int, sigma: float, omitted) -> tuple:
    """``_prime_tail``'s (coef, exponent, kappa, terms) past Q for a
    remainder whose shifts ``omitted`` (rows of ``_shift_rows``) were not
    divided out, from ``bound``, those of the remainder with every shift.

    Each omitted shift (e, w) puts e log(1 - p^-w) back into every prime's
    log, at most |e| p^(-x) / (1 - p^(-x)), x = Re w, at exception primes
    too.  With low the smallest such x (the first one's, as the rows
    ascend), p^(-y) <= p^(-low) (Q + 1)^(low - y) for p > Q and y >= low, so
    every prime past Q has a log term of at most coef' p^(-low), coef' =
    coef kappa (Q + 1)^(low - exponent) + sum |e| (Q + 1)^(low - x) /
    (1 - (Q + 1)^(-x)); the exception terms keep their own bounds, and
    ``_prime_tail`` sums coef' over every integer past Q, exceptions
    included.  coef' falls as Q grows.  No omitted shift: ``bound`` itself.
    """
    if not omitted:
        return bound
    coef, exponent, kappa, terms = bound
    q1 = max(Q, 1) + 1.0
    exps = [k * sigma + ma for _, k, ma, _ in omitted]
    low = min(exps)
    def drop(y: float) -> float:  # (Q + 1)^(low - y), 1 at y = low (inf included)
        return q1 ** (low - y) if y > low else 1.0

    lead = coef * kappa * drop(exponent) if coef != 0.0 else 0.0
    for (e, *_), x in zip(omitted, exps):
        lead += abs(e) * drop(x) / -math.expm1(-x * math.log(q1))
    return lead, low, 1.0, terms


def _first_true(n: int, start: int, holds) -> int:
    """The first k < n with ``holds(k)``, or n where none holds, for a
    predicate that never turns from True back to False as k grows.

    The search starts at ``start`` (clipped to [0, n - 1]), gallops outward
    in doubling steps until the answer is bracketed and bisects the
    bracket: the index ``bisect.bisect_left(range(n), True, key=holds)``
    gives, after at most 2 ceil(log2 n) + 1 calls of ``holds``, and after
    2 to 4 where ``start`` lies within a step or two of the answer.
    """
    k = min(max(start, 0), n - 1)
    step = 1
    if holds(k):  # the answer lies in (lo, k]
        lo = k - 1
        while lo >= 0 and holds(lo):
            k, lo, step = lo, lo - 2 * step, 2 * step
        lo, hi = max(lo, -1), k
    else:  # the answer lies in (k, hi]
        hi = k + 1
        while hi < n and not holds(hi):
            k, hi, step = hi, hi + 2 * step, 2 * step
        lo, hi = k, min(hi, n)
    return bisect.bisect_left(range(lo + 1, hi), True, key=holds) + lo + 1


def _euler_product(spec, s, P: int, sieve: FactorSieve, power: int, tail) -> SeriesEval:
    """prod_j zeta(w_j)^(e_j) prod_{p<=Q} (1 + x_p) prod_j (1 - p^(-w_j))^(e_j)
    of G (power 1) or U (power 2; see ``_log1p_product``).

    The shifts (e_j, w_j) come from ``_deflation``: the longest prefix of
    G's or U's row of ``_shift_rows`` whose log zeta is proven at s.  With
    none, this is the plain walk prod_{p<=Q} (1 + x_p), bit for bit.  With
    every shift of the row the remainder R's log terms at every prime that
    is no exception are O(p^(-3 sigma)) (G, flat base), O(p^(-4 sigma))
    (U, flat), O(p^(-(3 sigma + a))) (G, power decay) or
    O(p^(-(4 sigma + a))) (U, power decay), so its tail converges at a
    much larger exponent and the walk stops much earlier; with a shorter
    prefix the tail has the exponent of the first shift left out
    (``_omitted_tail``).
    ``tail(Q, sigma, deflated)`` gives (coef, exponent, kappa, terms) of
    ``_prime_tail`` for the primes past Q, of the plain product or of R
    with every shift; the omitted factors then move the product by at most
    |value| expm1(log tail).  P caps the walk: Q is the first prime <= P
    whose log tail is at most _UNIT = 2^-53, since the tail does not
    increase with Q; where the tail at P is larger (or infinite), Q = P
    and every prime <= P is walked.  Q is searched for from Q*, where the
    leading tail term alone (with P's kappa) reaches 2^-53, by galloping
    outward and bisecting the bracket (``_first_true``): about 4 tail
    evaluations where Q* is close, at most 2 ceil(log2 pi(P)) + 3 in all.
    Where coef = 0 it is sought among 2 and the exception primes <= P, the
    only primes at which the tail (then a sum over the exceptions past Q)
    can fall.  Both give the first prime whose tail is at most 2^-53, as a
    bisection over every prime would.  The stop costs at
    most |value| expm1(2^-53) of bound, under 1/30 of the smallest
    rounding allowance |value| _EXP_REL = 34u |value|, and the enclosure
    is rigorous for any Q.  A prime <= Q whose term is zero by the spec's
    base value b is skipped (``multfunc._visited``): the plain walk's term
    at f = b is g_p (``_numerator``), and R's vanishes exactly where its
    every coefficient does: for G with every shift at b in {-1, 0, 1}
    (its coefficients are (b^k - b) / k for odd k and (b^2 - b^k) / k for
    even k, from k = 3 on), for G with (1 + b, s) alone where
    -b (1 + b) / 2, that of p^(-2s), is 0, and for U at b^2 in {0, 1}
    (coefficients (b^2 - b^(2k)) / k).  So for Liouville with finite
    exceptions G is the finite product over its exception primes and U is
    1/zeta(2s) times theirs, while the constant 0 base has U the exception
    factors and G zeta(s) times theirs, and the constant 1 base has G
    zeta(s)^2 / zeta(2s) times theirs.  The bound is
    rigorous while it and the rounding allowance are finite; otherwise (no
    tail bound, or an overflowing expm1 near the edge of convergence) the
    value is flagged heuristic.  Raises DomainError for sigma <= 0, and
    PoleError where the deflated G has its pole at s = 1.
    """
    point = ComplexArgument.of(s)
    if point.sigma <= 0:
        raise DomainError(f"Euler product needs Re(s) > 0, got sigma={point.sigma}")
    shifts = _deflation(power, spec, point)
    omitted = _shift_rows(power, spec)[len(shifts):] if shifts else ()

    def tail_at(Q: int) -> tuple:
        return _omitted_tail(tail(Q, point.sigma, bool(shifts)), Q, point.sigma, omitted)

    def tail_past(Q: int) -> float:
        return _prime_tail(Q, *tail_at(Q))

    def term(f):  # zero exactly where the walk's term at f(p) = f is
        if not shifts:
            return _numerator(power, f)
        if power == 2:
            return f * f * (1.0 - f * f)
        return f * (1.0 + f) * (1.0 if omitted else 1.0 - f)

    primes = primes_up_to(P, sieve)
    at_P = tail_at(P)
    log_tail = _prime_tail(P, *at_P)
    if log_tail <= _UNIT and primes.size:  # the first prime whose tail is as small ends the walk
        coef, exponent, kappa, _ = at_P
        if coef == 0.0:
            last = int(primes[-1])
            exceptions = [q for q, _ in spec.exceptions if q <= last]
            keys = [0, *np.searchsorted(primes, exceptions).tolist()]
            stop = next((k for k in keys if tail_past(int(primes[k])) <= _UNIT), primes.size)
        else:
            # Q*, where the leading term kappa coef Q^(1 - exponent) /
            # (exponent - 1) with P's kappa reaches 2^-53, in logs so that
            # nothing overflows; Q* <= P, as that term is at most 2^-53 at
            # P, and an infinite exponent (a NaN log_q) starts at 2
            rate = exponent - 1.0
            log_q = math.log(kappa) + math.log(coef) - math.log(rate) - math.log(_UNIT)
            log_q = min(math.log(P), max(0.0, log_q / rate))
            start = int(np.searchsorted(primes, int(math.exp(log_q))))  # an int key: no cast
            stop = _first_true(
                primes.size, start, lambda k: tail_past(int(primes[k])) <= _UNIT
            )
        if stop < primes.size:
            primes = primes[: stop + 1]
            log_tail = tail_past(int(primes[-1]))
    value, rounding = 1.0 + 0.0j, 0.0
    if primes.size or shifts:
        log_p = sieve.log_primes[: primes.size]
        visited = _visited(primes, term, spec)
        value, rounding = _log1p_product(spec, primes, log_p, point, power, visited, shifts)
    bound = math.inf
    if log_tail <= _LOG_FLOAT_MAX:
        bound = abs(value) * math.expm1(log_tail) + rounding
    heuristic = not bound < math.inf
    return SeriesEval(
        value, primes.size, math.inf if heuristic else bound, heuristic, METHOD_EULER_PRODUCT
    )


def euler_product_G(
    spec: PrimeFunctionSpec, s, P: int, sieve: FactorSieve
) -> SeriesEval:
    """prod_{p<=Q} (p^s + f(p)) / (p^s - 1), Q <= P, summed as log(1 + x_p).

    Each factor equals 1 + x_p with x_p = (1 + f(p))/(p^s - 1); the logs
    are summed in real arithmetic with a per-term rounding allowance (see
    ``_log1p_product``), so at real s the value's imaginary part is exactly
    0.0.  P caps the walk, which stops where the tail is below 2^-53 (see
    ``_euler_product``).  For sigma > 1/2 the product is deflated
    (``_deflation``): for a flat base value b != -1 it is
    zeta(s)^(1 + b) zeta(2s)^(-b (1 + b) / 2) R_G, and for power decay
    with 1 + f(p) = c p^(-a), 0 < c <= 2^(1 + a), it is
    zeta(s + a)^c zeta(2s + a)^c zeta(2s + 2a)^(-c (1 + c) / 2) R_G; a
    non-integer power is taken only at real w > 1 or Re w >= 1.045, and a
    power at s + a only for Re(s + a) > 1.  R_G's tail has exponent
    3 sigma or 3 sigma + a (or that of the first power left out); for
    sigma <= 1 (an integer 1 + b) the value is zeta's continuation times
    R_G, and s = 1 raises PoleError.
    Otherwise the tail is controlled by how fast 1 + f(p) dies:
    identically for a base value of -1 (tail exactly 0, and only the
    exception primes <= Q are visited), like p^(-a) for power decay,
    and for a constant base left undeflated not at all (rigorous only for
    sigma > 1 there).

    R_G's tail (log terms past Q, v = p^-s, r = p^-sigma, Q1 = Q + 1).
    Flat b: R_G's log at f = b is sum_{k>=3} c_k v^k with
    c_k = (b^k - b) / k for odd k and (b^2 - b^k) / k for even k; for
    b >= 0, |c_k| <= b min(1/k, (1 - b) (k - 1) / k) (from
    1 - b^j <= j (1 - b)), and for b < 0, |c_k| <= |b| / k, so every
    |c_k| <= M = |b| min(1/3, 1 - b), 0 at b = 0 and 1, and the log is
    at most M r^3 / (1 - r).  At an exception v_e, R_G's log is
    log(1 + v_e v) + b log(1 - v) - b (1 + b) / 2 log(1 - v^2):
    (v_e - b) v plus at most (v_e^2 + |b| (2 + b)) r^2 / (2 (1 - r)).
    Power decay, q = p^-a, z = c q v / (1 - v): R_G's log is
    log(1 + z) + c log(1 - q v) + c log(1 - q v^2) - c (1 + c) / 2
    log(1 - q^2 v^2), whose terms in v and v^2 cancel; with
    log(1 + z) = z - z^2 / 2 + T, |T| <= |z|^3 / (3 (1 - |z|)),
    v / (1 - v) = v + v^2 + v^3 / (1 - v) and
    1 / (1 - v)^2 = 1 + v (2 - v) / (1 - v)^2, what is left is
    T + c q v^3 / (1 - v) - c^2 q^2 v^3 (2 - v) / (2 (1 - v)^2)
    - c sum_{m>=3} (q v)^m / m - c sum_{m>=2} (q v^2)^m / m
    + c (1 + c) / 2 sum_{m>=2} (q^2 v^2)^m / m, at most
    c q r^3 K with K = 1/(1 - r) + c q (2 + r) / (2 (1 - r)^2)
    + c^2 q^2 / (3 (1 - r)^3 (1 - Z)) + q^2 / (3 (1 - r)) + q r / (2 (1 - r))
    + (1 + c) q^3 r / (4 (1 - r)), Z = c q r / (1 - r) < 1, which falls
    with p: coef c, exponent 3 sigma + a, kappa K at Q1.  At an exception
    v_e: (v_e - f_b) v, f_b = -1 + c q, plus at most
    ((1 + v_e^2) / 2 + c q + c (2 + c) q^2 / 2) r^2 / (1 - r), the five
    logs' terms past their first bounded one by one.
    """
    # |x_p| <= kappa |1 + f(p)| p^(-sigma) for p > Q, with |1 + f(p)| <=
    # coef p^(-extra) under the base rule; an exception prime past Q brings
    # its own |x_p|
    coef, extra = _one_plus_f_decay(spec)
    b = _base_value(spec)

    def tail(Q: int, sigma: float, deflated: bool):
        q1 = max(Q, 1) + 1.0
        r1 = q1 ** (-sigma)
        kappa = 1.0 / (1.0 - r1) if r1 < 1.0 else math.inf  # no bound at tiny sigma
        terms = []
        for p, v in spec.exceptions:
            if p > Q:
                x = -sigma * math.log(p)  # r = p^-sigma and 1 - r, r = 0 on underflow
                r, den = math.exp(x), -math.expm1(x)
                if not deflated:  # |1 + v| / (p^sigma - 1)
                    terms.append(abs(1.0 + v) * r / den)
                elif b is not None:
                    terms.append(abs(v - b) * r + 0.5 * (v * v + abs(b) * (2.0 + b)) * r * r / den)
                else:  # v - f_b = (1 + v) - c q
                    q = p ** -extra
                    rest = 0.5 * (1.0 + v * v) + coef * q * (1.0 + 0.5 * (2.0 + coef) * q)
                    terms.append(abs((1.0 + v) - coef * q) * r + rest * r * r / den)
        if not deflated:
            return coef, sigma + extra, kappa, terms
        if b is not None:
            return abs(b) * min(1.0 / 3.0, 1.0 - b), 3.0 * sigma, kappa, terms
        q, c = q1 ** (-extra), coef
        z = c * q * r1 * kappa
        if z < 1.0:
            kappa = (
                kappa
                + c * q * (2.0 + r1) * 0.5 * kappa * kappa
                + c * c * q * q * kappa ** 3 / (3.0 * (1.0 - z))
                + q * q * kappa / 3.0
                + q * r1 * 0.5 * kappa
                + (1.0 + c) * q ** 3 * r1 * 0.25 * kappa
            )
        else:
            kappa = math.inf
        return c, 3.0 * sigma + extra, kappa, terms

    return _euler_product(spec, s, P, sieve, 1, tail)


def euler_product_U(
    spec: PrimeFunctionSpec, s, P: int, sieve: FactorSieve
) -> SeriesEval:
    """prod_{p<=Q} (1 - f(p)^2 p^(-2s)), Q <= P; absolutely convergent for sigma > 1/2.

    Each factor is 1 + x_p with x_p = -f(p)^2 p^(-2s), summed as
    log(1 + x_p) like G (see ``_log1p_product``).  Evaluated only for
    sigma > 0 (DomainError otherwise): at sigma <= 0 a factor can turn
    negative and has no logarithm.  For sigma > 1/2 the product is
    deflated (``_deflation``): for a flat base value b != 0 it is
    zeta(2s)^(-b^2) R_U (not for a non-integer b^2 at complex s with
    sigma < 0.5225), and for power decay with 1 + f(p) = c p^(-a),
    0 < c <= 2^(1 + a), it is zeta(2s)^(-1) zeta(2s + a)^(2c)
    zeta(2s + 2a)^(-c^2) R_U (the last two only where 2 sigma + a > 1 and,
    for a non-integer 2c or c^2, at real s or 2 sigma + a >= 1.045).  R_U's
    tail has exponent 4 sigma or 4 sigma + a (or that of the first power
    left out); for the Liouville family its coefficient is 0 and U is
    1/zeta(2s) times the exception factors.  Otherwise the tail has
    exponent 2 sigma.

    R_U's tail (log terms past Q, V = p^(-2s), rho = p^(-2 sigma),
    Q1 = Q + 1).  Flat b: R_U's log at f = b is
    sum_{k>=2} (b^2 - b^(2k)) V^k / k, with 0 <= b^2 - b^(2k) <=
    min((k - 1) b^2 (1 - b^2), b^2), so at most
    b^2 min(1 - b^2, 1/2) rho^2 / (1 - rho); at an exception v_e,
    (b^2 - v_e^2) V plus coefficients (v_e^(2k) + b^2) / k <= (v_e^4 + b^2) / 2.
    Power decay, q = p^-a, f^2 = (1 - c q)^2 in [0, 1] (c q <= 2): R_U's
    log is sum_{m>=2} d_m V^m / m, d_m = 1 - f^(2m) - 2 c q^m + c^2 q^(2m);
    0 <= 1 - f^(2m) <= m (1 - f^2) = m c q (2 - c q) <= 2 m c q, so
    |d_m| / m <= c q (2 + q + c q^3 / 2) for m >= 2 and the log is at most
    2c p^(-(4 sigma + a)) (1 + q / 2 + c q^3 / 4) / (1 - rho): coef 2c,
    exponent 4 sigma + a, kappa that factor at Q1.  At an exception v_e,
    the first coefficient is f_b^2 - v_e^2, f_b = -1 + c q, and every
    later d_m lies in [-1, 1] (1 - v_e^(2m) in [0, 1], and
    (c q^m - 1)^2 - 1 in [-1, 0]), so (f_b^2 - v_e^2) V plus at most
    rho^2 / (2 (1 - rho)).
    """
    b = _base_value(spec)
    c, a = _one_plus_f_decay(spec)

    def tail(Q: int, sigma: float, deflated: bool):
        if not deflated:  # |x_p| <= p^(-2 sigma) for every prime, exceptions included
            return 1.0, 2.0 * sigma, 1.0, ()
        # 1 - b^2 and |b^2 - v^2| are formed without cancellation
        q1 = max(Q, 1) + 1.0
        kappa = 1.0 / (1.0 - q1 ** (-2.0 * sigma))
        terms = []
        for p, v in spec.exceptions:
            if p > Q:
                x = -2.0 * sigma * math.log(p)  # rho = p^(-2 sigma) and 1 - rho
                rho, den = math.exp(x), -math.expm1(x)
                mv = abs(v)
                if b is not None:
                    mb = abs(b)
                    first = abs(mb - mv) * (mb + mv)
                    terms.append(first * rho + 0.5 * (mv ** 4 + b * b) * rho * rho / den)
                else:
                    mf = abs(1.0 - c * p ** -a)
                    first = abs(mf - mv) * (mf + mv)
                    terms.append(first * rho + 0.5 * rho * rho / den)
        if b is not None:
            mb = abs(b)
            return b * b * min((1.0 - mb) * (1.0 + mb), 0.5), 4.0 * sigma, kappa, terms
        q = q1 ** (-a)
        return 2.0 * c, 4.0 * sigma + a, kappa * (1.0 + 0.5 * q + 0.25 * c * q ** 3), terms

    return _euler_product(spec, s, P, sieve, 2, tail)


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


#: each identity as (left side, right side), both products of one or two
#: series, listed in evaluation order; the residual is |left - right|.
#: 1/zeta = F_mu2 / G is checked multiplied out, |F_mu2 zeta - G|, so no
#: small product is divided by.
_IDENTITY_SIDES = {
    IdentityKind.H_EQ_ZETA_F: ((DerivedFunctionKind.H_CONV,), ("zeta", DerivedFunctionKind.F_PLAIN)),
    IdentityKind.FMU2_EQ_F_U: ((DerivedFunctionKind.F_MU2,), (DerivedFunctionKind.F_PLAIN, "U")),
    IdentityKind.RECIP_ZETA_EQ_FMU2_OVER_G: ((DerivedFunctionKind.F_MU2, "zeta"), ("G",)),
    IdentityKind.G_PRODUCT_VS_SUM: (("G",), (DerivedFunctionKind.G_CONV,)),
}


def _side(evals: list[SeriesEval]) -> tuple[complex, float]:
    """Value of a product of one or two series, with its first-order budget."""
    if len(evals) == 1:
        return evals[0].value, evals[0].tail_bound
    a, b = evals
    budget = (
        abs(a.value) * b.tail_bound
        + abs(b.value) * a.tail_bound
        + a.tail_bound * b.tail_bound
    )
    return a.value * b.value, budget


def _series_table(
    spec: PrimeFunctionSpec,
    N: int,
    P: int | None,
    sieve: FactorSieve,
    keys,
    zeta_tol: float = 1e-14,
) -> dict:
    """Every series that ``keys`` names at fixed (spec, N, P, sieve, zeta_tol), each made once.

    A key (name, s) names the sum at N of the stream ``name`` (a
    DerivedFunctionKind), or "zeta", or the Euler product "G" or "U" with
    cap P.  The table maps each key, s as a ComplexArgument, to its
    SeriesEval or to its ``_NO_VALUE`` failure, which ``_read`` raises
    again; any other error (a bad argument) propagates.  One pass builds
    each kind the keys name, block by block, as ``multfunc._coefficients``
    gives it (exact integers for a spec with every f(p) in {-1, 0, 1}),
    and feeds every slice of _BLOCK n to the sums of each point
    (``_DirichletSums``); a point that leaves float64 fails for all its
    kinds, and the pass ends once every point has failed.  At sigma > 1 a
    sum's budget is its tail bound plus 4 eps times its allowance sum, a
    float upper bound on sum |a(n)| n^(-sigma) within (1 + N eps)^2 of it.
    """
    keys = dict.fromkeys((name, ComplexArgument.of(s)) for name, s in keys)
    table: dict[tuple, SeriesEval | Exception] = {}
    wanted: dict[ComplexArgument, set[DerivedFunctionKind]] = {}
    for name, point in keys:
        if isinstance(name, DerivedFunctionKind):
            wanted.setdefault(point, set()).add(name)
    if wanted:
        kinds = tuple(k for k in DerivedFunctionKind if any(k in ks for ks in wanted.values()))
        # each point's kinds, as positions in ``kinds``
        slots = {point: [i for i, k in enumerate(kinds) if k in ks] for point, ks in wanted.items()}
        _, stream = _coefficients(spec, kinds, N, sieve)
        buf = np.empty((2, min(N, _BLOCK)))
        live = {point: _DirichletSums(point, len(ks), buf) for point, ks in slots.items()}
        failed: dict[ComplexArgument, Exception] = {}
        for lo, blocks in stream:
            for point in list(live):
                try:
                    live[point].feed(lo, [blocks[i] for i in slots[point]])
                except DomainError as exc:
                    failed[point] = exc
                    del live[point]
            if not live:  # every point failed: no later block is built
                break
        for point, sums in live.items():
            try:
                results = sums.results(N)
            except DomainError as exc:
                failed[point] = exc
                continue
            for i, (value, abs_sum) in zip(slots[point], results):
                kind = kinds[i]
                ev = SeriesEval(value, N, math.inf, True, METHOD_DIRECT_SUM)
                if point.sigma > 1.0:
                    divisor = kind in (DerivedFunctionKind.H_CONV, DerivedFunctionKind.G_CONV)
                    tail = (_divisor_tail if divisor else _power_tail)(N, point.sigma)
                    ev = SeriesEval(value, N, tail + 4.0 * _EPS * abs_sum, False, ev.method)
                table[(kind, point)] = ev
        for point, exc in failed.items():
            for i in slots[point]:
                table[(kinds[i], point)] = exc.with_traceback(None)
    for name, point in keys:
        if isinstance(name, str):
            product = euler_product_G if name == "G" else euler_product_U
            try:
                table[(name, point)] = (
                    zeta(point, zeta_tol) if name == "zeta" else product(spec, point, P, sieve)
                )
            except _NO_VALUE as exc:
                table[(name, point)] = exc.with_traceback(None)
    return table


def _read(table: dict, name, s) -> SeriesEval:
    """(name, s)'s value in a ``_series_table``, or its failure raised again (KeyError if absent)."""
    ev = table[(name, ComplexArgument.of(s))]
    if isinstance(ev, Exception):
        raise ev.with_traceback(None)
    return ev


def _identity_keys(s, identities=IdentityKind) -> list:
    """The table keys the residuals of ``identities`` at s read: all four stream
    sums (one pass makes them together), then each zeta, G or U in side order."""
    names = dict.fromkeys(DerivedFunctionKind)
    names.update((name, None) for i in identities for side in _IDENTITY_SIDES[i] for name in side)
    return [(name, ComplexArgument.of(s)) for name in names]


def _residual(table: dict, identity: IdentityKind, s) -> IdentityResidual:
    """|LHS - RHS| of one identity at s, read from a ``_series_table`` (see identity_residual)."""
    point = ComplexArgument.of(s)
    sides = [[_read(table, name, point) for name in side] for side in _IDENTITY_SIDES[identity]]
    (left, left_budget), (right, right_budget) = map(_side, sides)
    return IdentityResidual(
        identity=identity,
        point=point,
        residual=float(abs(left - right)),
        budget=float(left_budget + right_budget),
        heuristic=any(ev.heuristic for evals in sides for ev in evals),
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
    genuine bug (or a heuristic evaluation, which is flagged).  Like
    ``run_verify`` it sums all four streams at s in one pass; it evaluates
    only the zeta, G or U that this identity reads.
    """
    table = _series_table(spec, N, P, sieve, _identity_keys(s, [identity]), zeta_tol)
    return _residual(table, identity, s)
