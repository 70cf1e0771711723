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
complex s, products with several chunks run them on the sieve's thread
pool (``_ordered_map``); each chunk hands back exact pieces of its log sums
and its share of the allowance, joined in chunk order, so G and U do not
depend on the number of threads.  Both are one evaluator,
``_euler_product``, with one rule for the primes past P, ``_prime_tail``.

zeta itself is evaluated through the alternating (eta) series accelerated
with Chebyshev-polynomial averaging coefficients: valid for Re(s) > 0,
geometric convergence at rate 1/(3+sqrt(8)) per term, with an explicit
truncation constant for Re(s) >= 1/2 (heuristic flag below that line).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .multfunc import (
    BASE_CONSTANT,
    BASE_LIOUVILLE,
    DerivedFunctionKind,
    PrimeFunctionSpec,
    _f_values,
    coefficient_stream,
)
from .sieve import FactorSieve, _ordered_map, primes_up_to
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


#: the failures that mean "no value at this point": the series store
#: memoises exactly these, and verify and the ``series`` command catch them
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


def _dirichlet_sums(coeffs, length: int, point: ComplexArgument) -> list[tuple[complex, float]]:
    """(sum c(n) n^(-s), allowance sum) over n <= ``length`` for each c.

    Each array in ``coeffs`` holds c(1), c(2), ... .  One pass over slices
    of _BLOCK n forms n^(-sigma) and, at complex s, cos and sin of -t log n
    once per slice for every array, and feeds the real and imaginary terms
    to their own ``_ExactSum``: each part of the value is its exact sum
    rounded once, bit for bit ``math.fsum`` of the whole-length terms, with
    no whole-length array.  At real s the imaginary part is exactly 0.0.

    The allowance sum is an upper bound on S, the exact sum of the computed
    |c(n) n^(-sigma)|, so it is summed in float: each slice with numpy's
    ``sum`` (never BLAS, whose threads could change the bits), the slice
    sums in order into one float T, and then R = T (1 + N eps), with
    N = ``length`` and eps = 2^-52 (exact as a float for N < 2^52).
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
    overflows from sigma of about -308 / log10 length): at the first slice
    whose |c(n)| n^(-sigma) hold an inf or NaN, which no sum could survive,
    or whose allowance sum so far overflows, and when R overflows.  No
    value can overflow while R is finite, since S bounds its parts.
    """
    message = f"Dirichlet sum leaves float64 at sigma={point.sigma}"
    buf = np.empty((2, min(length, _BLOCK)))  # scratch of every sum: each is fed in turn
    sums = [(_ExactSum(buf), _ExactSum(buf)) for _ in coeffs]  # re, im
    sizes = [0.0] * len(coeffs)

    def feed(lo: int, hi: int) -> None:  # its arrays die with each slice
        n = np.arange(lo + 1, hi + 1, dtype=np.float64)
        weights = n ** (-point.sigma)
        if point.t != 0.0:  # n turns into the phase -t log n, then its sine
            np.log(n, out=n)
            n *= -point.t
            cos, sin = np.cos(n), np.sin(n, out=n)
        for i, (c, (re, im)) in enumerate(zip(coeffs, sums)):
            mod = c[lo:hi] * weights
            sizes[i] += float(np.abs(mod).sum())
            if not math.isfinite(sizes[i]):
                raise DomainError(message)
            if point.t == 0.0:
                re.add(mod)
            else:
                re.add(mod * cos)
                im.add(mod * sin)

    with np.errstate(over="ignore", invalid="ignore"):  # the sums are checked
        for lo in range(0, length if coeffs else 0, _BLOCK):  # no arrays, no pass
            feed(lo, min(lo + _BLOCK, length))
    factor = 1.0 + length * _EPS
    bounds = [size * factor for size in sizes]
    if not all(math.isfinite(bound) for bound in bounds):
        raise DomainError(message)
    return [(complex(re.value(), im.value()), bound) for (re, im), bound in zip(sums, bounds)]


# ---------------------------------------------------------------------------
# Riemann zeta via the accelerated alternating series
# ---------------------------------------------------------------------------

_ZETA_MAX_DEPTH = 256
_ACCEL_RATE = 3.0 + math.sqrt(8.0)


@functools.lru_cache(maxsize=64)
def _accel_coefficients(n: int) -> tuple[float, ...]:
    """(-1)^k e_k, k < n, with e_k = (d_k - d_n) / d_n for the depth-n
    Chebyshev averaging scheme: the coefficient of (k + 1)^(-s) in the
    accelerated eta sum, up to its overall sign.

    Computed exactly in integers and reduced with Fraction, so each float
    is correctly rounded; every e_k lies in (-1, 0).
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
    return tuple(float(Fraction((-1) ** k * (dk - dn), dn)) for k, dk in enumerate(d[:n]))


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

    [(eta_sum, abs_sum)] = _dirichlet_sums([np.asarray(_accel_coefficients(n))], n, point)
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

    Where 2^(sigma-1) (1 + ln N) overflows float64 (sigma above about
    1019), the bound at sigma = 1000 is scaled by (N+1)^(1000-sigma): every
    n > N has n^(-sigma) <= (N+1)^(1000-sigma) n^(-1000).
    """
    if sigma - 1.0 < 1024.0:  # 2.0 ** 1024 raises
        lead = 2.0 ** (sigma - 1.0) * (1.0 + math.log(N))
        if lead < math.inf:
            return N ** (1.0 - sigma) * (lead + _zeta_real(sigma)) / (sigma - 1.0)
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
    # P is never read: only the sum at N is evaluated
    return _SeriesStore(spec, N, N, sieve).get(kind, s)


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


def _log1p_product(
    spec: PrimeFunctionSpec,
    primes: np.ndarray,
    log_p: np.ndarray,
    point: ComplexArgument,
    power: int,
) -> tuple[complex, float]:
    """(prod_p (1 + x_p), rounding allowance), summed as log(1 + x_p).

    With v_p = p^(-power s), x_p = g_p v_p / (1 - v_p) for G (power 1,
    g = 1 + f(p)) and x_p = g_p v_p for U (power 2, g = -f(p)^2), where
    f(p) are the float values of ``spec`` at ``primes`` and ``log_p`` holds
    log p.  Each chunk of _BLOCK primes is one pass: it forms f(p),
    r = exp(-power sigma log p) and phase = -power t log p, so
    v = r (cos phase + i sin phase) and x = a + i b with no complex array.
    log(1 + x) has real part 0.5 log1p(2a + a^2 + b^2) and imaginary part
    arctan2(b, 1 + a) (real s: log1p(a), imaginary part 0).  The chunk
    splits each part into exact pieces (``summation._ExactSum``) and sums
    its terms of the allowance (step 4); only those leave it, so no
    whole-length array is built.  The chunks go through ``_ordered_map``,
    which runs them on a thread pool when there are several chunks and
    CPUs and s is complex (real-s chunks run inline), and are joined in
    chunk order.  Each part is its pieces' exact sum rounded once, and the
    value is exp of the complex total, so at real s its imaginary part is
    exactly 0.0.  Value and allowance are bit-identical for every worker
    count.

    Raises DomainError when some |1 + x_p| < 1e-300 (or is NaN), when
    2^(-power sigma) rounds to 1 (tiny sigma: the factor at p = 2 is a
    float64 pole) or when the product overflows float64.  An
    error raised in a chunk comes from the first chunk that raises, as in
    a serial loop.

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
    5. ``math.fsum`` of the pieces rounds each part's exact sum once: add
       u (|Re L| + |Im L|).
       The final exp of L (numpy's complex exp) has relative error
       e = 4 kappa + 2u, so with E the total log error,
       |prod - value| <= |value| (expm1(E) + e) / (1 - e).
    6. Second-order terms and the rounding of this bound's own evaluation
       stay below 2^-6 of it while every per-term bound is below 2^-12 of
       |x_p|; that holds unless A(2)^3 (c0 + c1 log P) > 2^-12 (sigma near
       0, or (sigma + |t|) log P above about 6 10^10), where the allowance
       is infinite.  The bound's own rounding includes the chunk sums of
       step 4: numpy's ``sum`` of at most _BLOCK nonnegative terms (never
       BLAS, whose threads could change the bits) errs by less than
       2^15 u = 2^-38 relative, and _SLACK covers that too.
    """
    sigma, t = point.sigma, point.t
    n = primes.size
    c1 = 4.0 * (_KAPPA + _UNIT) * (sigma + abs(t))
    amp_max = 1.0 / -math.expm1(-power * sigma * math.log(2.0))

    def chunk(lo: int) -> tuple[list[float], list[float], float]:
        # runs on a pool thread: private helpers only (see _ordered_map)
        lp = log_p[lo : lo + _BLOCK]
        fp = _f_values(spec, primes[lo : lo + _BLOCK])
        with np.errstate(over="ignore"):  # a product past -float max: r = exp(-inf) = 0
            r = np.exp((-power * sigma) * lp)
        if not r[0] < 1.0:  # r falls with p, so only p = 2 can round to 1
            raise DomainError(
                f"Euler product needs 2^(-{power}*sigma) < 1 in float64, "
                f"got sigma={sigma}"
            )
        amp = 1.0 / (1.0 - r)
        g = 1.0 + fp if power == 1 else -(fp * fp)
        log_re, log_im = _ExactSum(), _ExactSum()
        if t == 0.0:
            a = g * r
            if power == 1:
                a *= amp
            re = np.log1p(a)
            mag = np.abs(a)
        else:
            phase = (-power * t) * lp
            cos, sin = np.cos(phase), np.sin(phase)
            if power == 1:
                dr = cos - r
                w = g * r / (dr * dr + sin * sin)
                a, b = w * dr, w * sin
            else:
                w = g * r
                a, b = w * cos, w * sin
            with np.errstate(divide="ignore"):  # log1p(-1) = -inf is caught below
                re = np.log1p(a * (2.0 + a) + b * b)
            re *= 0.5
            log_im.add(np.arctan2(b, 1.0 + a))
            mag = np.abs(a) + np.abs(b)
        if not re.min() >= _LOG_DEGENERATE:
            raise DomainError("degenerate Euler factor encountered")
        log_re.add(re)
        bound = mag * (amp * amp * amp)
        bound *= _TERM_CONST + c1 * lp
        return log_re.pieces, log_im.pieces, float(bound.sum())

    total_re, total_im = _ExactSum(), _ExactSum()
    log_err = n * _UNDERFLOW
    # a real-s chunk (about 0.7 ms) is too cheap for the pool: two workers
    # spend what they gain in handing the GIL back and forth
    threads = 0 if t != 0.0 else 1
    for re_pieces, im_pieces, err in _ordered_map(chunk, range(0, n, _BLOCK), threads):
        total_re.pieces += re_pieces
        total_im.pieces += im_pieces
        log_err += err
    log_re, log_im = total_re.value(), total_im.value()
    if log_re > _LOG_FLOAT_MAX:
        raise DomainError(
            f"Euler product overflows float64 at sigma={sigma} "
            f"(log |value| = {log_re:.6g})"
        )
    value = complex(np.exp(complex(log_re, log_im)))
    if amp_max ** 3 * (_TERM_CONST + c1 * float(log_p[-1])) > _FIRST_ORDER_MAX:
        return value, math.inf
    log_err += _UNIT * (abs(log_re) + abs(log_im))
    rounding = abs(value) * (math.expm1(log_err) + _EXP_REL) / (1.0 - _EXP_REL)
    return value, _SLACK * rounding


def _prime_tail(P: int, coef: float, exponent: float, kappa: float, terms) -> float:
    """Bound on |log prod_{p>P} (1 + x_p)|, the one prime-tail rule.

    Every prime p > P has |x_p| <= kappa coef p^(-exponent), except the
    exception primes, whose |x_p| bounds are ``terms``.  Bounding the sum
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


def _euler_product(spec, s, P: int, sieve: FactorSieve, power: int, tail) -> SeriesEval:
    """prod_{p<=P} (1 + x_p) of G (power 1) or U (power 2; see ``_log1p_product``).

    ``tail(sigma)`` gives (coef, exponent, kappa, terms) of ``_prime_tail``
    for the primes past P; the omitted factors then move the product by at
    most |value| expm1(log tail).  The bound is rigorous while it and the
    rounding allowance are finite; otherwise (no tail bound, or an
    overflowing expm1 near the edge of convergence) the value is flagged
    heuristic.  Raises DomainError for sigma <= 0.
    """
    point = ComplexArgument.of(s)
    if point.sigma <= 0:
        raise DomainError(f"Euler product needs Re(s) > 0, got sigma={point.sigma}")
    primes = primes_up_to(P, sieve)
    value, rounding = 1.0 + 0.0j, 0.0
    if primes.size:
        log_p = sieve.log_primes[: primes.size]
        value, rounding = _log1p_product(spec, primes, log_p, point, power)
    log_tail = _prime_tail(P, *tail(point.sigma))
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
    """prod_{p<=P} (p^s + f(p)) / (p^s - 1), summed as log(1 + x_p).

    Each factor equals 1 + x_p with x_p = (1 + f(p))/(p^s - 1); the logs
    are summed in real arithmetic with a per-term rounding allowance (see
    ``_log1p_product``), so at real s the value's imaginary part is exactly
    0.0.  The tail beyond P is
    controlled by how fast 1 + f(p) dies: identically for the constant -1
    base (tail exactly 0), like p^(-a) for the power-decay family, not at
    all for a generic constant base (rigorous only for sigma > 1 there).
    """
    # |1 + f(p)| <= coef p^(-extra) under the base rule (power decay: 1 + f
    # is c p^(-a) clamped towards 0), and |x_p| <= kappa |1 + f(p)| p^(-sigma)
    # for p > P; an exception prime past P brings its own |x_p|
    if spec.base == BASE_LIOUVILLE:
        coef, extra = 0.0, 0.0
    elif spec.base == BASE_CONSTANT:
        coef, extra = abs(1.0 + spec.c), 0.0
    else:
        coef, extra = abs(spec.c), float(spec.a)

    def tail(sigma: float):
        r1 = (max(P, 1) + 1.0) ** (-sigma)
        kappa = 1.0 / (1.0 - r1) if r1 < 1.0 else math.inf  # no bound at tiny sigma
        terms = []
        for p, v in spec.exceptions:
            if p > P:
                x = -sigma * math.log(p)  # |1 + v| / (p^sigma - 1), 0 on underflow
                terms.append(abs(1.0 + v) * math.exp(x) / -math.expm1(x))
        return coef, sigma + extra, kappa, terms

    return _euler_product(spec, s, P, sieve, 1, tail)


def euler_product_U(
    spec: PrimeFunctionSpec, s, P: int, sieve: FactorSieve
) -> SeriesEval:
    """prod_{p<=P} (1 - f(p)^2 p^(-2s)); absolutely convergent for sigma > 1/2.

    Each factor is 1 + x_p with x_p = -f(p)^2 p^(-2s), summed as
    log(1 + x_p) like G (see ``_log1p_product``).  Evaluated only for
    sigma > 0 (DomainError otherwise): at sigma <= 0 a factor can turn
    negative and has no logarithm.
    """
    # |x_p| <= p^(-2 sigma) for every prime, exceptions included
    return _euler_product(spec, s, P, sieve, 2, lambda sigma: (1.0, 2.0 * sigma, 1.0, ()))


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


class _SeriesStore:
    """Every series of one run at fixed (spec, N, P, sieve, zeta_tol), computed once.

    ``get(name, s)`` memoises by (name, point) the sum at N of the stream
    ``name`` (a DerivedFunctionKind), or "zeta", or the Euler product "G" or
    "U" over p <= P.  Each stream is built once; the sums at one point of
    several streams share one slice pass (``_dirichlet_sums``), and
    ``residual`` sums every stream not yet memoised at its point in one.
    At sigma > 1 a sum's budget is its tail bound plus 4 eps times the
    allowance sum of ``_dirichlet_sums``, a float upper bound on
    sum |a(n)| n^(-sigma) within a factor (1 + N eps)^2 of it.
    A failure of ``_NO_VALUE`` (no value at this point) is memoised too,
    as the exception itself, and raised again by every ``get`` of that
    (name, point), so a failing pass or product runs once.  Any other
    error (a bad argument) propagates and is not memoised.
    """

    def __init__(
        self,
        spec: PrimeFunctionSpec,
        N: int,
        P: int,
        sieve: FactorSieve,
        zeta_tol: float = 1e-14,
    ):
        self.spec, self.N, self.P, self.sieve, self.zeta_tol = spec, N, P, sieve, zeta_tol
        self._streams: dict[DerivedFunctionKind, np.ndarray] = {}
        #: a SeriesEval, or the _NO_VALUE failure at that point
        self._evals: dict[tuple, SeriesEval | Exception] = {}

    def get(self, name, s) -> SeriesEval:
        point = ComplexArgument.of(s)
        key = (name, point)
        if key not in self._evals:
            if isinstance(name, DerivedFunctionKind):
                self._sum_streams([name], point)
            else:
                try:
                    if name == "zeta":
                        self._evals[key] = zeta(point, self.zeta_tol)
                    else:
                        product = euler_product_G if name == "G" else euler_product_U
                        self._evals[key] = product(self.spec, point, self.P, self.sieve)
                except _NO_VALUE as exc:
                    self._evals[key] = exc.with_traceback(None)
        ev = self._evals[key]
        if isinstance(ev, Exception):
            raise ev.with_traceback(None)
        return ev

    def _sum_streams(self, kinds: list[DerivedFunctionKind], point: ComplexArgument) -> None:
        """Memoise the sums at ``point`` of the streams ``kinds``, in one slice pass."""
        try:
            for kind in kinds:
                if kind not in self._streams:
                    self._streams[kind] = coefficient_stream(self.spec, kind, self.N, self.sieve)
            sums = _dirichlet_sums([self._streams[kind] for kind in kinds], self.N, point)
        except _NO_VALUE as exc:
            for kind in kinds:
                self._evals[(kind, point)] = exc.with_traceback(None)
            return
        for kind, (value, abs_sum) in zip(kinds, sums):
            ev = SeriesEval(value, self.N, math.inf, True, METHOD_DIRECT_SUM)
            if point.sigma > 1.0:
                divisor = kind in (DerivedFunctionKind.H_CONV, DerivedFunctionKind.G_CONV)
                tail = (_divisor_tail if divisor else _power_tail)(self.N, point.sigma)
                ev = SeriesEval(value, self.N, tail + 4.0 * _EPS * abs_sum, False, ev.method)
            self._evals[(kind, point)] = ev

    def residual(self, identity: IdentityKind, s) -> IdentityResidual:
        """|LHS - RHS| of one identity at s, read from the store (see identity_residual).

        Every stream not yet summed at s is summed first, in one pass: the
        four identities at one point need all four.
        """
        point = ComplexArgument.of(s)
        self._sum_streams([k for k in DerivedFunctionKind if (k, point) not in self._evals], point)
        sides = [
            [self.get(name, point) for name in side] for side in _IDENTITY_SIDES[identity]
        ]
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
    ``_SeriesStore.residual`` it builds and sums all four streams at s.
    """
    return _SeriesStore(spec, N, P, sieve, zeta_tol).residual(identity, s)
