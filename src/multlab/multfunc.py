"""Completely multiplicative functions defined by their values at primes.

A :class:`PrimeFunctionSpec` pins down f: it is a base rule (constant -1,
a constant c, or a power-decay family) plus a finite map of per-prime
exceptions.  Everything else is derived from f one prime power at a time
-- never by explicit divisor-sum convolution:

* ``F_plain``  -- f itself, f(p^a) = f(p)^a;
* ``H_conv``   -- the divisor-sum transform 1*f, with
  h(p^a) = 1 + f(p) + ... + f(p)^a (always nonnegative for f in [-1,1]);
* ``G_conv``   -- the squarefree-kernel transform 1*(f mu^2), with
  g(p^a) = 1 + f(p) for every a >= 1;
* ``F_mu2``    -- f restricted to squarefree integers.

Bulk evaluation (``coefficient_stream``) is the linear-sieve evaluation of
multiplicative functions over the smallest-prime-factor table (Gries &
Misra, CACM 1978): with p = spf(n) and m = n / p, each kind takes one step
from the finished entry a(m) --

* F_plain: a(n) = f(p) a(m);
* G_conv:  a(n) = a(m) when p | m, else (1 + f(p)) a(m);
* F_mu2:   a(n) = 0 when p | m, else f(p) a(m);
* H_conv:  a(n) = (1 + f(p)) a(m), minus f(p) a(m / p) when p | m.

The steps run as vector passes over chunks of about 2^16 entries, so the
work is O(N) with no Python-level per-n loop.  Streams whose values are
provably integers (all f(p) in {-1,0,1}) run the same steps in int64, the
exact path used by the partial-sum machinery.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .sieve import FactorSieve, factorize, primes_up_to

BASE_LIOUVILLE = "liouville"
BASE_CONSTANT = "constant"
BASE_POWER_DECAY = "power_decay"


class DerivedFunctionKind(Enum):
    """The four coefficient streams derived from one prime spec."""

    F_PLAIN = "F_plain"
    H_CONV = "H_conv"
    G_CONV = "G_conv"
    F_MU2 = "F_mu2"


#: Miller-Rabin to the first twelve prime bases decides every n below this
#: bound, which exceeds 2^64 (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def _is_prime_int(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < _MR_BOUND.

    Raises ValueError for larger n, where these bases prove nothing.
    """
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large to test for primality (limit {_MR_BOUND})")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeFunctionSpec:
    """Defines a completely multiplicative f: N -> [-1, 1] via its primes.

    Attributes
    ----------
    base : str
        One of ``liouville`` (f(p) = -1), ``constant`` (f(p) = c),
        ``power_decay`` (f(p) = clamp(-1 + c * p^(-a), -1, 1)).
    c, a : float or None
        Parameters for the parametric bases; None where unused (a base
        given a parameter it ignores is rejected).
    exceptions : tuple of (prime, value)
        Per-prime overrides, given as a Mapping, (p, v) pairs or None and
        stored as (int, float) pairs sorted by prime.  Keys must be integers
        (``operator.index``: 2.0 is rejected) and values lie in [-1, 1].
    """

    base: str
    c: float | None = None
    a: float | None = None
    exceptions: tuple[tuple[int, float], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.base not in (BASE_LIOUVILLE, BASE_CONSTANT, BASE_POWER_DECAY):
            raise ValueError(f"unknown base rule {self.base!r}")
        if self.base == BASE_LIOUVILLE and (self.c is not None or self.a is not None):
            raise ValueError("liouville base takes no c/a parameters")
        if self.base == BASE_CONSTANT and self.a is not None:
            raise ValueError("constant base takes no a parameter")
        if self.base == BASE_CONSTANT:
            if self.c is None or not -1.0 <= self.c <= 1.0:
                raise ValueError(f"constant base needs c in [-1, 1], got {self.c}")
        if self.base == BASE_POWER_DECAY:
            if self.c is None or self.a is None or not (
                math.isfinite(self.c) and math.isfinite(self.a) and self.a > 0
            ):
                raise ValueError(
                    f"power_decay base needs finite c and a > 0, got c={self.c} a={self.a}"
                )
        items = self.exceptions or ()
        if isinstance(items, Mapping):
            items = items.items()
        try:
            pairs = sorted((operator.index(p), float(v)) for p, v in items)
        except TypeError as exc:
            raise ValueError(f"exceptions need integer keys and real values: {exc}") from None
        seen = set()
        for p, v in pairs:
            if not _is_prime_int(p):
                raise ValueError(f"exception key {p} is not prime")
            if p in seen:
                raise ValueError(f"duplicate exception key {p}")
            seen.add(p)
            if not -1.0 <= v <= 1.0:
                raise ValueError(f"exception value for p={p} outside [-1, 1]: {v}")
        object.__setattr__(self, "exceptions", tuple(pairs))

    @property
    def exception_map(self) -> dict[int, float]:
        return dict(self.exceptions)

    def spec_id(self) -> str:
        """Stable short identifier (used in CSV reports and filenames)."""
        parts = [self.base]
        if self.base == BASE_CONSTANT:
            parts.append(f"c={self.c:g}")
        elif self.base == BASE_POWER_DECAY:
            parts.append(f"c={self.c:g}")
            parts.append(f"a={self.a:g}")
        for p, v in self.exceptions:
            parts.append(f"{p}:{v:g}")
        return "+".join(parts)


def liouville_spec(
    exceptions: Mapping[int, float] | Iterable[tuple[int, float]] = (),
) -> PrimeFunctionSpec:
    """f(p) = -1 at every prime, modulo explicit exceptions."""
    return PrimeFunctionSpec(
        base=BASE_LIOUVILLE,
        exceptions=exceptions,
    )


def constant_spec(
    c: float,
    exceptions: Mapping[int, float] | Iterable[tuple[int, float]] = (),
) -> PrimeFunctionSpec:
    """f(p) = c at every prime, c in [-1, 1]."""
    return PrimeFunctionSpec(
        base=BASE_CONSTANT,
        c=float(c),
        exceptions=exceptions,
    )


def power_decay_spec(
    c: float,
    a: float,
    exceptions: Mapping[int, float] | Iterable[tuple[int, float]] = (),
) -> PrimeFunctionSpec:
    """f(p) = clamp(-1 + c * p^(-a), -1, 1); drifts toward -1 as p grows."""
    return PrimeFunctionSpec(
        base=BASE_POWER_DECAY,
        c=float(c),
        a=float(a),
        exceptions=exceptions,
    )


# ---------------------------------------------------------------------------
# values at primes
# ---------------------------------------------------------------------------


def f_at_prime(spec: PrimeFunctionSpec, p: int) -> float:
    """Value of f at the prime p (exceptions override the base rule)."""
    if not _is_prime_int(p):
        raise ValueError(f"{p} is not prime")
    for q, v in spec.exceptions:
        if q == p:
            return v
    if spec.base == BASE_LIOUVILLE:
        return -1.0
    if spec.base == BASE_CONSTANT:
        return float(spec.c)
    return float(min(1.0, max(-1.0, -1.0 + spec.c * p ** (-spec.a))))


def f_at_primes(spec: PrimeFunctionSpec, primes: np.ndarray) -> np.ndarray:
    """Vectorized f(p) over an array of primes (assumed prime, not checked).

    Exceptions are located by one ``np.searchsorted`` over the sorted
    exception keys, so the primes may come in any order.
    """
    return _f_values(spec, primes)


def _f_values(spec: PrimeFunctionSpec, primes: np.ndarray) -> np.ndarray:
    """``f_at_primes`` for internal use, one chunk at a time and on any thread.

    Elementwise, so a chunk's values are bit-identical to the same entries
    of a whole-array call.
    """
    if spec.base == BASE_LIOUVILLE:
        out = np.full(np.shape(primes), -1.0)
    elif spec.base == BASE_CONSTANT:
        out = np.full(np.shape(primes), float(spec.c))
    else:
        p = np.asarray(primes, dtype=np.float64)
        out = np.clip(-1.0 + spec.c * p ** (-spec.a), -1.0, 1.0)
    # a key past int64 can equal no prime of an int64 array, so only keys
    # that fit are placed
    placed = [(q, v) for q, v in spec.exceptions if q < 2 ** 63]
    if placed:
        keys = np.array([q for q, _ in placed], dtype=np.int64)
        values = np.array([v for _, v in placed])
        ints = np.asarray(primes).reshape(-1)
        # only primes <= the largest key can hit one, and each of those
        # finds its key at index < len(keys)
        cand = np.flatnonzero(ints <= keys[-1])
        idx = np.searchsorted(keys, ints[cand])
        hit = keys[idx] == ints[cand]
        out.reshape(-1)[cand[hit]] = values[idx[hit]]
    return out


def spec_is_pm1(spec: PrimeFunctionSpec) -> bool:
    """True when every f(p) is provably in {-1, 0, +1}.

    Such specs admit exact integer coefficient streams for all four derived
    functions (h(p^a) is then 0, 1 or a+1; g(p^a) is 0, 1 or 2).
    """
    if any(v not in (-1.0, 0.0, 1.0) for _, v in spec.exceptions):
        return False
    if spec.base == BASE_LIOUVILLE:
        return True
    if spec.base == BASE_CONSTANT:
        return spec.c in (-1.0, 0.0, 1.0)
    return spec.c == 0.0  # power decay collapses to constant -1


# ---------------------------------------------------------------------------
# pointwise evaluation, one prime power at a time
# ---------------------------------------------------------------------------


def _h_prime_power(fp, a: int):
    """h(p^a) = 1 + fp + ... + fp^a, summed term by term (fp a float or an array)."""
    total, term = 1.0 + fp, fp
    for _ in range(a - 1):
        term = term * fp
        total = total + term
    return total


def _weight(kind: DerivedFunctionKind, fp, a: int):
    """a(p^a) of the derived function ``kind`` from fp = f(p), a float or an array.

    The one rule behind pointwise evaluation and verify's prime-power scan.
    """
    if kind is DerivedFunctionKind.F_PLAIN:
        return fp ** a
    if kind is DerivedFunctionKind.H_CONV:
        return _h_prime_power(fp, a)
    if kind is DerivedFunctionKind.G_CONV:
        return 1.0 + fp
    return fp if a == 1 else 0.0  # F_MU2


def _eval_pointwise(
    spec: PrimeFunctionSpec, kind: DerivedFunctionKind, n: int, sieve: FactorSieve
) -> float:
    result = 1.0
    for p, a in factorize(n, sieve):
        result *= _weight(kind, f_at_prime(spec, p), a)
    return result


def eval_f(spec: PrimeFunctionSpec, n: int, sieve: FactorSieve) -> float:
    """f(n) = product of f(p)^a over the factorization of n; f(1) = 1."""
    return _eval_pointwise(spec, DerivedFunctionKind.F_PLAIN, n, sieve)


def eval_h(spec: PrimeFunctionSpec, n: int, sieve: FactorSieve) -> float:
    """(1*f)(n), each h(p^a) = 1 + f(p) + ... + f(p)^a summed term by term; >= 0."""
    return _eval_pointwise(spec, DerivedFunctionKind.H_CONV, n, sieve)


def eval_g(spec: PrimeFunctionSpec, n: int, sieve: FactorSieve) -> float:
    """(1*(f mu^2))(n): multiplicative with g(p^a) = 1 + f(p); >= 0."""
    return _eval_pointwise(spec, DerivedFunctionKind.G_CONV, n, sieve)


def eval_f_mu2(spec: PrimeFunctionSpec, n: int, sieve: FactorSieve) -> float:
    """f(n) * mu^2(n): kills every non-squarefree n."""
    return _eval_pointwise(spec, DerivedFunctionKind.F_MU2, n, sieve)


# ---------------------------------------------------------------------------
# bulk evaluation: one step per n over the spf table
# ---------------------------------------------------------------------------


#: entries per vector pass of :func:`_stream`; each pass's temporaries
#: (a few arrays of this length) then stay in cache
_CHUNK = 1 << 16


def _stream(
    spec: PrimeFunctionSpec,
    kind: DerivedFunctionKind,
    limit: int,
    sieve: FactorSieve,
    dtype: type,
) -> np.ndarray:
    """a(1..limit) for one derived function, one step from a(n / spf(n)).

    For n with p = spf(n), m = n // p is at most n / 2, and p | m exactly
    when spf(m) == p.  A chunk [lo, hi) with hi <= 2 lo therefore reads only
    finished entries below lo, and fills in a few vector passes.  The steps,
    with f = f(p):

    * F_plain: a(n) = f * a(m), complete multiplicativity;
    * G_conv: a(n) = a(m) when p | m, else (1 + f) * a(m), since
      g(p^e) = 1 + f for every e >= 1;
    * F_mu2: a(n) = 0 when p | m, else f * a(m);
    * H_conv: a(n) = (1 + f) * a(m) - [p | m] * f * a(m / p).  With n =
      p^e r, p not dividing r, this is h(p^e) = (1 + f) h(p^(e-1))
      - f h(p^(e-2)), the recurrence with characteristic roots 1 and f,
      times h(r); m / p = n / p^2 is finished too.

    f(p) comes from one dense table indexed by n, filled by one
    :func:`f_at_primes` call: int8 for exact streams (values in {-1, 0, 1}),
    float64 otherwise.

    int64 streams are exact.  In float, G and F_mu2 round once per prime
    power, F once per prime factor (within about Omega(n) ulp of the exact
    product); a zero F_mu2 entry may be -0.0 (f < 0 times a zero), which no
    nonzero sum can see.  H's step is a sum of two nonnegative terms when
    f <= 0, so nothing cancels: h(p^e) stays within 10 units of 2^-53
    relative (measured to e = 64).  For 0 < f < 1 the step subtracts, and
    near f = 1 the roots 1 and f meet, so an error made at exponent k
    reaches exponent e multiplied by about e - k + 1: the error of h(p^e)
    grows like e^2, measured at most e (e + 4) / 4 units of 2^-53 relative
    (1.7e-14 for e <= 23, that is n <= 10^7).  Errors of the prime powers
    of n add.
    """
    if not 1 <= limit <= sieve.limit:
        raise ValueError(f"limit {limit} outside [1, sieve limit {sieve.limit}]")
    spf = sieve.spf
    table = np.int8 if dtype is np.int64 else np.float64
    primes = primes_up_to(limit, sieve)
    fp = np.zeros(limit + 1, dtype=table)
    fp[primes] = f_at_primes(spec, primes)
    vals = np.zeros(limit + 1, dtype=dtype)
    vals[1] = 1
    lo = 2
    while lo <= limit:
        hi = min(lo + min(lo, _CHUNK), limit + 1)
        p = spf[lo:hi]
        m = np.arange(lo, hi, dtype=np.uint32) // p
        f = fp[p]
        a = vals[m]
        if kind is DerivedFunctionKind.F_PLAIN:
            vals[lo:hi] = f * a
        else:
            again = spf[m] == p
            if kind is DerivedFunctionKind.G_CONV:
                vals[lo:hi] = np.where(again, a, (1 + f) * a)
            elif kind is DerivedFunctionKind.F_MU2:
                vals[lo:hi] = np.where(again, 0, f * a)
            else:  # H_CONV
                vals[lo:hi] = (1 + f) * a - np.where(again, f * vals[m // p], 0)
        lo = hi
    return vals[1:]


def coefficient_stream(
    spec: PrimeFunctionSpec,
    kind: DerivedFunctionKind,
    limit: int,
    sieve: FactorSieve,
) -> np.ndarray:
    """Array of the selected function at n = 1..limit (index i holds a(i+1)).

    Agrees with pointwise evaluation to rounding; computed in bulk by one
    step per n from a(n / spf(n)), in chunks of at most 2^16 entries (about
    limit / 2^16 + 16 vector passes, O(limit) work).
    """
    return _stream(spec, kind, limit, sieve, np.float64)


def integer_coefficient_stream(
    spec: PrimeFunctionSpec,
    kind: DerivedFunctionKind,
    limit: int,
    sieve: FactorSieve,
) -> np.ndarray:
    """Exact int64 stream for specs with f(p) in {-1, 0, 1}.

    Raises ValueError when the spec is not integer-valued; callers decide
    between this and the float stream via :func:`spec_is_pm1`.
    """
    if not spec_is_pm1(spec):
        raise ValueError("integer stream requires f(p) in {-1, 0, 1} everywhere")
    return _stream(spec, kind, limit, sieve, np.int64)


LIOUVILLE = liouville_spec()
