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

Bulk evaluation (``coefficient_stream``) fills the stream in doubling
blocks [L, 2L) of the smallest-prime-factor table, the linear-sieve
evaluation of multiplicative functions (Gries & Misra, CACM 1978): each n
is a product of two smaller finished entries, or one step from n / spf(n)
when n is a prime power.  That is log2(N) vector passes and O(N) work, with
no Python-level per-n loop.  Streams whose values are provably integers (all
f(p) in {-1,0,1}) run the same recurrence in int64, the exact path used by
the partial-sum machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .sieve import FactorSieve, _check_range

BASE_LIOUVILLE = "liouville"
BASE_CONSTANT = "constant"
BASE_POWER_DECAY = "power_decay"

#: switch h(p^a) from the geometric closed form to direct summation when
#: f(p) is this close to 1, avoiding catastrophic cancellation in
#: (1 - f^( a+1)) / (1 - f)
_NEAR_ONE = 1e-8


class DerivedFunctionKind(Enum):
    """The four coefficient streams derived from one prime spec."""

    F_PLAIN = "F_plain"
    H_CONV = "H_conv"
    G_CONV = "G_conv"
    F_MU2 = "F_mu2"


def _is_prime_int(n: int) -> bool:
    """Deterministic trial-division primality check (fine for spec keys)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
        Parameters for the parametric bases; None where unused.
    exceptions : tuple of (prime, value)
        Per-prime overrides, sorted by prime; values constrained to [-1, 1].
    """

    base: str
    c: float | None = None
    a: float | None = None
    exceptions: tuple[tuple[int, float], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.base not in (BASE_LIOUVILLE, BASE_CONSTANT, BASE_POWER_DECAY):
            raise ValueError(f"unknown base rule {self.base!r}")
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
        seen = set()
        for p, v in self.exceptions:
            if not _is_prime_int(p):
                raise ValueError(f"exception key {p} is not prime")
            if p in seen:
                raise ValueError(f"duplicate exception key {p}")
            seen.add(p)
            if not -1.0 <= v <= 1.0:
                raise ValueError(f"exception value for p={p} outside [-1, 1]: {v}")
        object.__setattr__(self, "exceptions", tuple(sorted(self.exceptions)))

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _normalize_exceptions(
        exceptions: Mapping[int, float] | Iterable[tuple[int, float]] | None,
    ) -> tuple[tuple[int, float], ...]:
        if exceptions is None:
            return ()
        items = exceptions.items() if isinstance(exceptions, Mapping) else exceptions
        return tuple(sorted((int(p), float(v)) for p, v in items))

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
    exceptions: Mapping[int, float] | Iterable[tuple[int, float]] | None = None,
) -> PrimeFunctionSpec:
    """f(p) = -1 at every prime, modulo explicit exceptions."""
    return PrimeFunctionSpec(
        base=BASE_LIOUVILLE,
        exceptions=PrimeFunctionSpec._normalize_exceptions(exceptions),
    )


def constant_spec(
    c: float,
    exceptions: Mapping[int, float] | Iterable[tuple[int, float]] | None = None,
) -> PrimeFunctionSpec:
    """f(p) = c at every prime, c in [-1, 1]."""
    return PrimeFunctionSpec(
        base=BASE_CONSTANT,
        c=float(c),
        exceptions=PrimeFunctionSpec._normalize_exceptions(exceptions),
    )


def power_decay_spec(
    c: float,
    a: float,
    exceptions: Mapping[int, float] | Iterable[tuple[int, float]] | None = None,
) -> PrimeFunctionSpec:
    """f(p) = clamp(-1 + c * p^(-a), -1, 1); drifts toward -1 as p grows."""
    return PrimeFunctionSpec(
        base=BASE_POWER_DECAY,
        c=float(c),
        a=float(a),
        exceptions=PrimeFunctionSpec._normalize_exceptions(exceptions),
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
    """Vectorized f(p) over an array of primes (assumed prime, not checked)."""
    p = np.asarray(primes, dtype=np.float64)
    if spec.base == BASE_LIOUVILLE:
        out = np.full(p.shape, -1.0)
    elif spec.base == BASE_CONSTANT:
        out = np.full(p.shape, float(spec.c))
    else:
        out = np.clip(-1.0 + spec.c * p ** (-spec.a), -1.0, 1.0)
    for q, v in spec.exceptions:
        out[np.asarray(primes) == q] = v
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
# pointwise evaluation via closed forms on prime powers
# ---------------------------------------------------------------------------


def _h_prime_power(fp: float, a: int) -> float:
    """h(p^a) = 1 + fp + ... + fp^a, guarded against cancellation at fp ~ 1."""
    if abs(1.0 - fp) < _NEAR_ONE:
        total = 1.0
        term = 1.0
        for _ in range(a):
            term *= fp
            total += term
        return total
    return (1.0 - fp ** (a + 1)) / (1.0 - fp)


def _weight(kind: DerivedFunctionKind, fp: float, a: int) -> float:
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
    _check_range(n, sieve)
    spf = sieve.spf
    result = 1.0
    m = n
    while m > 1:
        p = int(spf[m])
        a = 0
        while m % p == 0:
            m //= p
            a += 1
        result *= _weight(kind, f_at_prime(spec, p), a)
    return result


def eval_f(spec: PrimeFunctionSpec, n: int, sieve: FactorSieve) -> float:
    """f(n) = product of f(p)^a over the factorization of n; f(1) = 1."""
    return _eval_pointwise(spec, DerivedFunctionKind.F_PLAIN, n, sieve)


def eval_h(spec: PrimeFunctionSpec, n: int, sieve: FactorSieve) -> float:
    """(1*f)(n) via the geometric closed form on each prime power; >= 0."""
    return _eval_pointwise(spec, DerivedFunctionKind.H_CONV, n, sieve)


def eval_g(spec: PrimeFunctionSpec, n: int, sieve: FactorSieve) -> float:
    """(1*(f mu^2))(n): multiplicative with g(p^a) = 1 + f(p); >= 0."""
    return _eval_pointwise(spec, DerivedFunctionKind.G_CONV, n, sieve)


def eval_f_mu2(spec: PrimeFunctionSpec, n: int, sieve: FactorSieve) -> float:
    """f(n) * mu^2(n): kills every non-squarefree n."""
    return _eval_pointwise(spec, DerivedFunctionKind.F_MU2, n, sieve)


# ---------------------------------------------------------------------------
# bulk evaluation: one block recurrence over the spf table
# ---------------------------------------------------------------------------


def _stream(
    spec: PrimeFunctionSpec,
    kind: DerivedFunctionKind,
    limit: int,
    sieve: FactorSieve,
    dtype: type,
) -> np.ndarray:
    """a(1..limit) for one derived function, filled in doubling blocks.

    For n in a block [L, 2L) with p = spf(n), both m = n/p and rest(n) (n
    with the full power of p removed) are below L, so every read hits a
    finished entry.  A non prime power splits as a(rest) * a(n / rest); a
    prime power p^e takes one step from a(p^(e-1)).  The h step is Horner's
    1 + f(p) * h(p^(e-1)), which has no cancellation near f(p) = 1.
    """
    if not 1 <= limit <= sieve.limit:
        raise ValueError(f"limit {limit} outside [1, sieve limit {sieve.limit}]")
    spf = sieve.spf
    vals = np.zeros(limit + 1, dtype=dtype)
    vals[1] = 1
    rest = np.ones(limit + 1, dtype=np.int64)
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, limit + 1)
        n = np.arange(lo, hi, dtype=np.int64)
        p = spf[lo:hi].astype(np.int64)
        m = n // p
        r = np.where(spf[m] == p, rest[m], m)
        rest[lo:hi] = r
        block = vals[lo:hi]
        split = np.nonzero(r > 1)[0]
        block[split] = vals[r[split]] * vals[n[split] // r[split]]
        pp = np.nonzero(r == 1)[0]
        fp = f_at_primes(spec, p[pp]).astype(dtype)
        if kind is DerivedFunctionKind.F_PLAIN:
            block[pp] = fp * vals[m[pp]]
        elif kind is DerivedFunctionKind.H_CONV:
            block[pp] = 1 + fp * vals[m[pp]]
        elif kind is DerivedFunctionKind.G_CONV:
            block[pp] = 1 + fp
        else:  # F_MU2
            block[pp] = np.where(m[pp] == 1, fp, 0)
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
    recurrence over doubling blocks of the spf table (log2(limit) vector
    passes, O(limit) work).
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
