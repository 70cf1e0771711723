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

The steps run as vector passes over chunks of 2^16 entries, each split by
parity (even n have p = 2 and take their step by slices; odd n read p from
the sieve's odd-only table), so the work is O(N) with no Python-level
per-n loop.  The chunks are handed on as blocks (``_stream_blocks``), one
pass building every kind a consumer asks for, and only a(1..N/2), the
entries later steps read, are kept.  Streams whose values are provably
integers (all f(p) in {-1,0,1}) run the same steps in the narrowest
integer dtype that holds them (int8 for F and F_mu2, int16 for H and G).
Which of the two a spec gets is decided in one place, ``_coefficients``:
the partial-sum traces and the Dirichlet series of an integer-valued spec
both read its exact stream, block by block.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping

import numpy as np

from .sieve import FactorSieve, factorize
from .summation import _BLOCK

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


def _real(name: str, value) -> float:
    """``value`` as a float, for the numbers of a spec: c, a and exception values.

    A bool (Python's or numpy's) or a string is rejected, as is anything
    ``float`` cannot read, with ValueError: the same rule ExperimentConfig
    applies to its integer fields.
    """
    if not isinstance(value, (bool, np.bool_, str, bytes)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a real number, got {value!r}")


def _is_prime_int(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < _MR_BOUND.

    ``n`` is any integer (``operator.index``), numpy's too: three-argument
    ``pow`` takes only Python ints.  Raises ValueError for larger n, where
    these bases prove nothing.
    """
    n = operator.index(n)
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
        given a parameter it ignores is rejected).  Stored as floats.
    exceptions : tuple of (prime, value)
        Per-prime overrides, given as a Mapping, (p, v) pairs or None and
        stored as (int, float) pairs sorted by prime.  Keys must be integers
        (``operator.index``: 2.0 is rejected) and values lie in [-1, 1].

    c, a and exception values must be real numbers: a bool or a string
    (``c=True``, ``c="0.5"``) raises ValueError, like every other spec error.
    """

    base: str
    c: float | None = None
    a: float | None = None
    exceptions: tuple[tuple[int, float], ...] = field(default=())

    def __post_init__(self) -> None:
        for name in ("c", "a"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _real(name, getattr(self, name)))
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
            pairs = sorted(
                (operator.index(p), _real(f"exception value for p={p}", v)) for p, v in items
            )
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
    """f(p) for a prime p < 2^63: bit for bit what ``f_at_primes`` gives at p."""
    if not (p < 2 ** 63 and _is_prime_int(p)):
        raise ValueError(f"{p} is not a prime below 2^63")
    return float(_f_values(spec, np.array([p], dtype=np.int64))[0])


def f_at_primes(spec: PrimeFunctionSpec, primes: np.ndarray) -> np.ndarray:
    """Vectorized f(p) over an array of primes (assumed prime, not checked).

    Exceptions are located by one ``np.searchsorted`` over the sorted
    exception keys, so the primes may come in any order.
    """
    return _f_values(spec, primes)


def _f_values(spec: PrimeFunctionSpec, primes: np.ndarray) -> np.ndarray:
    """``f_at_primes`` for internal use, one chunk at a time and on any thread.

    Elementwise, so a chunk's values are bit-identical to the same entries
    of a whole-array call.  A flat spec (``_base_value``) fills its base
    value; only power decay with c > 0 evaluates its formula, and there
    c p^(-a) >= 0 (0 on underflow), so -1 + c p^(-a) >= -1 in float and
    only the clamp at +1 can bite.  Exceptions are placed only where the
    chunk's smallest prime is at most the largest key, so a walk's later
    chunks skip the scan.
    """
    base = _base_value(spec)
    if base is not None:
        out = np.full(np.shape(primes), base)
    else:
        p = np.asarray(primes, dtype=np.float64)
        out = -1.0 + spec.c * p ** (-spec.a)
        np.minimum(out, 1.0, out=out)
    # a key past int64 can equal no prime of an int64 array, so only keys
    # that fit are placed
    placed = [(q, v) for q, v in spec.exceptions if q < 2 ** 63]
    ints = np.asarray(primes).reshape(-1)
    if placed and ints.size and ints.min() <= placed[-1][0]:
        keys = np.array([q for q, _ in placed], dtype=np.int64)
        values = np.array([v for _, v in placed])
        # only primes <= the largest key can hit one, and each of those
        # finds its key at index < len(keys)
        cand = np.flatnonzero(ints <= keys[-1])
        idx = np.searchsorted(keys, ints[cand])
        hit = keys[idx] == ints[cand]
        out.reshape(-1)[cand[hit]] = values[idx[hit]]
    return out


def _f_slice(spec: PrimeFunctionSpec, primes: np.ndarray) -> float | np.ndarray:
    """f(p) over an ascending slice of primes: one float when that is one number.

    ``_base_value(spec)`` when the spec is flat and the slice starts past
    its largest exception, so that no prime of it is one; ``_f_values``
    otherwise.  An elementwise operation on the float, such as (1 + b) log p
    or (1 - b_f b_g) / p, gives the bits it gives on an array full of it.
    """
    base = _base_value(spec)
    if base is not None and primes.size and (
        not spec.exceptions or int(primes[0]) > spec.exceptions[-1][0]
    ):
        return base
    return _f_values(spec, primes)


def _base_value(spec: PrimeFunctionSpec) -> float | None:
    """f(p) at every prime that is no exception, when that is one number; else None.

    -1.0 for Liouville, c for a constant base, and -1.0 for power decay
    with c <= 0, where -1 + c p^-a is clamped to (or, at c = 0, is) -1.0 at
    every p: such a spec is Liouville's lambda spelt otherwise.  The one flatness
    rule, and the only reader of the base rule besides the spec itself:
    f(p) (``_f_values``, and per slice ``_f_slice``), exactness
    (``spec_is_pm1``), the streams' f(p) table (``_prime_values``), the
    primes a prime-side sum visits (``_visited``), G's prime tail
    (``_one_plus_f_decay``) and verify's plateau check all read it.
    """
    if spec.base == BASE_LIOUVILLE:
        return -1.0
    if spec.base == BASE_CONSTANT:
        return spec.c
    return -1.0 if spec.c <= 0.0 else None


def _one_plus_f_decay(spec: PrimeFunctionSpec) -> tuple[float, float]:
    """(coef, extra) with |1 + f(p)| <= coef p^(-extra) at every prime that
    is no exception: |1 + b| and 0 for a base value b (``_base_value``),
    c and a for power decay with no base value (c > 0), where
    1 + f(p) = min(c p^(-a), 2): exactly c p^(-a) at every prime when
    c <= 2^(1 + a), the largest c that clamps no f(p) at +1.
    """
    base = _base_value(spec)
    if base is not None:
        return abs(1.0 + base), 0.0
    return spec.c, spec.a


def _visited(primes: np.ndarray, factor, *specs: PrimeFunctionSpec) -> np.ndarray | None:
    """Positions in ``primes`` of the primes whose term can be nonzero, or None for all.

    Read by the prime sums alone (``primesums._walk``); an Euler product's
    skips follow from its tail coefficient (``dirichlet._euler_product``).
    A prime-side term is ``factor(f(p), ...)``, with one f(p) per spec,
    times numbers that are finite at every prime.  When each spec has a
    base value b (``_base_value``) and ``factor(b, ...)`` is zero, the term
    is exactly zero at every prime that is no spec's exception, so only
    the exception primes in ``primes`` need a visit: their positions come
    back ascending (maybe none).  Otherwise None: every prime is visited.
    Which primes are visited depends on the specs alone, never on s or on
    how far the sum runs.
    """
    bases = [_base_value(spec) for spec in specs]
    if None in bases or factor(*bases) != 0.0:
        return None
    # exception keys are prime, so each one up to the last prime is in the table
    last = int(primes[-1]) if primes.size else 0
    keys = sorted({q for spec in specs for q, _ in spec.exceptions if q <= last})
    return np.searchsorted(primes, np.array(keys, dtype=np.int64))


def spec_is_pm1(spec: PrimeFunctionSpec) -> bool:
    """True when every f(p) is provably in {-1, 0, +1}: the base value
    (``_base_value``) and every exception value are.

    Such specs admit exact integer coefficient streams for all four derived
    functions (h(p^a) is then 0, 1 or a+1; g(p^a) is 0, 1 or 2).
    """
    values = [_base_value(spec), *(v for _, v in spec.exceptions)]
    return all(v in (-1.0, 0.0, 1.0) for v in values)  # a None base is in no set


# ---------------------------------------------------------------------------
# pointwise evaluation, one prime power at a time
# ---------------------------------------------------------------------------


def _h_prime_power(fp, a: int):
    """h(p^a) = 1 + fp + ... + fp^a for a >= 1 (fp a float or an array).

    Summed in pairs, as (1 + fp) (1 + fp^2 + ... + fp^(2 floor((a-1)/2)))
    plus fp^a when a is even: for fp in [-1, 1] every term is nonnegative,
    so nothing cancels next to fp = -1, and the result is at least 1 + fp.
    """
    square = fp * fp
    total, term = 1.0, 1.0
    for _ in range((a - 1) // 2):
        term = term * square
        total = total + term
    total = (1.0 + fp) * total
    return total + fp ** a if a % 2 == 0 else total


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
    factors = factorize(n, sieve)
    fps = _f_values(spec, np.array([p for p, _ in factors], dtype=np.int64))
    result = 1.0
    for fp, (_, a) in zip(fps.tolist(), factors):
        result *= _weight(kind, fp, a)
    return result


def eval_f(spec: PrimeFunctionSpec, n: int, sieve: FactorSieve) -> float:
    """f(n) = product of f(p)^a over the factorization of n; f(1) = 1."""
    return _eval_pointwise(spec, DerivedFunctionKind.F_PLAIN, n, sieve)


def eval_h(spec: PrimeFunctionSpec, n: int, sieve: FactorSieve) -> float:
    """(1*f)(n), each h(p^a) = 1 + f(p) + ... + f(p)^a summed in nonnegative pairs; >= 0."""
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


#: n per chunk of :func:`_stream_blocks`: two ``_BLOCK`` slices of the sums
#: that read it, and a pass's temporaries (a few arrays of half this length)
#: stay in cache
_CHUNK = 2 * _BLOCK


#: result dtype of each exact stream: the narrowest integer type that holds
#: every value and intermediate of its step below 2^32 (see :func:`_stream_blocks`)
_EXACT_DTYPES = {
    DerivedFunctionKind.F_PLAIN: np.int8,
    DerivedFunctionKind.F_MU2: np.int8,
    DerivedFunctionKind.H_CONV: np.int16,
    DerivedFunctionKind.G_CONV: np.int16,
}


def _prime_values(
    spec: PrimeFunctionSpec, limit: int, sieve: FactorSieve, dtype
) -> tuple[np.generic, np.generic | np.ndarray]:
    """(f(2), f of the odd primes) for :func:`_stream_blocks`, in ``dtype``.

    The second is one scalar, f(3), when the spec is flat: every odd prime
    <= limit has the same f(p).  That holds when the spec has a base value
    (``_base_value``), unless an exception sits on an odd prime <= limit;
    below 3 no odd n > 1 takes a step, so f(3) is then never read.
    Otherwise it is a table over the odd n <= isqrt(limit) only, indexed
    like the sieve's spf table by ``p >> 1``, filled by one
    :func:`f_at_primes` call.  Its primes are read from the same first
    cells of spf (odd n > 1 with spf(n) = n), so a stream reads no prime
    table.  Every odd composite n <= limit has spf(n) <= isqrt(limit), so
    the table misses only the odd primes n above isqrt(limit), whose step
    has p = n and m = 1: :func:`_stream_blocks` evaluates those per chunk.
    Every value comes from ``_f_values``, elementwise, so a scalar, a table
    entry and a per-chunk value are bit for bit the f(p) of a table over
    every prime.
    """
    f2, f3 = _f_values(spec, np.array([2, 3])).astype(dtype)
    flat = _base_value(spec) is not None
    if flat and not any(2 < q <= limit for q, _ in spec.exceptions):
        return f2, f3
    cells = sieve._spf_cells(0, (math.isqrt(limit) + 1) // 2)
    odd = np.arange(1, 2 * cells.size, 2)
    at = np.flatnonzero(cells == odd)[1:]  # n = 1, the sentinel cell, is no prime
    table = np.zeros(cells.size, dtype=dtype)
    table[at] = f_at_primes(spec, odd[at])
    return f2, table


def _stream_blocks(
    spec: PrimeFunctionSpec,
    kinds: tuple[DerivedFunctionKind, ...],
    limit: int,
    sieve: FactorSieve,
    exact: bool,
) -> Iterator[tuple[int, list[np.ndarray]]]:
    """a(1..limit) of every derived function in ``kinds``, block by block, in one pass.

    Yields (lo, blocks) for lo = 0, _BLOCK, 2 _BLOCK, ... below limit:
    ``blocks[j]`` holds a(lo + 1), ..., a(hi) of ``kinds[j]``, with
    hi = min(lo + _BLOCK, limit), so it is the slice [lo, hi) of the whole
    stream that ``coefficient_stream`` returns.  A block is a view that
    the next chunk may overwrite: read it before drawing the next one.
    The arguments are checked when this is called, the steps run as the
    blocks are drawn, and only the chunks drawn are built.

    Each n takes one step from a(n / spf(n)).  For n with p = spf(n),
    m = n // p is at most n / 2, and p | m exactly when spf(m) == p.  A
    chunk [lo, hi) with hi <= 2 lo therefore reads only finished entries
    below lo, and fills in a few vector passes.  The steps, with f = f(p):

    * F_plain: a(n) = f * a(m), complete multiplicativity;
    * G_conv: a(n) = a(m) when p | m, else (1 + f) * a(m), since
      g(p^e) = 1 + f for every e >= 1;
    * F_mu2: a(n) = 0 when p | m, else f * a(m);
    * H_conv: a(n) = (1 + f) * a(m) - [p | m] * f * a(m / p).  With n =
      p^e r, p not dividing r, this is h(p^e) = (1 + f) h(p^(e-1))
      - f h(p^(e-2)), the recurrence with characteristic roots 1 and f,
      times h(r); m / p = n / p^2 is finished too.

    Chunks hold _CHUNK = 2 _BLOCK n each, the n in (j _CHUNK, (j+1) _CHUNK],
    so each one hands on two blocks without a copy; the first is filled in
    passes [lo, 2 lo) from lo = 2.  Later steps read only a(m), a(m / p)
    and a(n / 4), all at n / 2 <= limit / 2 or below, so only
    a(1..kept) is kept, with kept the first chunk end at or past
    limit / 2 (or limit, if smaller): every chunk past kept is written to
    one scratch chunk per kind, reused.  The kinds share one pass per
    chunk: p, n // p, the mask of p | m and f are formed once for all.

    Each chunk is split by parity.  Even n have p = 2, m = n / 2, and
    p | m exactly when 4 | n, so their half takes no division and no
    gather: a(n / 2) is a block of the kept entries, a(n / 4) another,
    f = f(2) is one scalar, and stride-2 views of the chunk's even n split
    them by their class mod 4.  Odd n read p from the chunk's own cells
    ``spf[lo/2 : hi/2]`` of the sieve's odd-only table
    (``FactorSieve._spf_cells``, which reads them from the cache file a
    loaded sieve holds), and no other cell of spf: a stream holds one
    chunk of the table at a time.  m = n // p is divided in uint32 and
    formed once as ``np.intp``, the index type of every gather that reads
    it.  The mask of p | m is ``m % p == 0``, from the one ``np.divmod``
    that also gives H its m // p, exact because p = spf(n) and every
    prime factor of m = n / p is at least p, so p | m exactly when
    spf(m) = p.  The "when p | m" choices multiply by the 0/1 mask
    (np.where has no fast path for 1-byte items); F_mu2's float step keeps
    np.where.  The odd half's f is
    one scalar for a flat spec, else a gather at ``p >> 1`` from the f(p)
    table of the odd primes up to isqrt(limit) (see :func:`_prime_values`),
    with the chunk's primes above isqrt(limit) evaluated by ``_f_values``:
    int8 for exact streams (values in {-1, 0, 1}), float64 otherwise.

    No bit depends on the chunking, on the kinds built together or on the
    split.  Each entry is the same operation on the same operands, in the
    same association, as the masked step; the even half only leaves out
    products with a mask whose value is known.  In float that is exact:
    times 1 is the identity, G's 1 + f * 0 is 1, and H's subtracted term
    f a(m / p) * 0 is a signed zero, which changes no H value because H
    values are never -0.0 (h(m) >= 0 and 1 + f >= 0).  F_mu2 where 4 | n
    is written 0, the value np.where gave.  A scalar f is bit for bit the
    table entry it replaces.

    Exact streams (``exact``, every f(p) in {-1, 0, 1}) are integer and
    stored in the narrowest dtype of ``_EXACT_DTYPES``.  F and F_mu2 take
    values in {-1, 0, 1}: int8.  For n < 2^32 (every allowed sieve) H and
    G fit int16: |h(p^e)| <= e + 1, so |h(n)| <= d(n) <= 1344, and the H
    step's largest intermediate is (1 + f) a(m) <= 2 * 1344; g(n) <=
    2^omega(n) <= 2^9, as the product of the first ten primes passes 2^32.

    In float, G and F_mu2 round once per prime power, F once per prime
    factor (within about Omega(n) ulp of the exact product); a zero F_mu2
    entry may be -0.0 (f < 0 times a zero), which no nonzero sum can see.
    H's step is a sum of two nonnegative terms when f <= 0, so nothing
    cancels: h(p^e) stays within 10 units of 2^-53 relative (measured to
    e = 64).  For 0 < f < 1 the step subtracts, and near f = 1 the roots 1
    and f meet, so an error made at exponent k reaches exponent e
    multiplied by about e - k + 1: the error of h(p^e) grows like e^2,
    measured at most e (e + 4) / 4 units of 2^-53 relative (1.7e-14 for
    e <= 23, that is n <= 10^7).  Errors of the prime powers of n add.

    Raises TypeError when a kind is not a DerivedFunctionKind (its last
    step would otherwise take any other value for H_conv), and ValueError
    when limit lies outside [1, sieve limit].
    """
    _check_stream(kinds, limit, sieve)
    return _fill(spec, tuple(kinds), limit, sieve, exact)


def _check_stream(kinds, limit: int, sieve: FactorSieve) -> None:
    for kind in kinds:
        if not isinstance(kind, DerivedFunctionKind):
            raise TypeError(f"kind must be a DerivedFunctionKind, got {type(kind).__name__}")
    if not 1 <= limit <= sieve.limit:
        raise ValueError(f"limit {limit} outside [1, sieve limit {sieve.limit}]")


def _fill(spec, kinds, limit, sieve, exact, whole=None) -> Iterator[tuple[int, list[np.ndarray]]]:
    """The generator behind :func:`_stream_blocks`, which checks its arguments.

    ``whole``, one zeroed array of limit + 1 entries per kind, keeps every
    entry (a(n) at index n) instead of a(1..kept) and a scratch chunk.
    """
    root = math.isqrt(limit)
    f2, f_odd = _prime_values(spec, limit, sieve, np.int8 if exact else np.float64)
    dtypes = [_EXACT_DTYPES[kind] if exact else np.float64 for kind in kinds]
    if whole is None:  # through the first chunk end at or past limit / 2
        kept = min(limit, max(_CHUNK, -(-(limit // 2) // _CHUNK) * _CHUNK))
        heads = [np.zeros(kept + 1, dtype=dtype) for dtype in dtypes]  # a(n) at index n
    else:
        kept, heads = limit, whole
    for head in heads:
        head[1] = 1
    masked = any(kind is not DerivedFunctionKind.F_PLAIN for kind in kinds)

    def step(lo: int, hi: int, outs: list[np.ndarray]) -> None:
        """a(lo), ..., a(hi - 1) of every kind into ``outs``, out[i] = a(lo + i)."""
        # odd n: p, m = n // p, f and the mask of p | m, shared by every kind
        p = sieve._spf_cells(lo >> 1, hi >> 1)
        q = np.arange(lo | 1, hi, 2, dtype=np.uint32) // p  # n // p, divided in uint32
        m = q.astype(np.intp)
        f = f_odd
        if f_odd.ndim:
            # take converts uint32 fast; an odd prime n past the table
            # (p = n > isqrt(limit)) reads its last entry, then its own f(p)
            f = np.take(f_odd, p >> 1, mode="clip")
            big = np.flatnonzero(p > root)
            f[big] = _f_values(spec, p[big])
        if masked:  # one division gives H's m // p and the remainder's mask
            m_p, rest = np.divmod(q, p)
            again = rest == 0
            apart = ~again
        # even n = 2k: ``half`` holds a(k) for the n of ``even``; n4 picks
        # those with 4 | n (k even), n2 the others
        k = (lo + 1) // 2
        n4, n2 = slice(k & 1, None, 2), slice(1 - (k & 1), None, 2)
        for kind, vals, out in zip(kinds, heads, outs):
            even, half = out[lo & 1 :: 2], vals[k : (hi + 1) // 2]
            odd, a = out[1 - (lo & 1) :: 2], vals[m]
            if kind is DerivedFunctionKind.F_PLAIN:
                np.multiply(f2, half, out=even)
                odd[...] = f * a
            elif kind is DerivedFunctionKind.G_CONV:
                even[n4] = half[n4]
                even[n2] = (1 + f2) * half[n2]
                odd[...] = (1 + f * apart) * a
            elif kind is DerivedFunctionKind.F_MU2:
                even[n4] = 0
                even[n2] = f2 * half[n2]
                # a float f * a < 0 times False is -0.0, where np.where
                # gives 0.0, so only the exact path multiplies
                odd[...] = f * a * apart if exact else np.where(again, 0, f * a)
            else:  # H_CONV
                even[n2] = (1 + f2) * half[n2]
                even[n4] = (1 + f2) * half[n4] - f2 * vals[(lo + 3) // 4 : (hi + 3) // 4]
                odd[...] = (1 + f) * a - f * vals[m_p.astype(np.intp)] * again

    def blocks(start: int, outs: list[np.ndarray]):
        for lo in range(0, outs[0].size, _BLOCK):
            yield start + lo, [out[lo : lo + _BLOCK] for out in outs]

    end = min(limit, _CHUNK)
    lo = 2
    while lo <= end:
        hi = min(2 * lo, end + 1)
        step(lo, hi, [head[lo:hi] for head in heads])
        lo = hi
    yield from blocks(0, [head[1 : end + 1] for head in heads])
    scratch = None
    for start in range(_CHUNK, limit, _CHUNK):
        lo, hi = start + 1, min(start + _CHUNK, limit) + 1
        if hi - 1 <= kept:
            outs = [head[lo:hi] for head in heads]
        else:
            if scratch is None:
                scratch = [np.empty(_CHUNK, dtype=dtype) for dtype in dtypes]
            outs = [buf[: hi - lo] for buf in scratch]
        step(lo, hi, outs)
        yield from blocks(start, outs)


def _stream(
    spec: PrimeFunctionSpec,
    kind: DerivedFunctionKind,
    limit: int,
    sieve: FactorSieve,
    exact: bool,
) -> np.ndarray:
    """a(1..limit) of one kind as one array: the blocks of :func:`_stream_blocks`,
    every one of them kept."""
    _check_stream((kind,), limit, sieve)
    vals = np.zeros(limit + 1, dtype=_EXACT_DTYPES[kind] if exact else np.float64)
    for _ in _fill(spec, (kind,), limit, sieve, exact, [vals]):
        pass
    return vals[1:]


def coefficient_stream(
    spec: PrimeFunctionSpec,
    kind: DerivedFunctionKind,
    limit: int,
    sieve: FactorSieve,
) -> np.ndarray:
    """Array of the selected function at n = 1..limit (index i holds a(i+1)).

    Agrees with pointwise evaluation to rounding; computed in bulk by one
    step per n from a(n / spf(n)), in chunks of 2^16 entries (about
    limit / 2^16 + 16 vector passes, O(limit) work).  The library itself
    never holds a whole stream: its sums read the same blocks one at a
    time (``_coefficients``), with the same bits.
    """
    return _stream(spec, kind, limit, sieve, exact=False)


def integer_coefficient_stream(
    spec: PrimeFunctionSpec,
    kind: DerivedFunctionKind,
    limit: int,
    sieve: FactorSieve,
) -> np.ndarray:
    """Exact integer stream for specs with f(p) in {-1, 0, 1}.

    The dtype is the narrowest that holds every value of the kind below
    2^32: int8 for F_plain and F_mu2 (values in {-1, 0, 1}), int16 for
    H_conv (|h(n)| <= d(n) <= 1344) and G_conv (g(n) <= 2^9).  Sum it with
    an int64 accumulator (``np.sum(..., dtype=np.int64)``, as
    :func:`~multlab.summation.exact_prefix_sums_at` does), never in its own
    dtype.

    Raises ValueError when the spec is not integer-valued.  The library's
    own sums read the same blocks for every spec that has them
    (:func:`_coefficients`).
    """
    if not spec_is_pm1(spec):
        raise ValueError("integer stream requires f(p) in {-1, 0, 1} everywhere")
    return _stream(spec, kind, limit, sieve, exact=True)


def _coefficients(
    spec: PrimeFunctionSpec,
    kinds: tuple[DerivedFunctionKind, ...],
    limit: int,
    sieve: FactorSieve,
) -> tuple[bool, Iterator[tuple[int, list[np.ndarray]]]]:
    """The one stream of (spec, kind) that every consumer reads, for each of ``kinds``.

    (exact, blocks): the exact integer streams when :func:`spec_is_pm1`
    holds (exact is True), else the float streams, as the blocks of one
    :func:`_stream_blocks` pass.  No consumer holds a whole stream, so the
    public stream functions, which collect the same blocks, see only the
    whole-array builds of their own callers.
    """
    exact = spec_is_pm1(spec)
    return exact, _stream_blocks(spec, kinds, limit, sieve, exact)


LIOUVILLE = liouville_spec()
