"""Smallest-prime-factor sieve and the classical arithmetic functions.

The central object is :class:`FactorSieve`: a table ``spf[n]`` holding the
smallest prime factor of every ``n`` up to a limit.  ``factorize`` is then
repeated division by ``spf`` in O(log n), and lambda(n), mu(n), mu^2(n) and
Omega(n) are read from its result.

Construction is segmented (fixed-size blocks) and may be internally
thread-parallel: segments are disjoint slices of the output array, and each
returns the primes it found, joined in segment order, so the table and its
primes are byte-identical regardless of thread count or scheduling.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

#: segment length for the sieve construction loop (elements, ~4 MiB of u32)
_SEGMENT = 1 << 20

#: every sieve limit must lie below this: spf cells are uint32
_LIMIT_BOUND = 2 ** 32


@dataclass(frozen=True)
class FactorSieve:
    """Smallest-prime-factor table for 1..limit, with its primes.

    Attributes
    ----------
    limit : int
        Inclusive upper bound N.
    spf : np.ndarray
        uint32 array of length N+1; ``spf[n]`` is the smallest prime factor
        of n for 2 <= n <= N.  ``spf[1] = 1`` is a sentinel so factorization
        loops need no special case; ``spf[0] = 0`` is unused.
    primes : np.ndarray
        The primes <= limit, ascending: those ``build_sieve`` recorded while
        sieving, or the table stored beside ``spf`` in the sieve cache.
        Given in any integer dtype and copied into a read-only int64 array
        the sieve owns: the caller's array stays writeable, and writes to
        it do not reach the sieve.
    """

    limit: int
    spf: np.ndarray
    primes: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.spf.shape != (self.limit + 1,):
            raise ValueError("spf length must equal limit + 1")
        primes = np.array(self.primes, dtype=np.int64)
        primes.flags.writeable = False
        object.__setattr__(self, "primes", primes)

    @functools.cached_property
    def log_primes(self) -> np.ndarray:
        """Read-only float64 array of log p, aligned with ``primes``.

        Computed by ``np.log`` on first use and kept for the sieve's life,
        so the Euler products and the prime sums share one table.
        """
        log_primes = np.log(self.primes.astype(np.float64))
        log_primes.flags.writeable = False
        return log_primes


def _sieve_segment(
    spf: np.ndarray, small_primes_desc: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Fill spf[lo:hi) and return the n in [lo, hi) it left unmarked, ascending.

    Those are the primes of the segment (plus 0 and 1 when lo = 0).  Writes
    touch only this slice, so segments are safe to run in parallel.
    """
    view = spf[lo:hi]
    for p in small_primes_desc:
        p = int(p)
        start = max(2 * p, ((lo + p - 1) // p) * p)
        if start >= hi:
            continue
        # descending prime order: the last (smallest) write wins
        view[start - lo :: p] = p
    idx = np.nonzero(view == 0)[0]
    unmarked = idx + lo
    view[idx] = unmarked
    return unmarked


def _cpus() -> int:
    """The CPUs this process may run on, so ``taskset`` or a cpuset limits pools."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - platforms without CPU affinity


def _ordered_map(fn, items, threads: int = 0) -> list:
    """``[fn(x) for x in items]``, on a thread pool when that can help.

    ``threads``: 0 = auto (``_cpus()``), 1 = inline, k > 1 = at most k
    workers.  A single item, or a single thread, runs inline and starts no
    pool.  Results come back in item order, and an exception raised by
    ``fn`` propagates from the first item that raised, as it would inline,
    so the outcome does not depend on the thread count.  ``fn`` must not
    call multlab's public functions: they may be wrapped by callers that
    expect to run on one thread.
    """
    items = list(items)
    if threads == 0:
        threads = _cpus()
    threads = min(threads, len(items))
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def build_sieve(limit: int, threads: int = 0) -> FactorSieve:
    """Build the smallest-prime-factor table for 1..limit and record its primes.

    Parameters
    ----------
    limit : int
        Inclusive bound, >= 2.  Practical maximum is set by memory
        (4 bytes per integer: 4 GB at 10^9) and by the uint32 cell type
        (limit < 2^32); the segmented loop itself scales past 10^9.
    threads : int
        0 = auto, 1 = sequential, k > 1 = worker threads (see
        ``_ordered_map``).  Output is byte-identical for every setting:
        workers own disjoint segments of the output array, and the primes
        are joined in segment order.

    Returns
    -------
    FactorSieve
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    if limit >= _LIMIT_BOUND:
        raise ValueError(f"limit {limit} exceeds uint32 cell capacity")
    try:
        spf = np.zeros(limit + 1, dtype=np.uint32)
    except MemoryError as exc:  # pragma: no cover - depends on host memory
        raise MemoryError(
            f"cannot allocate {(limit + 1) * 4} bytes for spf table (limit={limit})"
        ) from exc

    root = math.isqrt(limit)
    # boolean sieve of the small primes used to mark composites
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p :: p] = False
    small_primes_desc = np.nonzero(small)[0][::-1].astype(np.uint32)

    def segment(lo: int) -> np.ndarray:
        return _sieve_segment(spf, small_primes_desc, lo, min(lo + _SEGMENT, limit + 1))

    parts = _ordered_map(segment, range(0, limit + 1, _SEGMENT), threads)
    parts[0] = parts[0][2:]  # 0 and 1 are unmarked but not prime

    spf[0] = 0
    spf[1] = 1
    return FactorSieve(limit=limit, spf=spf, primes=np.concatenate(parts))


def factorize(n: int, sieve: FactorSieve) -> list[tuple[int, int]]:
    """Canonical factorization of n as [(p, a), ...] with ascending primes.

    ``factorize(1)`` is the empty list.  The one division loop over ``spf``:
    the arithmetic functions below and pointwise evaluation read it.
    """
    if not 1 <= n <= sieve.limit:
        raise ValueError(f"argument {n} outside [1, sieve limit {sieve.limit}]")
    spf = sieve.spf
    out: list[tuple[int, int]] = []
    m = n
    while m > 1:
        p = int(spf[m])
        a = 0
        while m % p == 0:
            m //= p
            a += 1
        out.append((p, a))
    return out


def big_omega(n: int, sieve: FactorSieve) -> int:
    """Omega(n): number of prime factors counted with multiplicity."""
    return sum(a for _, a in factorize(n, sieve))


def liouville(n: int, sieve: FactorSieve) -> int:
    """(-1)^Omega(n); completely multiplicative, -1 at every prime."""
    return -1 if big_omega(n, sieve) & 1 else 1


def moebius(n: int, sieve: FactorSieve) -> int:
    """mu(n): 0 unless n is squarefree, else (-1)^(number of prime factors)."""
    factors = factorize(n, sieve)
    if any(a > 1 for _, a in factors):
        return 0
    return -1 if len(factors) & 1 else 1


def is_squarefree(n: int, sieve: FactorSieve) -> bool:
    """True iff no prime divides n twice."""
    return moebius(n, sieve) != 0


def primes_up_to(x: int, sieve: FactorSieve) -> np.ndarray:
    """Ascending int64 array of the primes in [2, x].

    The result is a read-only view of ``sieve.primes``: copy it before
    writing to it.  Raises ValueError for x past the sieve limit, the range
    check every prime-side function relies on.
    """
    if x > sieve.limit:
        raise ValueError(f"x={x} exceeds sieve limit {sieve.limit}")
    return sieve.primes[: np.searchsorted(sieve.primes, x, side="right")]
