"""Prime table and smallest-prime-factor sieve, and the classical arithmetic functions.

The central object is :class:`FactorSieve`: the primes up to a limit, and
a table holding the smallest prime factor of every odd ``n`` up to it, at
index ``n >> 1`` (the mod-2 wheel: every even n has spf 2, so it is not
stored).  ``build_sieve`` sieves the primes alone, on a one-byte scratch
segment per worker; the spf table (4 bytes per odd n) is sieved the first
time it is read, so work that reads only the primes (the prime sums, the
Euler products) never holds it.  ``factorize`` is then repeated division
by spf in O(log n), and lambda(n), mu(n), mu^2(n) and Omega(n) are read
from its result.

Both tables come from one segmented routine (fixed-size blocks of odd n),
which may be internally thread-parallel: segments are disjoint slices of
the output, and each returns the primes it found, joined in segment order
after 2, so the table and its primes are byte-identical regardless of
thread count or scheduling.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

#: segment length for the sieve construction loop (odd n, so 2^21 integers;
#: ~4 MiB of u32 in the spf table, 1 MiB of scratch for the primes alone)
_SEGMENT = 1 << 20

#: every sieve limit must lie below this: spf cells are uint32
_LIMIT_BOUND = 2 ** 32


@dataclass(frozen=True, eq=False, init=False)
class FactorSieve:
    """The primes up to a limit, and their smallest-prime-factor table.

    Sieves compare by identity, so no comparison or hash reads spf.

    Attributes
    ----------
    limit : int
        Inclusive upper bound N.
    primes : np.ndarray
        The primes <= limit, ascending: those the sieve recorded, or the
        table stored beside ``spf`` in the sieve cache.  Given in any
        integer dtype and copied into a read-only int64 array the sieve
        owns: the caller's array stays writeable, and writes to it do not
        reach the sieve.
    spf : np.ndarray
        uint32 array of length (N+1)//2 over the odd n <= N: ``spf[i]`` is
        the smallest prime factor of n = 2i + 1, so spf(n) is ``spf[n >> 1]``
        for odd n and 2 for even n.  ``spf[0] = 1`` (n = 1) is a sentinel so
        factorization loops need no special case.  Given None, it is
        sieved on first read (see the property).
    """

    limit: int
    primes: np.ndarray = field(repr=False)

    def __init__(self, limit: int, spf: np.ndarray | None, primes: np.ndarray) -> None:
        self._own(limit, spf, np.array(primes, dtype=np.int64), 0)

    @classmethod
    def _taking(
        cls, limit: int, spf: np.ndarray | None, primes: np.ndarray, threads: int
    ) -> FactorSieve:
        """A sieve that takes ``primes``, a fresh int64 array, without a copy.

        ``threads`` is the pool size of its spf build (see ``_ordered_map``).
        """
        sieve = cls.__new__(cls)
        sieve._own(limit, spf, primes, threads)
        return sieve

    def _own(self, limit: int, spf: np.ndarray | None, primes: np.ndarray, threads: int) -> None:
        if spf is not None and spf.shape != ((limit + 1) // 2,):
            raise ValueError("spf length must equal (limit + 1) // 2, one cell per odd n")
        primes.flags.writeable = False
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "_threads", threads)
        if spf is not None:  # the instance's own value hides the property below
            object.__setattr__(self, "spf", spf)

    @functools.cached_property
    def spf(self) -> np.ndarray:
        """The spf table, sieved on first read when the sieve was given none.

        The same routine and pool as ``build_sieve`` (with its thread
        count), so the table is byte-identical for every thread count; it
        is kept for the sieve's life.
        """
        return _sieve(self.limit, self._threads, with_spf=True)[0]

    @functools.cached_property
    def log_primes(self) -> np.ndarray:
        """Read-only float64 array of log p, aligned with ``primes``.

        Computed by ``np.log`` on first use and kept for the sieve's life,
        so the Euler products and the prime sums share one table.
        """
        log_primes = np.log(self.primes, dtype=np.float64)
        log_primes.flags.writeable = False
        return log_primes


def _sieve_segment(view: np.ndarray, odd_primes_desc: np.ndarray, lo: int) -> np.ndarray:
    """Sieve one segment, ``view``, and return the n it left unmarked.

    ``view`` holds the zeroed cells of n = 2i + 1 for i = lo, lo + 1, ...:
    a slice of the spf table, where each cell ends as its smallest prime
    factor (an unmarked one as n itself), or a bool scratch segment, where
    every cell ends True.  The unmarked n are the odd primes of the
    segment (plus 1 when lo = 0), ascending, as uint32 (every n < 2^32, at
    half the bytes of int64).  The odd multiples of p sit at every p-th
    index, and p^2 is the first one whose smallest prime factor can be p.
    Writes touch only ``view``, so segments are safe to run in parallel.
    """
    hi = lo + view.size
    for p in odd_primes_desc:
        p = int(p)
        first = (p * p) >> 1
        if first >= hi:
            continue
        start = first if first >= lo else lo + (first - lo) % p
        # descending prime order: the last (smallest) write wins
        view[start - lo :: p] = p
    idx = np.nonzero(view == 0)[0]
    unmarked = idx.astype(np.uint32)
    unmarked *= 2
    unmarked += 2 * lo + 1
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


def _sieve(limit: int, threads: int, with_spf: bool) -> tuple[np.ndarray | None, np.ndarray]:
    """(the spf table, or None without ``with_spf``; the primes <= limit).

    The primes are a fresh ascending int64 array.  Without the table, each
    worker marks one reused bool scratch segment instead of the table's
    slice: 1 byte per odd n of a segment rather than 4 per odd n <= limit.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    if limit >= _LIMIT_BOUND:
        raise ValueError(f"limit {limit} exceeds uint32 cell capacity")
    cells = (limit + 1) // 2
    spf = None
    if with_spf:
        try:
            spf = np.zeros(cells, dtype=np.uint32)
        except MemoryError as exc:  # pragma: no cover - depends on host memory
            raise MemoryError(
                f"cannot allocate {cells * 4} bytes for spf table (limit={limit})"
            ) from exc

    root = math.isqrt(limit)
    # boolean sieve of the small primes used to mark composites
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p :: p] = False
    odd_primes_desc = np.nonzero(small[3:])[0][::-1].astype(np.uint32) + 3
    scratch = threading.local()  # each worker's bool segment

    def segment(lo: int) -> np.ndarray:
        hi = min(lo + _SEGMENT, cells)
        if spf is not None:
            return _sieve_segment(spf[lo:hi], odd_primes_desc, lo)
        if not hasattr(scratch, "cells"):
            scratch.cells = np.empty(min(_SEGMENT, cells), dtype=bool)
        view = scratch.cells[: hi - lo]
        view[:] = False
        return _sieve_segment(view, odd_primes_desc, lo)

    parts = _ordered_map(segment, range(0, cells, _SEGMENT), threads)
    del scratch  # the inline path's segment goes before the join
    parts[0] = parts[0][1:]  # 1 is unmarked but not prime; spf[0] = 1 is its sentinel
    return spf, np.concatenate([[2], *parts], dtype=np.int64)


def build_sieve(limit: int, threads: int = 0) -> FactorSieve:
    """Sieve the primes <= limit; the spf table follows on its first read.

    Parameters
    ----------
    limit : int
        Inclusive bound, >= 2, below 2^32 (the uint32 cells of spf).  The
        build holds the primes (8 bytes each: 0.4 GB at 10^9) and a 1 MiB
        scratch segment per worker; reading ``spf`` adds 4 bytes per odd
        integer (2 GB at 10^9).  The segmented loop itself scales past 10^9.
    threads : int
        0 = auto, 1 = sequential, k > 1 = worker threads (see
        ``_ordered_map``), for this build and the later spf build.  Output
        is byte-identical for every setting: workers own disjoint segments
        of the output, and the primes are joined in segment order.

    Returns
    -------
    FactorSieve
    """
    _, primes = _sieve(limit, threads, with_spf=False)
    return FactorSieve._taking(limit, None, primes, threads)


def _build_with_spf(limit: int) -> FactorSieve:
    """``build_sieve(limit)`` with its spf table sieved in the same pass."""
    spf, primes = _sieve(limit, 0, with_spf=True)
    return FactorSieve._taking(limit, spf, primes, 0)


def factorize(n: int, sieve: FactorSieve) -> list[tuple[int, int]]:
    """Canonical factorization of n as [(p, a), ...] with ascending primes.

    ``factorize(1)`` is the empty list.  The one division loop over spf
    (2 for even m, else ``spf[m >> 1]``): the arithmetic functions below
    and pointwise evaluation read it.
    """
    if not 1 <= n <= sieve.limit:
        raise ValueError(f"argument {n} outside [1, sieve limit {sieve.limit}]")
    spf = sieve.spf
    out: list[tuple[int, int]] = []
    m = n
    while m > 1:
        p = int(spf[m >> 1]) if m & 1 else 2
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
