"""Prime table and smallest-prime-factor sieve, and the classical arithmetic functions.

The central object is :class:`FactorSieve`: the primes up to a limit, and
a table holding the smallest prime factor of every odd ``n`` up to it, at
index ``n >> 1`` (the mod-2 wheel: every even n has spf 2, so it is not
stored).  ``build_sieve`` sieves the primes alone; the spf table (4 bytes
per odd n) is sieved the first time it is read, so work that reads only
the primes (the prime sums, the Euler products) never holds it.  A sieve
loaded from the CLI's cache instead holds the checked file and reads spf
from it a run of cells at a time (``FactorSieve._spf_cells``), which is
how the coefficient streams read spf, chunk by chunk: a command that
streams holds neither table.  ``factorize`` is repeated division by spf
in O(log n), and lambda(n), mu(n), mu^2(n) and Omega(n) are read from its
result.

Both tables come from one segmented loop over fixed-size blocks of odd
n, run on the calling thread.  The prime table is sieved in one reused
1 MiB scratch segment of bool cells; the spf table is sieved in place,
each segment in its own slice of the table; and a sieving pass that
writes spf to a file sieves each segment in one reused 1 MiB scratch
segment and hands it on, in segment order, as soon as it is finished.
The loop itself holds O(sqrt(limit)) small primes plus at most one
segment: it scales past 10^9, where what a caller keeps is its own
choice (the primes, 8 bytes each; the spf table, 4 bytes per odd n,
2 GB).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

#: bytes of one segment of the sieve loop: 2^20 odd n for the primes alone
#: (bool cells), 2^18 for spf (uint32 cells).  A segment this size stays
#: in a core's cache: on a 2-vCPU x86 VM, 4 MiB segments of spf sieved
#: 10^7 in 39 ms against 24 ms for these
_SEGMENT_BYTES = 1 << 20

#: every sieve limit must lie below this: spf cells are uint32
_LIMIT_BOUND = 2 ** 32


@dataclass(frozen=True, eq=False, init=False)
class FactorSieve:
    """The primes up to a limit, and their smallest-prime-factor table.

    Sieves compare by identity, so no comparison or hash reads a table.
    A sieve loaded from the CLI's cache holds that file open to read spf
    from; ``close`` releases it (a no-op for every other sieve), and a
    sieve used as a context manager closes on exit.

    Attributes
    ----------
    limit : int
        Inclusive upper bound N.
    primes : np.ndarray
        The primes <= limit, ascending: those the sieve recorded, or the
        table stored beside ``spf`` in the sieve cache.  Given in any
        integer dtype and copied into a read-only int64 array the sieve
        owns: the caller's array stays writeable, and writes to it do not
        reach the sieve.  A sieve given none (loaded for spf alone)
        sieves them on first read.
    spf : np.ndarray
        uint32 array of length (N+1)//2 over the odd n <= N: ``spf[i]`` is
        the smallest prime factor of n = 2i + 1, so spf(n) is ``spf[n >> 1]``
        for odd n and 2 for even n.  ``spf[0] = 1`` (n = 1) is a sentinel so
        factorization loops need no special case.  Given None, it is
        sieved on first read, or read whole from the held file (see the
        property).
    """

    limit: int

    def __init__(self, limit: int, spf: np.ndarray | None, primes: np.ndarray) -> None:
        self._own(limit, spf, np.array(primes, dtype=np.int64))

    @classmethod
    def _taking(cls, limit: int, spf, primes: np.ndarray | None) -> FactorSieve:
        """A sieve that takes ``primes``, a fresh int64 array, without a copy.

        ``spf`` is the table, None, or ``(file, offset)``: a binary file
        open for reading whose bytes from ``offset`` on are the table's
        cells as little-endian uint32, checked by the caller.  The sieve
        then owns the file and reads spf from it.  A table given None is
        sieved on first read.
        """
        sieve = cls.__new__(cls)
        sieve._own(limit, spf, primes)
        return sieve

    def _own(self, limit: int, spf, primes: np.ndarray | None) -> None:
        held = None
        if isinstance(spf, tuple):
            held, spf = (*spf, threading.Lock()), None
        elif spf is not None and spf.shape != ((limit + 1) // 2,):
            raise ValueError("spf length must equal (limit + 1) // 2, one cell per odd n")
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "_held", held)  # (file, offset, lock of its position)
        # an instance's own value hides the property of the same name below
        if spf is not None:
            object.__setattr__(self, "spf", spf)
        if primes is not None:
            self._keep_primes(primes)

    def _keep_primes(self, primes: np.ndarray) -> None:
        primes.flags.writeable = False
        object.__setattr__(self, "primes", primes)

    @functools.cached_property
    def primes(self) -> np.ndarray:
        """The prime table, sieved on first read when the sieve was given none."""
        primes = _sieve(self.limit)
        primes.flags.writeable = False
        return primes

    @functools.cached_property
    def spf(self) -> np.ndarray:
        """The whole spf table, read from the held file or sieved on first read.

        Sieved in place, one segment at a time, by the loop that sieves
        the primes, so the pass holds the table and one segment's
        transients, never a second copy of a segment; it also keeps its
        primes when the sieve has none.  The table is kept for the
        sieve's life.
        """
        if self._held is not None:
            return self._read(0, (self.limit + 1) // 2)
        table = np.empty((self.limit + 1) // 2, dtype=np.uint32)
        self._sieve_spf(table=table)
        return table

    def _spf_cells(self, start: int, stop: int) -> np.ndarray:
        """spf[start:stop], without holding the table when the sieve holds a file.

        Read from the held file when the sieve has not read the table
        whole; otherwise a view of ``spf`` (sieved on first use).
        """
        if self._held is None or "spf" in vars(self):
            return self.spf[start:stop]
        return self._read(start, stop)

    def _read(self, start: int, stop: int) -> np.ndarray:
        """spf[start:stop] from the held file, into a fresh array."""
        cells = np.empty(stop - start, dtype="<u4")
        file, offset, lock = self._held
        with lock:  # seek and read move one shared position
            file.seek(offset + 4 * start)
            if file.readinto(cells) != cells.nbytes:
                raise OSError(f"the sieve cache file ends before spf cell {stop}")
        return cells.astype(np.uint32, copy=False)

    def _spf_segments(self, sink) -> None:
        """Hand the spf table to ``sink(start, cells)`` in order, in contiguous runs.

        A sieve that holds neither the table nor a file runs one sieving
        pass and hands on each segment as it is finished (``_sieve``), so
        the table is never held whole; any other hands on ``spf`` whole.
        """
        if self._held is None and "spf" not in vars(self):
            self._sieve_spf(sink=sink)
        else:
            sink(0, self.spf)

    def _sieve_spf(self, table: np.ndarray | None = None, sink=None) -> None:
        """Sieve spf into ``table`` or to ``sink`` (see ``_sieve``); the
        pass's primes are kept when the sieve has none."""
        keep = "primes" not in vars(self)
        primes = _sieve(self.limit, table, sink, primes=keep)
        if keep:
            self._keep_primes(primes)

    def close(self) -> None:
        """Close the file a loaded sieve reads spf from; tables already read stay."""
        if self._held is not None:
            self._held[0].close()

    def __enter__(self) -> FactorSieve:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
    uint32 cells of the spf table, where each cell ends as its smallest
    prime factor (an unmarked one as n itself), or bool cells, where every
    cell ends True.  The unmarked n are the odd primes of the
    segment (plus 1 when lo = 0), ascending, as uint32 (every n < 2^32, at
    half the bytes of int64).  The odd multiples of p sit at every p-th
    index, and p^2 is the first one whose smallest prime factor can be p.
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


def _sieve(
    limit: int, table: np.ndarray | None = None, sink=None, primes: bool = True
) -> np.ndarray | None:
    """The primes <= limit, a fresh ascending int64 array; with ``table`` or ``sink``, spf too.

    One loop over segments of _SEGMENT_BYTES, in order, on the calling
    thread.  Alone it marks bool cells of one reused scratch segment.
    With ``table``, an array of (limit + 1) // 2 uint32 cells, each
    segment is the table's own slice, so spf is sieved in place.  With
    ``sink``, each segment is one reused uint32 scratch segment, handed
    to ``sink(start, cells)`` as soon as it is finished, ``start`` being
    the index of its first cell; so the pass never holds the table, and
    a sink may write segments straight to a file.  ``cells`` is
    overwritten after the call.  ``primes=False`` keeps no primes and
    returns None.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    if limit >= _LIMIT_BOUND:
        raise ValueError(f"limit {limit} exceeds uint32 cell capacity")
    cells = (limit + 1) // 2
    root = math.isqrt(limit)
    # boolean sieve of the small primes used to mark composites
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p :: p] = False
    odd_primes_desc = np.nonzero(small[3:])[0][::-1].astype(np.uint32) + 3
    dtype = bool if table is None and sink is None else np.uint32
    length = _SEGMENT_BYTES // np.dtype(dtype).itemsize
    scratch = None if table is not None else np.empty(min(length, cells), dtype=dtype)
    parts = []
    for lo in range(0, cells, length):
        hi = min(lo + length, cells)
        view = table[lo:hi] if scratch is None else scratch[: hi - lo]
        view[:] = 0
        found = _sieve_segment(view, odd_primes_desc, lo)
        if sink is not None:
            sink(lo, view)
        if primes:
            parts.append(found)
    del scratch, view  # the segment goes before the join
    if not primes:
        return None
    parts[0] = parts[0][1:]  # 1 is unmarked but not prime; spf[0] = 1 is its sentinel
    return np.concatenate([[2], *parts], dtype=np.int64)


def build_sieve(limit: int, threads: int = 0) -> FactorSieve:
    """Sieve the primes <= limit; the spf table follows on its first read.

    Parameters
    ----------
    limit : int
        Inclusive bound, >= 2, below 2^32 (the uint32 cells of spf).  The
        build holds the primes (8 bytes each: 0.4 GB at 10^9) and one
        1 MiB scratch segment; reading ``spf`` adds 4 bytes per odd
        integer (2 GB at 10^9), sieved in place.  The coefficient streams
        read spf a chunk at a time, but from a built sieve they read that
        whole table; only a sieve loaded from the CLI's cache reads its
        chunks from the file.
    threads : int
        Ignored.  The sieve runs on the calling thread: on a 2-vCPU VM a
        pool of two workers sieved the primes no faster than one thread
        (and spf slower), while each worker held a scratch segment.  The
        parameter stays so that existing calls still run.

    Returns
    -------
    FactorSieve
    """
    return FactorSieve._taking(limit, None, _sieve(limit))


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
