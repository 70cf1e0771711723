"""Exactly rounded summation helpers, checkpoint schedules and the trace type.

Partial sums at desk scale run over up to ~10^8 terms; naive left-to-right
float accumulation can drift by far more than the tolerances used in the
verification suite.  Every float sum here is exactly rounded and equal bit
for bit to ``math.fsum``.  One private accumulator, ``_ExactSum``, splits
each slice of finite float64 terms into a few error-free pieces by the
vectorised extraction of Rump, Ogita & Oishi ("Accurate floating-point
summation part I: faithful rounding", SIAM J. Sci. Comput. 31(1), 2008),
keeps them, and lets ``math.fsum`` round all pieces once at the end; short
chunks, where the extraction's fixed cost outweighs its work, and other
input reach ``math.fsum`` unchanged.  A one-signed slice of normal terms
that span few enough binades (20 for a full 2^15-term slice) needs one
extraction level, its residual summing exactly as it is (the certificate
is in ``_ExactSum``); others take levels until the residual vanishes.
Because each sum is the exact sum rounded once, its value depends
neither on traversal order nor on the slicing.  One loop,
``_prefix_sums``, hands the accumulator each slice with the checkpoint
counts inside it, and one extraction per slice gives the value at all of
them; ``fsum_array``, ``prefix_sums_at`` and the prime-side sums all use
it, so each prefix is exactly rounded, whatever other checkpoints are
asked for.

Every checkpointed trace -- partial sums of a coefficient stream, S(x) and
the weighted prime tails -- is one ``PartialSumSeries``, and every trace
builder takes its checkpoints from ``_schedule``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: default growth ratio between consecutive checkpoints (quarter-octave grid)
DEFAULT_CHECKPOINT_RATIO = 2.0 ** 0.25

#: default first checkpoint
DEFAULT_CHECKPOINT_X0 = 10

#: most geometric steps a checkpoint grid may take from x0 to x_max, so a
#: ratio next to 1 cannot stall a trace (the default grid to 2^32 takes 115)
_MAX_CHECKPOINT_STEPS = 10 ** 6

#: terms per slice of every float sum and Euler-product chunk: a slice's
#: float64 temporaries (256 KiB apiece) stay in cache
_BLOCK = 1 << 15

#: a chunk of at most this many terms is kept raw, as plain floats: one
#: chunk and one ``value`` then cost 1.3-2.4 us at 8-64 terms, against
#: 8-9 us for a one-level extraction and 13-14 us for a two-level one;
#: raw costs 8 us at 256 terms and 16 us at 512, so it meets the one-level
#: extraction near 256 terms and the two-level one near 450 (Python 3.11,
#: numpy 2.4, 2-vCPU x86-64 VM).  Each raw term stays a piece that every
#: later ``value`` re-reads -- at each later cut of its slice, and for the
#: rest of the sum -- where an extraction leaves 2-4 pieces, so the cut
#: stays below both crossovers
_RAW_MAX = 64

#: a chunk of m terms with max |x| >= 2^(_EXP_LIMIT - bit_length(m + 2)) is kept
#: raw; below that neither the extraction constant nor any partial sum can
#: overflow, nor can the pieces of fewer than 2^20 chunks
_EXP_LIMIT = 1000

#: an extraction constant below 2^_MIN_SIGMA_EXP would leave the normal
#: range; a residual that small sums exactly in any order instead
_MIN_SIGMA_EXP = -1021

#: the smallest normal float64, 2^-1022
_MIN_NORMAL = 2.0 ** -1022


def checkpoint_schedule(
    x_max: int,
    x0: int = DEFAULT_CHECKPOINT_X0,
    ratio: float = DEFAULT_CHECKPOINT_RATIO,
) -> np.ndarray:
    """Geometric grid of integer checkpoints ``x = ceil(x0 * ratio**k)``.

    The grid is strictly increasing, starts at ``min(x0, x_max)`` and always
    ends exactly at ``x_max``.  Dense enough for log-log exponent fitting,
    sparse enough (a few dozen points per decade at the default ratio) to
    keep traces cheap.  A ratio past x_max / x0 gives just [x0, x_max].

    Parameters
    ----------
    x_max : int
        Last checkpoint, inclusive.  Must be >= 1.
    x0 : int
        First checkpoint (clipped to ``x_max``).
    ratio : float
        Multiplicative step, must be > 1, and large enough that
        log(x_max / x0) / log(ratio) <= 10^6 (``_MAX_CHECKPOINT_STEPS``).

    Returns
    -------
    np.ndarray of int64, ascending, ending at ``x_max``.
    """
    _check_checkpoint_grid(x_max, x0, ratio)
    points = []
    value = float(min(x0, x_max))
    while value < x_max:  # an overflowing value (inf) ends the grid too
        x = math.ceil(value)
        if x >= x_max:
            break
        if not points or x > points[-1]:
            points.append(x)
        value *= ratio
    points.append(int(x_max))
    return np.asarray(points, dtype=np.int64)


def _schedule(x_max: int, schedule) -> np.ndarray:
    """The checkpoints of a trace to ``x_max``, as a fresh int64 array.

    The default grid ``checkpoint_schedule(x_max)`` when ``schedule`` is
    None; otherwise ``schedule`` itself, which must hold at least one point
    and lie within [1, x_max] (``PartialSumSeries`` checks that it strictly
    ascends).
    """
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    if schedule is None:
        return checkpoint_schedule(x_max)
    points = np.array(schedule, dtype=np.int64)
    if not points.size:
        raise ValueError("schedule must hold at least one checkpoint")
    if points.min() < 1 or points.max() > x_max:
        raise ValueError(f"schedule must lie within [1, x_max={x_max}]")
    return points


@dataclass(frozen=True)
class PartialSumSeries:
    """A checkpointed trace: ``values[i]`` sums every term up to ``x_values[i]``.

    ``x_values`` (int64) strictly ascends and ``values`` is float64.
    ``exact`` marks sums accumulated on the integer path (coefficient
    values all in {-1, 0, 1}), where every value is exact.  The arrays make
    ``==`` between two series ambiguous: compare the fields with
    ``np.array_equal``.
    """

    x_values: np.ndarray
    values: np.ndarray
    exact: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_values", np.asarray(self.x_values, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if len(self.x_values) != len(self.values):
            raise ValueError("checkpoint and sum arrays must align")
        if np.any(np.diff(self.x_values) <= 0):
            raise ValueError("checkpoints must be strictly ascending")


def _check_checkpoint_grid(x_max: int, x0: int, ratio: float) -> None:
    """Raise ValueError unless ``checkpoint_schedule(x_max, x0, ratio)`` is valid."""
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    if x0 < 1:
        raise ValueError(f"x0 must be >= 1, got {x0}")
    if not ratio > 1.0:
        raise ValueError(f"checkpoint ratio must be > 1, got {ratio}")
    if x0 < x_max and math.log(x_max / x0) / math.log(ratio) > _MAX_CHECKPOINT_STEPS:
        raise ValueError(
            f"checkpoint ratio {ratio} needs more than {_MAX_CHECKPOINT_STEPS} "
            f"steps from {x0} to {x_max}"
        )


class _ExactSum:
    """Exact running sum of 1-D float64 chunks, rounded once by ``value``.

    ``add`` splits a chunk into a few error-free pieces by ExtractVector
    (Rump, Ogita & Oishi 2008) and keeps them.  For a chunk x of m terms
    pick sigma = 2^(M+e) with 2^M >= m + 2 and 2^(e-1) <= max|x| < 2^e;
    then ``q = (x + sigma) - sigma`` and ``r = x - q`` are exact, every q
    is a multiple of 2^-53 sigma, |r| <= 2^-53 sigma, and the |q|'s add up
    to less than sigma, so every sub-sum of the q's is exact in any order.
    Each level shrinks max|r| by at least 2^(52-M), so the levels go on,
    r taking the chunk's place, until r is zero, or until sigma would leave
    the normal range, where the residual (all multiples of 2^-1074, total
    below 2^-1021) also sums exactly.  The pieces add up exactly to the sum
    of every term added, so ``value`` -- ``math.fsum`` of the pieces -- is
    that sum rounded once, whatever the chunking.

    A one-signed, zero-free chunk whose smallest magnitude amin is normal,
    with 2^(e_min-1) <= amin < 2^e_min and a binade spread
    e - e_min <= 52 - 2M, takes one level and keeps its residual's plain
    sum.  Proof that every sub-sum of that residual is exact: each x_i is
    a multiple of its ulp, so of u = 2^(e_min-53), and each q_i is a
    multiple of 2^-53 sigma >= u, so every r_i is a multiple of u; and
    sum |r_i| <= m 2^-53 sigma < 2^(2M+e-53) <= 2^(e_min-1) = 2^52 u.  So
    every partial sum, in any order, is an integer multiple of u below
    2^52 u in magnitude, with u >= 2^-1074 because amin is normal: a float,
    reached without rounding.  Such a chunk costs 7 vector passes (max,
    min, the level's three and two sums) where two levels of the general
    loop cost 15.

    ``add`` reads the running value at cuts inside a chunk from the same
    levels: one ``np.add.reduceat`` gives each level's sums between
    consecutive cuts, and these add up in order, exactly (every sub-sum of
    a level is exact), to the level's prefix at each cut; the value at a
    cut is ``math.fsum`` of the earlier pieces and those prefixes, the
    exact sum up to the cut rounded once.

    A chunk of at most ``_RAW_MAX`` terms is kept as its raw values, which
    add up to the same exact sum, so ``value`` keeps every bit (signed
    zeros too: ``math.fsum`` of all -0.0 is 0.0, as with no piece) at a
    fraction of the extraction's fixed cost.  So is a longer chunk with inf
    or NaN, or with magnitudes near overflow (where sigma or a partial sum
    could overflow), so ``math.fsum`` meets them in order and gives its
    special value or exception.
    """

    dtype = np.float64

    def __init__(self, buf: np.ndarray | None = None) -> None:
        self.pieces: list[float] = []
        # r and q, reused while chunks fit; accumulators fed one chunk at a
        # time (as in one Dirichlet pass) may share one (2, m) array
        self._buf = np.empty((2, 0)) if buf is None else buf

    def add(self, chunk: np.ndarray, cuts=()) -> list[float]:
        """Take one chunk; return the running ``value`` at each of ``cuts``.

        ``cuts`` are offsets into the chunk, ascending and maybe repeated,
        in [0, len(chunk)]: the value at cut c is the exact sum of every
        term taken before the chunk and of its first c terms, rounded once.
        """
        m = chunk.shape[0]
        if m <= _RAW_MAX:
            return self._add_raw(chunk, cuts)
        width = (m + 1).bit_length()  # smallest M with 2^M >= m + 2
        hi, lo = float(chunk.max()), float(chunk.min())
        limit = math.ldexp(1.0, _EXP_LIMIT - width)
        if not (hi < limit and -lo < limit):  # also inf and NaN
            return self._add_raw(chunk, cuts)
        if m > self._buf.shape[1]:
            self._buf = np.empty((2, m))
        r, q = self._buf[0, :m], self._buf[1, :m]
        amax = hi if hi > -lo else -lo
        amin = lo if lo > 0.0 else -hi  # positive for one-signed, zero-free chunks only
        one_level = (
            amin >= _MIN_NORMAL and math.frexp(amax)[1] - math.frexp(amin)[1] <= 52 - 2 * width
        )
        # uncut, each level's sum is a piece; cut, each level's segment sums
        starts, ends = _segments(cuts, m) if len(cuts) else (None, None)
        parts = self.pieces if starts is None else []
        level = chunk
        while amax != 0.0:
            exp = width + math.frexp(amax)[1]
            if exp < _MIN_SIGMA_EXP:
                break
            sigma = math.ldexp(1.0, exp)
            np.add(level, sigma, out=q)
            np.subtract(q, sigma, out=q)
            np.subtract(level, q, out=r)
            level = r
            parts.append(float(q.sum()) if starts is None else np.add.reduceat(q, starts))
            if one_level:
                break
            amax = float(np.abs(r, out=q).max())
        else:
            level = None  # the residual is zero
        if level is not None:
            parts.append(float(level.sum()) if starts is None else np.add.reduceat(level, starts))
        if starts is None:
            return []
        # each level's exact prefix to the end of each segment, end by end
        rows = np.cumsum(np.reshape(parts, (len(parts), len(starts))), axis=1).T.tolist()
        prefixes = {0: [], **dict(zip(ends, rows))}
        at = {c: math.fsum(self.pieces + prefixes[c]) for c in dict.fromkeys(cuts)}
        self.pieces.extend(rows[-1])
        return [at[c] for c in cuts]

    def _add_raw(self, chunk: np.ndarray, cuts) -> list[float]:
        """``add`` keeping the chunk's own terms as its pieces."""
        terms = chunk.tolist()
        values, done = [], 0
        for c in cuts:
            self.pieces += terms[done:c]
            values.append(self.value())
            done = c
        self.pieces += terms[done:] if done else terms
        return values

    def value(self) -> float:
        return math.fsum(self.pieces)


class _IntSum:
    """Exact running sum of integer chunks: ``_ExactSum``'s counterpart for
    the exact streams.  Each chunk is summed with an int64 accumulator
    (exact while the sum of one chunk's |terms| stays below 2^63) and the
    chunks with a Python int, so the sum is exact for any realistic
    length."""

    dtype = np.int64

    def __init__(self) -> None:
        self.total = 0

    def add(self, chunk: np.ndarray, cuts=()) -> list[int]:
        """Take one chunk; return the running ``value`` at each of ``cuts``
        (as ``_ExactSum.add``)."""
        if not len(cuts):
            self.total += int(np.sum(chunk, dtype=np.int64))
            return []
        starts, ends = _segments(cuts, chunk.shape[0])
        sums = np.add.reduceat(chunk, starts, dtype=np.int64).cumsum().tolist()
        prefixes = {0: 0, **dict(zip(ends, sums))}
        values = [self.total + prefixes[c] for c in cuts]
        self.total += sums[-1]
        return values

    def value(self) -> int:
        return self.total


def _segments(cuts, m: int) -> tuple[list[int], list[int]]:
    """(starts, ends) of the segments that the distinct ``cuts`` mark off a
    chunk of m terms; ``np.add.reduceat`` over the starts sums each one.
    The starts are 0 and the distinct cuts inside the chunk: reduceat
    gives an element, not 0, for a start repeated or at m, so a cut at 0
    (no term) or at m (every term) is read from the segments' ends."""
    inner = sorted({c for c in cuts if 0 < c < m})
    return [0, *inner], [*inner, m]


def _prefix_sums(terms, counts, total=None) -> np.ndarray:
    """Exactly rounded prefix sums of terms handed over in slices.

    ``terms(lo, hi)`` returns the float64 terms lo, ..., hi - 1 as a 1-D
    array; it is called in order, for slices of _BLOCK terms that end at
    ``counts[-1]``.  One accumulator, ``total`` (a fresh ``_ExactSum`` by
    default), takes every slice with the counts inside it, so entry i is
    the exact sum of the first ``counts[i]`` terms rounded once: bit for
    bit ``math.fsum`` of that prefix (or its exception), whatever the
    slicing.  With an ``_IntSum`` the terms are integers and every entry
    is the exact int64 sum.  ``counts`` must not decrease.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = _ExactSum() if total is None else total
    out = np.empty(counts.size, dtype=total.dtype)
    end = int(counts[-1]) if counts.size else 0
    i = 0
    for lo in range(0, end, _BLOCK):
        hi = min(lo + _BLOCK, end)
        j = int(np.searchsorted(counts, hi, side="right"))
        out[i:j] = total.add(terms(lo, hi), (counts[i:j] - lo).tolist())
        i = j
    out[i:] = total.value()  # no slice was taken: every count is 0
    return out


def fsum_array(values: np.ndarray) -> float:
    """Exactly rounded sum of a float array, bit-identical to ``math.fsum``.

    1-D float64 input goes to ``_prefix_sums`` in slices, without building
    a Python list (short, inf, NaN and near-overflow slices reach
    ``math.fsum`` raw; see ``_ExactSum``); other dtypes and shapes go to
    ``math.fsum`` of their flattened values.
    """
    if values.dtype != np.float64 or values.ndim != 1:
        return math.fsum(np.ravel(values).tolist())
    return float(_prefix_sums(lambda lo, hi: values[lo:hi], [values.shape[0]])[0])


def _checked_bounds(boundaries, length: int) -> np.ndarray:
    """``boundaries`` as int64 counts, checked to lie in [0, length] and not decrease."""
    bounds = np.asarray(boundaries, dtype=np.int64)
    if np.any(bounds < 0) or np.any(bounds > length):
        raise ValueError("boundaries out of range for values array")
    if np.any(np.diff(bounds) < 0):
        raise ValueError("boundaries must be nondecreasing")
    return bounds


def prefix_sums_at(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Exactly rounded prefix sums of ``values`` at index boundaries.

    ``boundaries`` are *counts*: entry ``b`` yields ``sum(values[:b])``,
    the exact sum of that prefix rounded once -- bit for bit
    ``math.fsum(values[:b])``, or its exception (see ``_prefix_sums``).  A
    prefix's value therefore depends on no other boundary.

    For nonnegative inputs the outputs are nondecreasing.
    """
    bounds = _checked_bounds(boundaries, len(values))
    data = np.asarray(values, dtype=np.float64)
    return _prefix_sums(lambda lo, hi: data[lo:hi], bounds)


def exact_prefix_sums_at(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Exact integer prefix sums (int64 values) at index boundaries.

    Intended for the exact coefficient streams, whatever their integer
    dtype (int8 or int16): ``_prefix_sums`` with an ``_IntSum``, so each
    slice is summed with an int64 accumulator and the slices with Python
    integers, and the result is exact for any realistic length.
    """
    data = np.asarray(values)
    if data.dtype.kind not in "iu":
        raise TypeError("exact_prefix_sums_at requires an integer array")
    bounds = _checked_bounds(boundaries, len(data))
    return _prefix_sums(lambda lo, hi: data[lo:hi], bounds, _IntSum())
