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
input reach ``math.fsum`` unchanged.  Because each sum is the exact sum
rounded once, its value depends neither on traversal order nor on the
slicing: callers may split chunks on a thread pool and join the pieces in
chunk order (as the Euler products do) and get the same bits for any
number of threads.  One loop, ``_prefix_sums``, feeds the accumulator from
slices and reads it at checkpoint counts; ``fsum_array``,
``prefix_sums_at`` and the prime-side sums all use it, so each prefix is
exactly rounded, whatever other checkpoints are asked for.

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
#: chunk and one ``value`` then cost 2-5 us against 13-27 us for the
#: extraction at 8-64 terms, the two meeting near 400 terms (Python 3.11,
#: numpy 2.4, 2-vCPU x86-64 VM); ``_prefix_sums`` rounds the pieces at
#: every checkpoint and pays for raw ones each time, so the cut stays well
#: below that crossover
_RAW_MAX = 64

#: a chunk of m terms with max |x| >= 2^(_EXP_LIMIT - bit_length(m + 2)) is kept
#: raw; below that neither the extraction constant nor any partial sum can
#: overflow, nor can the pieces of fewer than 2^20 chunks
_EXP_LIMIT = 1000

#: an extraction constant below 2^_MIN_SIGMA_EXP would leave the normal
#: range; a residual that small sums exactly in any order instead
_MIN_SIGMA_EXP = -1021


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
    (Rump, Ogita & Oishi 2008) and keeps them.  For a chunk r of m terms
    pick sigma = 2^(M+e) with 2^M >= m + 2 and 2^e > max|r|; then
    ``q = (r + sigma) - sigma`` and ``r - q`` are exact, every q is a
    multiple of 2^-53 sigma and the q's add up to less than sigma, so
    ``np.sum(q)`` is exact in any order.  Each pass shrinks max|r| by at
    least 2^(52-M), so the passes end once r is zero, or once sigma would
    leave the normal range, where the residual (all multiples of 2^-1074,
    total below 2^-1021) also sums exactly.  The pieces add up exactly to
    the sum of every term added, so ``value`` -- ``math.fsum`` of the
    pieces -- is that sum rounded once, whatever the chunking.  Pieces are
    plain floats: a chunk split on another thread may hand its ``pieces``
    list over, to be joined in chunk order, with the same value.

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

    def add(self, chunk: np.ndarray) -> None:
        """Take one chunk."""
        m = chunk.shape[0]
        if m <= _RAW_MAX:
            self.pieces.extend(chunk.tolist())
            return
        if m > self._buf.shape[1]:
            self._buf = np.empty((2, m))
        r, q = self._buf[0, :m], self._buf[1, :m]
        width = (m + 1).bit_length()  # smallest M with 2^M >= m + 2
        amax = float(np.abs(chunk, out=q).max())
        if not amax < math.ldexp(1.0, _EXP_LIMIT - width):  # also inf and NaN
            self.pieces.extend(chunk.tolist())
            return
        np.copyto(r, chunk)
        while amax != 0.0:
            exp = width + math.frexp(amax)[1]
            if exp < _MIN_SIGMA_EXP:
                self.pieces.append(float(r.sum()))
                break
            sigma = math.ldexp(1.0, exp)
            np.add(r, sigma, out=q)
            np.subtract(q, sigma, out=q)
            np.subtract(r, q, out=r)
            self.pieces.append(float(q.sum()))
            amax = float(np.abs(r, out=q).max())

    def value(self) -> float:
        return math.fsum(self.pieces)


class _IntSum:
    """Exact running sum of integer chunks: ``_ExactSum``'s counterpart for
    the exact streams.  Each chunk is summed with an int64 accumulator
    (exact while one chunk's sum stays below 2^63) and the chunks with a
    Python int, so the sum is exact for any realistic length."""

    dtype = np.int64

    def __init__(self) -> None:
        self.total = 0

    def add(self, chunk: np.ndarray) -> None:
        self.total += int(np.sum(chunk, dtype=np.int64))

    def value(self) -> int:
        return self.total


def _prefix_sums(terms, counts, total=None) -> np.ndarray:
    """Exactly rounded prefix sums of terms handed over in slices.

    ``terms(lo, hi)`` returns the float64 terms lo, ..., hi - 1 as a 1-D
    array; it is called in order, for slices of _BLOCK terms that end at
    ``counts[-1]``.  One accumulator, ``total`` (a fresh ``_ExactSum`` by
    default), takes every slice, cut at the counts inside it, so entry i
    is the exact sum of the first ``counts[i]`` terms rounded once: bit
    for bit ``math.fsum`` of that prefix (or its exception), whatever the
    slicing.  With an ``_IntSum`` the terms are integers and every entry
    is the exact int64 sum.  ``counts`` must not decrease.
    """
    counts = np.asarray(counts, dtype=np.int64).tolist()
    total = _ExactSum() if total is None else total
    out = np.empty(len(counts), dtype=total.dtype)
    i = 0
    for lo in range(0, counts[-1] if counts else 0, _BLOCK):
        chunk = terms(lo, min(lo + _BLOCK, counts[-1]))
        cut = lo
        while i < len(counts) and counts[i] <= lo + _BLOCK:
            total.add(chunk[cut - lo : counts[i] - lo])
            cut = counts[i]
            out[i] = total.value()
            i += 1
        total.add(chunk[cut - lo :])
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
