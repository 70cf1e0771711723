"""Exactly rounded summation helpers and geometric checkpoint schedules.

Partial sums at desk scale run over up to ~10^8 terms; naive left-to-right
float accumulation can drift by far more than the tolerances used in the
verification suite.  Every float sum here is exactly rounded and equal bit
for bit to ``math.fsum``: finite float64 input is split into error-free
pieces by the vectorised extraction of Rump, Ogita & Oishi ("Accurate
floating-point summation part I: faithful rounding", SIAM J. Sci. Comput.
31(1), 2008), and ``math.fsum`` rounds the few exact pieces once; other
input goes to ``math.fsum`` unchanged.  Because each sum is the exact sum
rounded once, its value does not depend on traversal order, and
checkpointed prefix sums carry at most a couple of ulps of error regardless
of length -- deterministic no matter how the caller parallelises upstream
work.
"""

from __future__ import annotations

import math

import numpy as np

#: default growth ratio between consecutive checkpoints (quarter-octave grid)
DEFAULT_CHECKPOINT_RATIO = 2.0 ** 0.25

#: default first checkpoint
DEFAULT_CHECKPOINT_X0 = 10

#: elements per extraction slice: its two float64 buffers (512 KiB) stay in cache
_BLOCK = 1 << 15

#: n terms with max |x| >= 2^(_EXP_LIMIT - bit_length(n + 2)) go to ``math.fsum``;
#: below that neither the extraction constant nor any partial sum can overflow
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
    keep traces cheap.

    Parameters
    ----------
    x_max : int
        Last checkpoint, inclusive.  Must be >= 1.
    x0 : int
        First checkpoint (clipped to ``x_max``).
    ratio : float
        Multiplicative step, must be > 1.

    Returns
    -------
    np.ndarray of int64, ascending, ending at ``x_max``.
    """
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    if x0 < 1:
        raise ValueError(f"x0 must be >= 1, got {x0}")
    if not ratio > 1.0:
        raise ValueError(f"checkpoint ratio must be > 1, got {ratio}")
    points = []
    value = float(min(x0, x_max))
    x = int(math.ceil(value))
    while x < x_max:
        if not points or x > points[-1]:
            points.append(x)
        value *= ratio
        x = int(math.ceil(value))
    points.append(int(x_max))
    return np.asarray(points, dtype=np.int64)


def _exact_sum(values: np.ndarray) -> float:
    """Exactly rounded sum of ``values``, equal bit for bit to ``math.fsum``.

    Finite 1-D float64 input is reduced slice by slice with ExtractVector
    (Rump, Ogita & Oishi 2008).  For a slice r of m terms pick
    sigma = 2^(M+e) with 2^M >= m + 2 and 2^e > max|r|; then
    ``q = (r + sigma) - sigma`` and ``r - q`` are exact, every q is a
    multiple of 2^-53 sigma and the q's add up to less than sigma, so
    ``np.sum(q)`` is exact in any order.  Each pass shrinks max|r| by at
    least 2^(52-M), so the passes end once r is zero, or once sigma would
    leave the normal range, where the residual (all multiples of 2^-1074,
    total below 2^-1021) also sums exactly.  ``math.fsum`` then rounds the
    exact pass totals once, which rounds the exact sum of ``values``.

    Anything else -- another dtype or shape, inf or NaN, or magnitudes near
    overflow -- goes to ``math.fsum(values.tolist())``, so its value or
    exception is the one ``math.fsum`` gives.
    """
    if values.dtype != np.float64 or values.ndim != 1:
        return math.fsum(values.tolist())
    n = values.shape[0]
    limit = math.ldexp(1.0, _EXP_LIMIT - (n + 2).bit_length())
    r_buf = np.empty(min(n, _BLOCK))
    q_buf = np.empty_like(r_buf)
    parts = []
    for start in range(0, n, _BLOCK):
        r = r_buf[: min(_BLOCK, n - start)]
        q = q_buf[: r.size]
        np.copyto(r, values[start : start + _BLOCK])
        width = (r.size + 1).bit_length()  # smallest M with 2^M >= m + 2
        amax = float(np.abs(r, out=q).max())
        if not amax < limit:  # also true for inf and NaN
            return math.fsum(values.tolist())
        while amax != 0.0:
            exp = width + math.frexp(amax)[1]
            if exp < _MIN_SIGMA_EXP:
                parts.append(float(r.sum()))
                break
            sigma = math.ldexp(1.0, exp)
            np.add(r, sigma, out=q)
            np.subtract(q, sigma, out=q)
            np.subtract(r, q, out=r)
            parts.append(float(q.sum()))
            amax = float(np.abs(r, out=q).max())
    return math.fsum(parts)


def fsum_array(values: np.ndarray) -> float:
    """Exactly rounded sum of a float array, bit-identical to ``math.fsum``.

    Finite float64 input is summed by vectorised error-free extraction
    without building a Python list; inf, NaN, near-overflow magnitudes and
    other dtypes fall back to ``math.fsum(values.tolist())`` (see
    ``_exact_sum``).
    """
    return _exact_sum(values)


def _checked_bounds(boundaries, length: int) -> np.ndarray:
    """``boundaries`` as int64 counts, checked to lie in [0, length] and not decrease."""
    bounds = np.asarray(boundaries, dtype=np.int64)
    if np.any(bounds < 0) or np.any(bounds > length):
        raise ValueError("boundaries out of range for values array")
    if np.any(np.diff(bounds) < 0):
        raise ValueError("boundaries must be nondecreasing")
    return bounds


def prefix_sums_at(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Prefix sums of ``values`` at index boundaries, from exactly rounded segments.

    ``boundaries`` are *counts*: entry ``b`` yields ``sum(values[:b])``.
    Each segment between consecutive boundaries is reduced to its exactly
    rounded sum (error-free extraction, or ``math.fsum`` for non-finite or
    near-overflow segments; see ``_exact_sum``); every prefix is then an
    ``fsum`` over the exactly rounded segment sums, so each reported prefix
    carries two correctly rounded reductions rather than one rounding per
    term.

    For nonnegative inputs the outputs are nondecreasing.
    """
    bounds = _checked_bounds(boundaries, len(values))
    if bounds.size == 0:
        return np.empty(0, dtype=np.float64)
    data = np.asarray(values, dtype=np.float64)
    segment_sums = []
    prev = 0
    for b in bounds:
        segment_sums.append(_exact_sum(data[prev:b]))
        prev = int(b)
    out = np.empty(len(segment_sums), dtype=np.float64)
    for i in range(len(segment_sums)):
        out[i] = math.fsum(segment_sums[: i + 1])
    return out


def exact_prefix_sums_at(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Exact integer prefix sums (int64 values) at index boundaries.

    Intended for +/-1/0-valued coefficient streams: segment sums are exact
    in int64 (no segment exceeds 2^63 terms at desk scale) and are combined
    with Python integers, so the result is exact for any realistic length.
    """
    data = np.asarray(values)
    if data.dtype.kind not in "iu":
        raise TypeError("exact_prefix_sums_at requires an integer array")
    bounds = _checked_bounds(boundaries, len(data))
    if bounds.size == 0:
        return np.empty(0, dtype=np.int64)
    out = np.empty(bounds.size, dtype=np.int64)
    total = 0
    prev = 0
    for i, b in enumerate(bounds):
        total += int(np.sum(data[prev:b], dtype=np.int64))
        prev = int(b)
        out[i] = total
    return out
