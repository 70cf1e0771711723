"""Growth-exponent machinery: checkpointed partial sums, envelope fits,
and the normalized-partial-sum (Kronecker-style) decay check.

The object of interest is the hypothesis "partial sums grow like x^alpha
for some alpha < 1".  Raw partial sums oscillate through zero, so the
exponent is fitted on the running-maximum envelope M(x) = max_{y<=x} |S(y)|
in log-log coordinates; the slope estimates alpha.

``kronecker_check`` judges its trace by the decay rule of the weighted
prime tail (``primesums._decays``: fixed thresholds, at least three
trailing values) and reports the status pass, fail or inconclusive --
finite data cannot decide an asymptotic claim, and the reports say only
what the trace shows.  The three statuses, defined in ``primesums``, are
importable from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multfunc import (
    DerivedFunctionKind,
    PrimeFunctionSpec,
    _coefficients,
)
# the statuses kronecker_check reports, importable from here
from .primesums import (
    VERDICT_FAIL,
    VERDICT_INCONCLUSIVE,
    VERDICT_PASS,
    _STATUS,
    _decays,
)
from .sieve import FactorSieve
from .summation import PartialSumSeries, _IntSum, _prefix_sums, _schedule, prefix_sums_at

class InsufficientDataError(ValueError):
    """Too few usable checkpoints inside the fitting window."""


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares exponent of the envelope: log M(x) ~ alpha log x + c."""

    alpha_hat: float
    stderr: float
    window: tuple[int, int]
    points_used: int


def checkpoint_partial_sums(
    spec: PrimeFunctionSpec,
    kind: DerivedFunctionKind,
    x_max: int,
    sieve: FactorSieve,
    schedule: np.ndarray | None = None,
) -> PartialSumSeries:
    """Partial sums of the selected stream at the checkpoints ``schedule``.

    ``schedule`` defaults to ``checkpoint_schedule(x_max)``; a given one
    must strictly ascend within [1, x_max] (ValueError otherwise).

    The stream is the one ``multfunc._coefficients`` gives every consumer,
    read block by block and summed as it is built, so no whole-length
    stream is held and blocks past the last checkpoint are never built.
    Specs with all f(p) in {-1, 0, 1} get the exact integer stream (int8
    or int16), summed in int64 (``summation._IntSum``, as
    ``exact_prefix_sums_at`` sums); other streams take the exact sum of
    ``prefix_sums_at``, each checkpoint its exact prefix sum rounded once.
    Both give the bits of the whole-array path, deterministically and
    independent of any upstream parallelism.
    """
    # ValueError outside [1, sieve limit], before the schedule is read
    exact, stream = _coefficients(spec, (kind,), x_max, sieve)
    schedule = _schedule(x_max, schedule)

    def terms(lo: int, hi: int) -> np.ndarray:
        _, (block,) = next(stream)  # the block of terms lo, ..., lo + _BLOCK - 1
        return block[: hi - lo]

    sums = _prefix_sums(terms, schedule, _IntSum() if exact else None)
    return PartialSumSeries(schedule, sums, exact)


def running_max_envelope(series: PartialSumSeries) -> np.ndarray:
    """M(x) = running maximum of |sum| over checkpoints up to x."""
    return np.maximum.accumulate(np.abs(series.values))


def _least_squares(lx: np.ndarray, ly: np.ndarray) -> tuple[float, float]:
    """(slope, its standard error) of the least-squares line through (lx, ly).

    The formulas and the order of operations of ``scipy.stats.linregress``,
    so both agree bit for bit: from the biased covariances,
    slope = ssxy / ssx and stderr = sqrt((1 - r^2) ssy / ssx / (n - 2)),
    with r clamped to [-1, 1]; r is nan when ssx ssy = 0 and ssxy = 0 (so
    is the stderr), and 0 when only ssx ssy = 0.  Needs n >= 3 points and
    ssx > 0.
    """
    ssx, ssxy, _, ssy = np.cov(lx, ly, bias=1).flat
    if ssx == 0.0 or ssy == 0.0:
        r = math.nan if ssxy == 0 else 0.0
    else:
        r = min(max(ssxy / np.sqrt(ssx * ssy), -1.0), 1.0)
    stderr = np.sqrt((1 - r**2) * ssy / ssx / (lx.size - 2))
    return float(ssxy / ssx), float(stderr)


def fit_exponent(
    series: PartialSumSeries,
    window: tuple[int, int] | None = None,
) -> ExponentFit:
    """Fit alpha in M(x) ~ C x^alpha on the running-max envelope of any trace.

    ``series`` may be a stream's partial sums (``checkpoint_partial_sums``)
    or the S(x) trace of ``primesums.prime_sum_S``.

    The default window drops the first decade of checkpoints (small-x
    transients otherwise dominate the fit).  Checkpoints where the envelope
    is still zero are excluded -- log of zero carries no information.

    Raises
    ------
    InsufficientDataError
        Fewer than 8 usable checkpoints in the window (an empty trace has
        none, and neither has a default window whose start 10 x0 lies past
        the last checkpoint).
    """
    if not series.x_values.size:
        raise InsufficientDataError("the trace has no checkpoints; need >= 8")
    envelope = running_max_envelope(series)
    x = series.x_values.astype(np.float64)
    if window is None:
        x_lo, x_max = 10 * int(series.x_values[0]), int(series.x_values[-1])
        if x_lo > x_max:
            raise InsufficientDataError(
                f"the default window starts at 10*x0 = {x_lo}, past x_max = {x_max}; "
                "need >= 8 usable checkpoints -- widen the window or extend x_max"
            )
        window = (x_lo, x_max)
    lo, hi = window
    mask = (x >= lo) & (x <= hi) & (envelope > 0.0)
    used = int(np.count_nonzero(mask))
    if used < 8:
        raise InsufficientDataError(
            f"only {used} usable checkpoints in window [{lo}, {hi}]; "
            "need >= 8 -- widen the window or extend x_max"
        )
    slope, stderr = _least_squares(np.log(x[mask]), np.log(envelope[mask]))
    return ExponentFit(
        alpha_hat=slope,
        stderr=stderr,
        window=(int(lo), int(hi)),
        points_used=used,
    )


def kronecker_check(
    coefficients: np.ndarray,
    sigma: float,
    x_max: int,
    schedule: np.ndarray | None = None,
) -> tuple[PartialSumSeries, np.ndarray, str]:
    """Trace of sum_{n<=x} a(n) / x^sigma with a three-valued decay verdict.

    ``coefficients[i]`` is a(i+1).  If the weighted series sum a(n) n^-sigma
    converges, the normalized partial sums must tend to zero; the verdict
    says whether the trace is consistent with that at desk scale.  The
    maxima of |sum|/x^sigma over the dyadic windows (x_max/2, x_max],
    (x_max/4, x_max/2], ... are judged by ``primesums._decays``: the
    trailing maxima must each drop below DECAY_FACTOR times the previous
    window's to pass, stay above FLAT_FACTOR times it to fail, anything in
    between -- or fewer than three windows -- is inconclusive.
    ``schedule`` follows the rule of ``checkpoint_partial_sums``.

    Returns (series, normalized values, verdict).
    """
    if not sigma > 0:  # NaN too
        raise ValueError(f"sigma must be positive, got {sigma}")
    coeffs = np.asarray(coefficients, dtype=np.float64)
    if len(coeffs) < x_max:
        raise ValueError(
            f"coefficient array has {len(coeffs)} entries, needs >= x_max={x_max}"
        )
    schedule = _schedule(x_max, schedule)
    series = PartialSumSeries(schedule, prefix_sums_at(coeffs[:x_max], schedule))
    x = schedule.astype(np.float64)
    normalized = np.abs(series.values) / x ** sigma

    # the window maxima, chronological: small x first
    window_maxima: list[float] = []
    hi = float(x_max)
    while hi >= schedule[0]:
        lo = hi / 2.0
        in_window = (x > lo) & (x <= hi)
        if np.any(in_window):
            window_maxima.insert(0, float(np.max(normalized[in_window])))
        hi = lo
    decays = _decays(window_maxima, float(np.max(normalized)))
    return series, normalized, _STATUS[decays]
