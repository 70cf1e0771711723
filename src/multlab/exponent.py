"""Growth-exponent machinery: checkpointed partial sums, envelope fits,
and the normalized-partial-sum (Kronecker-style) decay check.

The object of interest is the hypothesis "partial sums grow like x^alpha
for some alpha < 1".  Raw partial sums oscillate through zero, so the
exponent is fitted on the running-maximum envelope M(x) = max_{y<=x} |S(y)|
in log-log coordinates; the slope estimates alpha.  Verdicts are
three-valued with fixed thresholds -- finite data cannot decide an
asymptotic claim, and the reports say only what the trace shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multfunc import (
    DerivedFunctionKind,
    PrimeFunctionSpec,
    coefficient_stream,
    integer_coefficient_stream,
    spec_is_pm1,
)
from .primesums import (
    FLOOR,
    VERDICT_CONVERGENT,
    VERDICT_DIVERGENT,
    VERDICT_WINDOW,
    _step_verdict,
)
from .sieve import FactorSieve
from .summation import (
    checkpoint_schedule,
    exact_prefix_sums_at,
    prefix_sums_at,
)

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_INCONCLUSIVE = "inconclusive"


class InsufficientDataError(ValueError):
    """Too few usable checkpoints inside the fitting window."""


@dataclass(frozen=True)
class PartialSumSeries:
    """Checkpointed partial sums sum_{n<=x} a(n) of one coefficient stream.

    ``exact`` marks series accumulated on the integer path (coefficient
    values all in {-1, 0, 1}), where every reported sum is exact.
    """

    x: np.ndarray
    sums: np.ndarray
    kind: DerivedFunctionKind
    spec_id: str
    exact: bool

    def __post_init__(self) -> None:
        if len(self.x) != len(self.sums):
            raise ValueError("checkpoint and sum arrays must align")
        if np.any(np.diff(self.x) <= 0):
            raise ValueError("checkpoints must be strictly ascending")


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
    """Partial sums of the selected stream at a geometric checkpoint grid.

    Streams with all values in {-1, 0, 1} take the exact int64 path; other
    streams take ``prefix_sums_at``, whose every checkpoint is its exact
    prefix sum rounded once.  Both paths are deterministic and independent
    of any upstream parallelism.
    """
    exact = spec_is_pm1(spec)
    stream = integer_coefficient_stream if exact else coefficient_stream
    coeffs = stream(spec, kind, x_max, sieve)  # ValueError outside [1, sieve limit]
    if schedule is None:
        schedule = checkpoint_schedule(x_max)
    schedule = np.asarray(schedule, dtype=np.int64)
    if schedule.size and (schedule[0] < 1 or schedule[-1] > x_max):
        raise ValueError("schedule must lie within [1, x_max]")
    sums = (exact_prefix_sums_at if exact else prefix_sums_at)(coeffs, schedule)
    return PartialSumSeries(
        x=schedule.copy(),
        sums=sums.astype(np.float64),
        kind=kind,
        spec_id=spec.spec_id(),
        exact=exact,
    )


def running_max_envelope(series: PartialSumSeries) -> np.ndarray:
    """M(x) = running maximum of |sum| over checkpoints up to x."""
    return np.maximum.accumulate(np.abs(series.sums))


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
    """Fit alpha in M(x) ~ C x^alpha on the running-max envelope.

    The default window drops the first decade of checkpoints (small-x
    transients otherwise dominate the fit).  Checkpoints where the envelope
    is still zero are excluded -- log of zero carries no information.

    Raises
    ------
    InsufficientDataError
        Fewer than 8 usable checkpoints in the window.
    """
    envelope = running_max_envelope(series)
    x = series.x.astype(np.float64)
    if window is None:
        x_lo = float(series.x[0]) * 10.0
        window = (int(x_lo), int(series.x[-1]))
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
    says whether the trace is consistent with that at desk scale: trailing
    dyadic-window maxima of |sum|/x^sigma must each drop below DECAY_FACTOR
    times the previous window's to pass, stay above FLAT_FACTOR to fail,
    anything in between is inconclusive.

    Returns (series, normalized values, verdict).
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    coeffs = np.asarray(coefficients, dtype=np.float64)
    if len(coeffs) < x_max:
        raise ValueError(
            f"coefficient array has {len(coeffs)} entries, needs >= x_max={x_max}"
        )
    if schedule is None:
        schedule = checkpoint_schedule(x_max)
    schedule = np.asarray(schedule, dtype=np.int64)
    sums = prefix_sums_at(coeffs[:x_max], schedule)
    series = PartialSumSeries(
        x=schedule.copy(),
        sums=sums,
        kind=DerivedFunctionKind.F_PLAIN,
        spec_id="external-coefficients",
        exact=False,
    )
    normalized = np.abs(sums) / schedule.astype(np.float64) ** sigma

    # group checkpoints into trailing dyadic windows (x halving each step)
    scale = max(1.0, float(np.max(normalized))) if normalized.size else 1.0
    floor = FLOOR * scale
    window_maxima: list[float] = []
    hi = float(x_max)
    while hi >= schedule[0] and len(window_maxima) < VERDICT_WINDOW + 1:
        lo = hi / 2.0
        in_window = (schedule.astype(np.float64) > lo) & (
            schedule.astype(np.float64) <= hi
        )
        if np.any(in_window):
            window_maxima.append(float(np.max(normalized[in_window])))
        hi = lo
    window_maxima.reverse()  # chronological: small x first
    if len(window_maxima) < 3:
        return series, normalized, VERDICT_INCONCLUSIVE
    if all(m <= floor for m in window_maxima):
        return series, normalized, VERDICT_PASS
    verdict = {
        VERDICT_CONVERGENT: VERDICT_PASS,
        VERDICT_DIVERGENT: VERDICT_FAIL,
    }.get(_step_verdict(window_maxima, floor), VERDICT_INCONCLUSIVE)
    return series, normalized, verdict
