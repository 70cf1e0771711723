"""Prime-side quantities: S(x), pretentious distance, weighted-tail diagnostics.

S(x) = sum_{p<=x} (1 + f(p)) log p is the quantity whose growth rate the
exponent machinery interrogates; every term is nonnegative because f >= -1,
so traces are nondecreasing by construction.  The pretentious distance
D(f,g;x)^2 = sum_{p<=x} (1 - f(p) g(p)) / p measures how far two
multiplicative functions drift apart along primes (real-valued case).

Every sum here forms its terms one slice of primes at a time and hands
them to ``summation._prefix_sums``, so no whole-length f(p) or term array
is built, and each checkpoint is the exact sum of its terms rounded once:
bit for bit ``math.fsum`` of that prefix, whatever the checkpoint grid.

Convergence verdicts emitted here are *diagnostics*: fixed, documented
thresholds on dyadic increments, reproducible run to run, and never a
substitute for a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multfunc import PrimeFunctionSpec, _f_values
from .sieve import FactorSieve, primes_up_to
from .summation import _checked_bounds, _prefix_sums, checkpoint_schedule

WEIGHT_LOG_P = "log_p"
WEIGHT_LOG_OVER_P_SIGMA = "log_over_p_sigma"

VERDICT_CONVERGENT = "apparently-convergent"
VERDICT_DIVERGENT = "apparently-divergent"
VERDICT_INCONCLUSIVE = "inconclusive"

#: a dyadic increment counts as decaying when it drops below this multiple
#: of its predecessor ...
DECAY_FACTOR = 0.75
#: ... and as non-decaying when it stays above this multiple
FLAT_FACTOR = 0.95
#: increments at or below floor * scale are treated as fully decayed
FLOOR = 1e-12
#: number of trailing dyadic steps a verdict is based on
VERDICT_WINDOW = 8


@dataclass(frozen=True)
class PrimeSumTrace:
    """Checkpointed partial sums of a weighted prime series.

    ``weight`` names the term shape (log p, or log p / p^sigma);
    ``sigma`` is None for the pure log weight.
    """

    checkpoints: tuple[tuple[int, float], ...]
    weight: str
    sigma: float | None = None

    @property
    def x_values(self) -> np.ndarray:
        return np.asarray([x for x, _ in self.checkpoints], dtype=np.int64)

    @property
    def values(self) -> np.ndarray:
        return np.asarray([v for _, v in self.checkpoints], dtype=np.float64)


def _checkpoints(primes: np.ndarray, xs, terms) -> tuple[tuple[int, float], ...]:
    """(x, exactly rounded sum of ``terms(lo, hi)`` over the primes <= x) for each x."""
    counts = _checked_bounds(np.searchsorted(primes, xs, side="right"), primes.size)
    sums = _prefix_sums(terms, counts).tolist()
    return tuple(zip(np.asarray(xs, dtype=np.int64).tolist(), sums))


def prime_sum_S(
    spec: PrimeFunctionSpec,
    x_max: int,
    sieve: FactorSieve,
    schedule: np.ndarray | None = None,
) -> PrimeSumTrace:
    """Checkpointed S(x) = sum_{p<=x} (1 + f(p)) log p (nondecreasing).

    For the constant -1 base every term vanishes identically, so the trace
    is exactly zero; finite exceptions contribute a plateau reached at the
    largest exception prime.
    """
    if x_max > sieve.limit:
        raise ValueError(f"x_max={x_max} exceeds sieve limit {sieve.limit}")
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    if schedule is None:
        schedule = checkpoint_schedule(x_max)
    primes = primes_up_to(x_max, sieve)
    log_p = sieve.log_primes

    def terms(lo: int, hi: int) -> np.ndarray:
        return (1.0 + _f_values(spec, primes[lo:hi])) * log_p[lo:hi]

    return PrimeSumTrace(_checkpoints(primes, schedule, terms), WEIGHT_LOG_P)


def pretentious_distance_sq(
    spec_f: PrimeFunctionSpec,
    spec_g: PrimeFunctionSpec,
    x: int,
    sieve: FactorSieve,
) -> float:
    """D(f, g; x)^2 = sum_{p<=x} (1 - f(p) g(p)) / p.

    Symmetric, nonnegative (values in [-1,1] make each term >= 0), and
    nondecreasing in x.  Zero exactly when f(p) g(p) = 1 at every prime
    p <= x -- for specs confined to {-1, +1} that is the same as agreeing
    prime by prime, but a spec with |f(p)| < 1 keeps positive distance
    even from itself.  Exactly rounded, from one slice of primes at a time.
    """
    if x > sieve.limit:
        raise ValueError(f"x={x} exceeds sieve limit {sieve.limit}")
    primes = primes_up_to(x, sieve)

    def terms(lo: int, hi: int) -> np.ndarray:
        chunk = primes[lo:hi]
        fg = _f_values(spec_f, chunk) * _f_values(spec_g, chunk)
        return (1.0 - fg) / chunk.astype(np.float64)

    return float(_prefix_sums(terms, [primes.size])[0])


def _step_verdict(values, floor: float) -> str:
    """Verdict on the steps between consecutive ``values`` (at least one step).

    Apparently convergent when every step decays below DECAY_FACTOR x the
    previous value (or to the floor); apparently divergent when every step
    stays above the floor and above FLAT_FACTOR x the previous value;
    inconclusive otherwise.
    """
    steps = list(zip(values[:-1], values[1:]))
    if all(after <= max(DECAY_FACTOR * before, floor) for before, after in steps):
        return VERDICT_CONVERGENT
    if all(after > floor and after >= FLAT_FACTOR * before for before, after in steps):
        return VERDICT_DIVERGENT
    return VERDICT_INCONCLUSIVE


def _dyadic_verdict(totals: np.ndarray) -> str:
    """Three-valued verdict from the trailing dyadic increments of a trace.

    Increments I_j between consecutive dyadic points are judged by
    ``_step_verdict`` over the last VERDICT_WINDOW steps.  The window
    shrinks for short traces but needs at least two increments to say
    anything.
    """
    increments = np.diff(totals)
    scale = max(1.0, float(np.max(np.abs(totals))) if totals.size else 1.0)
    floor = FLOOR * scale
    if increments.size == 0 or np.all(np.abs(increments) <= floor):
        return VERDICT_CONVERGENT
    window = min(VERDICT_WINDOW, increments.size - 1)
    if window < 1:
        return VERDICT_INCONCLUSIVE
    return _step_verdict(increments[-window - 1 :], floor)


def weighted_tail_diagnostic(
    spec: PrimeFunctionSpec,
    sigma: float,
    x_max: int,
    sieve: FactorSieve,
) -> tuple[PrimeSumTrace, str]:
    """Partial sums of sum_{p<=x} (1 + f(p)) log p / p^sigma plus a verdict.

    The verdict compares dyadic increments (x doubling steps) against the
    fixed documented thresholds; it reports apparent behaviour at desk
    scale, nothing more.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if x_max > sieve.limit:
        raise ValueError(f"x_max={x_max} exceeds sieve limit {sieve.limit}")
    if x_max < 2:
        raise ValueError(f"x_max must be >= 2, got {x_max}")
    primes = primes_up_to(x_max, sieve)
    log_p = sieve.log_primes

    def terms(lo: int, hi: int) -> np.ndarray:
        chunk = primes[lo:hi]
        numer = (1.0 + _f_values(spec, chunk)) * log_p[lo:hi]
        with np.errstate(over="ignore"):  # p^sigma = inf gives the term 0.0
            return numer / chunk.astype(np.float64) ** sigma

    # The verdict grid uses pure powers of two: a partial last window
    # (x_max not a power of two) would shrink its increment and fake decay.
    # One pass over both grids gives the same bits as two: every prefix is
    # exactly rounded on its own.  (The union is a sorted set: np.union1d
    # would import numpy.ma on first use, about 30 ms and 1 MiB.)
    dyadic = [2 ** k for k in range(1, int(math.log2(x_max)) + 1)]
    schedule = checkpoint_schedule(x_max).tolist()
    sums = dict(_checkpoints(primes, sorted({*dyadic, *schedule}), terms))
    verdict = _dyadic_verdict(np.array([sums[x] for x in dyadic]))
    checkpoints = tuple((x, sums[x]) for x in schedule)
    return PrimeSumTrace(checkpoints, WEIGHT_LOG_OVER_P_SIGMA, float(sigma)), verdict
