"""Prime-side quantities: S(x), pretentious distance, weighted-tail diagnostics.

S(x) = sum_{p<=x} (1 + f(p)) log p is the quantity whose growth rate the
exponent machinery interrogates; every term is nonnegative because f >= -1,
so traces are nondecreasing by construction.  The pretentious distance
D(f,g;x)^2 = sum_{p<=x} (1 - f(p) g(p)) / p measures how far two
multiplicative functions drift apart along primes (real-valued case).

Convergence verdicts emitted here are *diagnostics*: fixed, documented
thresholds on dyadic increments, reproducible run to run, and never a
substitute for a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multfunc import PrimeFunctionSpec, f_at_primes
from .sieve import FactorSieve, primes_up_to
from .summation import checkpoint_schedule, fsum_array, prefix_sums_at

WEIGHT_LOG_P = "log_p"
WEIGHT_INV_P_SIGMA = "inv_p_sigma"
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

    ``weight`` names the term shape (log p, p^-sigma, or log p / p^sigma);
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


def _trace_over_primes(
    terms: np.ndarray,
    primes: np.ndarray,
    schedule: np.ndarray,
    weight: str,
    sigma: float | None,
) -> PrimeSumTrace:
    counts = np.searchsorted(primes, schedule, side="right")
    sums = prefix_sums_at(terms, counts)
    checkpoints = tuple((int(x), float(v)) for x, v in zip(schedule, sums))
    return PrimeSumTrace(checkpoints=checkpoints, weight=weight, sigma=sigma)


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
    pf = primes.astype(np.float64)
    terms = (1.0 + f_at_primes(spec, primes)) * np.log(pf)
    return _trace_over_primes(terms, primes, schedule, WEIGHT_LOG_P, None)


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
    even from itself.
    """
    if x > sieve.limit:
        raise ValueError(f"x={x} exceeds sieve limit {sieve.limit}")
    primes = primes_up_to(x, sieve)
    if primes.size == 0:
        return 0.0
    pf = primes.astype(np.float64)
    terms = (1.0 - f_at_primes(spec_f, primes) * f_at_primes(spec_g, primes)) / pf
    return fsum_array(terms)


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
    pf = primes.astype(np.float64)
    terms = (1.0 + f_at_primes(spec, primes)) * np.log(pf) / pf ** sigma

    # The verdict grid uses pure powers of two: a partial last window
    # (x_max not a power of two) would shrink its increment and fake decay.
    n_dyadic = int(math.floor(math.log2(x_max)))
    dyadic = 2 ** np.arange(1, n_dyadic + 1, dtype=np.int64)
    counts = np.searchsorted(primes, dyadic, side="right")
    dyadic_sums = prefix_sums_at(terms, counts)
    verdict = _dyadic_verdict(dyadic_sums)

    schedule = checkpoint_schedule(x_max)
    trace = _trace_over_primes(
        terms, primes, schedule, WEIGHT_LOG_OVER_P_SIGMA, float(sigma)
    )
    return trace, verdict
