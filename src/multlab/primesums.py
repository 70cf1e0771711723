"""Prime-side quantities: S(x), pretentious distance, weighted-tail diagnostics.

S(x) = sum_{p<=x} (1 + f(p)) log p is the quantity whose growth rate the
exponent machinery interrogates; every term is nonnegative because f >= -1,
so traces are nondecreasing by construction.  The pretentious distance
D(f,g;x)^2 = sum_{p<=x} (1 - f(p) g(p)) / p measures how far two
multiplicative functions drift apart along primes (real-valued case).

Every sum here has one walk (``_walk``): the table of the primes whose
term can be nonzero (``multfunc._visited``), read one slice at a time by
``summation._prefix_sums``, so no whole-length f(p) or term array is
built, and each checkpoint is the exact sum of its terms rounded once:
bit for bit ``math.fsum`` of that prefix, whatever the checkpoint grid.
Each slice forms f(p) once (``multfunc._f_slice``): one float for a flat
spec once the slice is past its exceptions, which gives each term the
bits an array of that float would.
For a spec with f(p) = -1 at every prime but its exceptions, S(x) and the
weighted tail walk the exception primes alone, and so does
D(f, g; x)^2 when f(p) g(p) = 1 at every other prime.  The terms it skips
are exact zeros, so every sum keeps its bits.

Convergence verdicts emitted here are *diagnostics*: fixed, documented
thresholds on dyadic increments, reproducible run to run, and never a
substitute for a proof.  The decay rule behind them, ``_decays``, is also
the rule of ``exponent.kronecker_check``, and this module holds the words
of both: the weighted-tail verdicts and the pass/fail/inconclusive
statuses of every check.
"""

from __future__ import annotations

import numpy as np

from .multfunc import PrimeFunctionSpec, _f_slice, _visited
from .sieve import FactorSieve, primes_up_to
from .summation import PartialSumSeries, _prefix_sums, _schedule

#: the statuses of every check line, ``kronecker_check``'s among them
VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_INCONCLUSIVE = "inconclusive"
#: the verdicts of ``weighted_tail_diagnostic`` (with VERDICT_INCONCLUSIVE)
VERDICT_CONVERGENT = "apparently-convergent"
VERDICT_DIVERGENT = "apparently-divergent"

#: a judgment -- True, False, or None when there is nothing to judge -- as
#: a check status ...
_STATUS = {True: VERDICT_PASS, False: VERDICT_FAIL, None: VERDICT_INCONCLUSIVE}
#: ... and as a weighted-tail verdict
_TAIL_VERDICT = {True: VERDICT_CONVERGENT, False: VERDICT_DIVERGENT, None: VERDICT_INCONCLUSIVE}

#: a step of ``_decays`` counts as decaying when the value drops below this
#: multiple of its predecessor ...
DECAY_FACTOR = 0.75
#: ... and as non-decaying when it stays above this multiple
FLAT_FACTOR = 0.95
#: values at or below FLOOR * max(1, scale) are treated as fully decayed
FLOOR = 1e-12
#: number of trailing steps a verdict is based on, at most
VERDICT_WINDOW = 8


def _walk(
    x: int, sieve: FactorSieve, factor, *specs: PrimeFunctionSpec
) -> tuple[np.ndarray, np.ndarray]:
    """(primes, log p) of the primes <= x that a sum of ``factor`` terms visits.

    Every prime, or only those whose term can be nonzero
    (``multfunc._visited``): the skipped terms are exact zeros.  A sum
    reads this sub-table in slices through ``_prefix_sums``, and each of
    its sums is the exact sum of its terms rounded once, so it has the
    bits of the sum over every prime.
    """
    primes = primes_up_to(x, sieve)
    log_p = sieve.log_primes[: primes.size]
    visited = _visited(primes, factor, *specs)
    if visited is None:
        return primes, log_p
    return primes[visited], log_p[visited]


def _trace(primes: np.ndarray, xs: np.ndarray, terms) -> PartialSumSeries:
    """At each x of the ascending ``xs``, the exactly rounded sum of
    ``terms(lo, hi)`` over the primes <= x of the walked table ``primes``."""
    return PartialSumSeries(xs, _prefix_sums(terms, np.searchsorted(primes, xs, side="right")))


def prime_sum_S(
    spec: PrimeFunctionSpec,
    x_max: int,
    sieve: FactorSieve,
    schedule: np.ndarray | None = None,
) -> PartialSumSeries:
    """Checkpointed S(x) = sum_{p<=x} (1 + f(p)) log p (nondecreasing).

    ``schedule`` defaults to ``checkpoint_schedule(x_max)``; a given one
    must strictly ascend within [1, x_max] (ValueError otherwise).  For the
    constant -1 base every term vanishes identically, so the trace is
    exactly zero; finite exceptions contribute a plateau reached at the
    largest exception prime.  Such a spec visits its exception primes only.
    """
    schedule = _schedule(x_max, schedule)
    primes, log_p = _walk(x_max, sieve, lambda f: 1.0 + f, spec)

    def terms(lo: int, hi: int) -> np.ndarray:
        return (1.0 + _f_slice(spec, primes[lo:hi])) * log_p[lo:hi]

    return _trace(primes, schedule, terms)


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
    even from itself.  Exactly rounded, from one slice of primes at a time;
    when f(p) g(p) = 1 at every prime that is no exception of either spec,
    only the exception primes of both are visited.  When the two specs are
    equal, f(p) is formed once per slice and squared, the same bits as
    forming it twice.
    """
    primes, _ = _walk(x, sieve, lambda f, g: 1.0 - f * g, spec_f, spec_g)

    def terms(lo: int, hi: int) -> np.ndarray:
        chunk = primes[lo:hi]
        fp = _f_slice(spec_f, chunk)
        fg = fp * (fp if spec_g == spec_f else _f_slice(spec_g, chunk))
        return (1.0 - fg) / chunk.astype(np.float64)

    return float(_prefix_sums(terms, [primes.size])[0])


def _decays(values, scale: float) -> bool | None:
    """The decay rule: does the sequence ``values`` decay?

    Judges the steps between the last VERDICT_WINDOW + 1 values and needs
    at least three of them (two steps); fewer give None.  With the floor
    FLOOR x max(1, scale): True when every step drops below DECAY_FACTOR x
    the previous value or to the floor; False when every step stays above
    the floor and above FLAT_FACTOR x the previous value; None otherwise.
    """
    values = values[-VERDICT_WINDOW - 1 :]
    if len(values) < 3:
        return None
    floor = FLOOR * max(1.0, scale)
    steps = list(zip(values[:-1], values[1:]))
    if all(after <= max(DECAY_FACTOR * before, floor) for before, after in steps):
        return True
    if all(after > floor and after >= FLAT_FACTOR * before for before, after in steps):
        return False
    return None


def _dyadic_decays(totals: np.ndarray) -> bool | None:
    """``_decays`` of the increments between consecutive dyadic totals of a
    trace, scaled by the largest |total|: it needs three increments, so
    four totals."""
    return _decays(np.diff(totals), float(np.max(np.abs(totals), initial=0.0)))


def _dyadic_verdict(totals: np.ndarray) -> str:
    """``_dyadic_decays`` as a weighted-tail verdict."""
    return _TAIL_VERDICT[_dyadic_decays(totals)]


def _weighted_tail(
    spec: PrimeFunctionSpec, sigma: float, x_max: int, sieve: FactorSieve
) -> tuple[PartialSumSeries, np.ndarray]:
    """The trace of ``weighted_tail_diagnostic`` and its values at the
    dyadic points x = 2, 4, 8, ... <= x_max."""
    if not sigma > 0:  # NaN too
        raise ValueError(f"sigma must be positive, got {sigma}")
    if x_max < 2:
        raise ValueError(f"x_max must be >= 2, got {x_max}")
    primes, log_p = _walk(x_max, sieve, lambda f: 1.0 + f, spec)

    def terms(lo: int, hi: int) -> np.ndarray:
        chunk = primes[lo:hi]
        numer = (1.0 + _f_slice(spec, chunk)) * log_p[lo:hi]
        with np.errstate(over="ignore"):  # p^sigma = inf gives the term 0.0
            return numer / chunk.astype(np.float64) ** sigma

    # The verdict grid uses pure powers of two: a partial last window
    # (x_max not a power of two) would shrink its increment and fake decay.
    # One trace over both grids gives the same bits as two: every prefix is
    # exactly rounded on its own.  (The union is a sorted set: np.union1d
    # and np.unique import numpy.ma on first use, about 30 ms and 1 MiB.)
    dyadic = 2 ** np.arange(1, int(x_max).bit_length(), dtype=np.int64)
    schedule = _schedule(x_max, None)
    union = np.array(sorted({*dyadic.tolist(), *schedule.tolist()}), dtype=np.int64)
    sums = _trace(primes, union, terms).values
    trace = PartialSumSeries(schedule, sums[np.searchsorted(union, schedule)])
    return trace, sums[np.searchsorted(union, dyadic)]


def weighted_tail_diagnostic(
    spec: PrimeFunctionSpec,
    sigma: float,
    x_max: int,
    sieve: FactorSieve,
) -> tuple[PartialSumSeries, str]:
    """Partial sums of sum_{p<=x} (1 + f(p)) log p / p^sigma plus a verdict.

    The trace takes the default checkpoint grid to x_max.  The verdict
    judges the increments between x = 2, 4, 8, ... <= x_max by the decay
    rule ``_decays`` (fixed documented thresholds), so below x_max = 16,
    with fewer than three increments, it is inconclusive; it reports
    apparent behaviour at desk scale, nothing more.
    """
    trace, dyadic = _weighted_tail(spec, sigma, x_max, sieve)
    return trace, _dyadic_verdict(dyadic)
