"""One-shot verification: every identity and property as a pass/fail line.

``run_verify`` executes a fixed registry of checks against one
configuration and returns a deterministic report: the same config (and
hence config hash) always yields byte-identical CSV output, regardless of
thread count.  Exit-code policy lives in the CLI: any "fail" line is a
nonzero exit.

Every line is judged by one rule, ``_line``: a check supplies its measured
value, its budget and a verdict (True, False, or None when there is
nothing to judge), and ``_line`` alone picks pass, fail or inconclusive.

Check families
--------------
* zeta spot checks against closed forms;
* the four series/product identities at every s-grid point, judged
  residual <= propagated budget (rigorous points) or residual <= the
  configured tolerance (heuristic points, "tolerance.<identity>" keys);
* nonnegativity scans of the two divisor-sum transforms over prime powers;
* the prime-sum trace: monotonicity always, plateau value against its
  closed form when f(p) = -1 at every prime but the exceptions (any
  spelling of that rule: ``multfunc._base_value``);
* the weighted prime-tail diagnostic at a configured sigma;
* growth-exponent fit of the plain partial sums (pass = power saving at
  the configured slack);
* the trend of F(1+h) along a fixed h-grid (pass = clear decay toward 0;
  never "fail" -- finite data cannot refute the limit statement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, _fmt_real, config_hash
from .dirichlet import _NO_VALUE, ComplexArgument, IdentityKind, _identity_keys, _read, _residual
from .dirichlet import _series_table, zeta
from .exponent import InsufficientDataError, checkpoint_partial_sums, fit_exponent
from .multfunc import DerivedFunctionKind, _base_value, _weight, f_at_primes
from .primesums import VERDICT_FAIL, _STATUS, _dyadic_decays, _weighted_tail, prime_sum_S
from .sieve import FactorSieve, build_sieve, primes_up_to

#: scan bound for the prime-power nonnegativity checks
_NONNEG_SCAN_LIMIT = 10 ** 6
#: slack when judging the prime-sum plateau against its closed form
_PLATEAU_TOL = 1e-9
#: rounding slack for sign checks
_SIGN_SLACK = -1e-12


@dataclass(frozen=True)
class CheckLine:
    check_name: str
    status: str
    measured: float
    budget: float


@dataclass(frozen=True)
class VerificationReport:
    lines: tuple[CheckLine, ...]
    config_hash: str

    @property
    def failed(self) -> tuple[CheckLine, ...]:
        return tuple(line for line in self.lines if line.status == VERDICT_FAIL)


def report_to_csv(report: VerificationReport) -> str:
    rows = ["check_name,status,measured,budget"]
    for line in report.lines:
        rows.append(
            f"{line.check_name},{line.status},{_fmt_real(line.measured)},{_fmt_real(line.budget)}"
        )
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _line(
    name: str, measured: float, budget: float = math.inf, verdict: bool | None = None
) -> CheckLine:
    """The one judging rule: the status of ``verdict`` -- pass when True,
    fail when False, inconclusive when None (nothing to judge)."""
    return CheckLine(name, _STATUS[verdict], measured, budget)


def _zeta_closed_form_lines() -> list[CheckLine]:
    targets = [
        ("zeta_at_2_vs_pi2_over_6", 2.0, math.pi ** 2 / 6.0),
        ("zeta_at_4_vs_pi4_over_90", 4.0, math.pi ** 4 / 90.0),
    ]
    lines = []
    for name, sigma, closed in targets:
        value = zeta(ComplexArgument(sigma), tol=1e-13).value.real
        measured = abs(value - closed)
        lines.append(_line(name, measured, 1e-10, measured <= 1e-10))
    return lines


def _identity_lines(cfg: ExperimentConfig, table: dict) -> list[CheckLine]:
    lines = []
    tolerance_map = cfg.tolerance_map
    for sigma, t in cfg.s_grid:
        point = ComplexArgument(sigma, t)
        for identity in IdentityKind:
            name = f"{identity.value}:s={point}"
            try:
                result = _residual(table, identity, point)
            except _NO_VALUE:
                # no evaluation exists at this point (sigma <= 0, the pole
                # s = 1, a zeta with no finite bound, a degenerate Euler
                # factor): nothing to judge
                lines.append(_line(name, math.nan))
                continue
            # a heuristic point is judged against its configured tolerance,
            # and without one there is nothing to judge
            budget = tolerance_map.get(identity.value) if result.heuristic else result.budget
            if budget is None:
                lines.append(_line(name, result.residual))
            else:
                lines.append(_line(name, result.residual, budget, result.passes(budget)))
    return lines


def _prime_power_minima(cfg: ExperimentConfig, sieve: FactorSieve) -> dict[str, float]:
    """Minimum of h and g over all prime powers p^m <= scan limit.

    Values come from ``multfunc._weight``, the rule pointwise evaluation
    uses.  The primes with p^m <= limit are a prefix of the ascending
    primes, those up to the integer m-th root of limit, found by exact
    integer steps from the float root (which can round one below an exact
    root); g(p^m) = g(p), so g needs only m = 1.
    """
    limit = min(sieve.limit, _NONNEG_SCAN_LIMIT)
    primes = primes_up_to(limit, sieve)
    fp = f_at_primes(cfg.spec, primes)
    min_h = math.inf
    for m in range(1, limit.bit_length()):
        root = round(limit ** (1.0 / m))
        while root ** m > limit:
            root -= 1
        while (root + 1) ** m <= limit:
            root += 1
        count = int(np.searchsorted(primes, root, side="right"))
        if count == 0:
            break
        h = _weight(DerivedFunctionKind.H_CONV, fp[:count], m)
        min_h = min(min_h, float(np.min(h)))
    g = _weight(DerivedFunctionKind.G_CONV, fp, 1)
    return {"h": min_h, "g": float(np.min(g))}


def _nonneg_lines(cfg: ExperimentConfig, sieve: FactorSieve) -> list[CheckLine]:
    minima = _prime_power_minima(cfg, sieve)
    return [
        _line(name, minima[key], _SIGN_SLACK, minima[key] >= _SIGN_SLACK)
        for name, key in (("nonneg_h_prime_powers", "h"), ("nonneg_g_prime_powers", "g"))
    ]


def _prime_sum_lines(cfg: ExperimentConfig, sieve: FactorSieve) -> list[CheckLine]:
    trace = prime_sum_S(cfg.spec, cfg.effective_x_max, sieve, schedule=cfg.checkpoints)
    values = trace.values
    increments = np.diff(values)
    min_increment = float(np.min(increments)) if increments.size else 0.0
    lines = [
        _line("prime_sum_monotone", min_increment, _SIGN_SLACK, min_increment >= _SIGN_SLACK)
    ]
    if _base_value(cfg.spec) == -1.0:  # S(x) is the exceptions' terms alone
        plateau = math.fsum(
            (1.0 + v) * math.log(p)
            for p, v in cfg.spec.exceptions
            if p <= cfg.effective_x_max
        )
        measured = abs(float(values[-1]) - plateau)
        lines.append(_line("prime_sum_plateau", measured, _PLATEAU_TOL, measured <= _PLATEAU_TOL))
    else:  # no closed form to judge the plateau by
        lines.append(_line("prime_sum_plateau", float(values[-1])))
    return lines


def _weighted_tail_line(cfg: ExperimentConfig, sieve: FactorSieve) -> CheckLine:
    sigma, x_max = cfg.weighted_tail_sigma, cfg.effective_x_max
    name = f"weighted_tail:sigma={sigma:g}"
    if x_max < 2:  # no prime to sum over: nothing to judge
        return _line(name, math.nan)
    trace, dyadic = _weighted_tail(cfg.spec, sigma, x_max, sieve)
    return _line(name, float(trace.values[-1]), math.inf, _dyadic_decays(dyadic))


def _exponent_line(cfg: ExperimentConfig, sieve: FactorSieve) -> CheckLine:
    series = checkpoint_partial_sums(
        cfg.spec,
        DerivedFunctionKind.F_PLAIN,
        cfg.effective_x_max,
        sieve,
        schedule=cfg.checkpoints,
    )
    threshold = 1.0 - cfg.epsilon_slack
    try:
        alpha = fit_exponent(series).alpha_hat
    except InsufficientDataError:
        return _line("exponent_fit:F_plain", math.nan, threshold)
    return _line("exponent_fit:F_plain", alpha, threshold, alpha <= threshold)


def _f_one_trend_line(cfg: ExperimentConfig, table: dict) -> CheckLine:
    """|F(1+h)| along the configured h-grid, largest h first.

    pass when the magnitudes strictly decrease and the final one has at
    least halved; inconclusive otherwise (a finite trend cannot refute the
    limit statement, so this check never fails).
    """
    h_grid = sorted(cfg.f_one_h_grid, reverse=True)
    magnitudes = []
    for h in h_grid:
        ev = _read(table, DerivedFunctionKind.F_PLAIN, 1.0 + h)
        magnitudes.append(abs(ev.value))
    decreasing = all(b < a for a, b in zip(magnitudes, magnitudes[1:]))
    first = magnitudes[0]
    ratio = magnitudes[-1] / first if first > 0 else math.inf
    return _line("F_one_trend", ratio, 0.5, (decreasing and ratio <= 0.5) or None)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


def run_verify(cfg: ExperimentConfig, sieve: FactorSieve | None = None) -> VerificationReport:
    """Run every registered check once, in fixed order.

    Without ``sieve``, one is built to ``cfg.sieve_limit``.  The identity
    and F(1+h) checks read one series table, made up front from every key
    they read: one pass builds each stream at truncation_N block by block
    and sums it at every s-grid and h-grid point, and zeta, G and U are
    evaluated once at each s-grid point.
    """
    if sieve is None:
        sieve = build_sieve(cfg.sieve_limit)
    keys = [key for s in cfg.s_grid for key in _identity_keys(ComplexArgument(*s))]
    keys += [(DerivedFunctionKind.F_PLAIN, 1.0 + h) for h in cfg.f_one_h_grid]
    table = _series_table(cfg.spec, cfg.truncation_N, cfg.euler_P, sieve, keys, cfg.zeta_tol)
    lines = [
        *_zeta_closed_form_lines(),
        *_identity_lines(cfg, table),
        *_nonneg_lines(cfg, sieve),
        *_prime_sum_lines(cfg, sieve),
        _weighted_tail_line(cfg, sieve),
        _exponent_line(cfg, sieve),
        _f_one_trend_line(cfg, table),
    ]
    return VerificationReport(lines=tuple(lines), config_hash=config_hash(cfg))
