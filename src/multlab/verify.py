"""One-shot verification: every identity and property as a pass/fail line.

``run_verify`` executes a fixed registry of checks against one
configuration and returns a deterministic report: the same config (and
hence config hash) always yields byte-identical CSV output, regardless of
thread count.  Exit-code policy lives in the CLI: any "fail" line is a
nonzero exit.

Check families
--------------
* zeta spot checks against closed forms;
* the four series/product identities at every s-grid point, judged
  residual <= propagated budget (rigorous points) or residual <= the
  configured tolerance (heuristic points, "tolerance.<identity>" keys);
* nonnegativity scans of the two divisor-sum transforms over prime powers;
* the prime-sum trace: monotonicity always, plateau value when the base
  rule makes the closed form available;
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
from .dirichlet import (
    ComplexArgument,
    ConvergenceError,
    DomainError,
    IdentityKind,
    PoleError,
    _SeriesStore,
    zeta,
)
from .exponent import (
    InsufficientDataError,
    checkpoint_partial_sums,
    fit_exponent,
)
from .multfunc import (
    BASE_LIOUVILLE,
    DerivedFunctionKind,
    _weight,
    f_at_primes,
)
from .primesums import (
    VERDICT_CONVERGENT,
    VERDICT_DIVERGENT,
    prime_sum_S,
    weighted_tail_diagnostic,
)
from .sieve import FactorSieve, build_sieve, primes_up_to

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_INCONCLUSIVE = "inconclusive"

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
        return tuple(line for line in self.lines if line.status == STATUS_FAIL)


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


def _zeta_closed_form_lines() -> list[CheckLine]:
    targets = [
        ("zeta_at_2_vs_pi2_over_6", 2.0, math.pi ** 2 / 6.0),
        ("zeta_at_4_vs_pi4_over_90", 4.0, math.pi ** 4 / 90.0),
    ]
    lines = []
    for name, sigma, closed in targets:
        value = zeta(ComplexArgument(sigma), tol=1e-13).value.real
        measured = abs(value - closed)
        lines.append(
            CheckLine(
                check_name=name,
                status=STATUS_PASS if measured <= 1e-10 else STATUS_FAIL,
                measured=measured,
                budget=1e-10,
            )
        )
    return lines


def _identity_lines(cfg: ExperimentConfig, store: _SeriesStore) -> list[CheckLine]:
    lines = []
    tolerance_map = cfg.tolerance_map
    for sigma, t in cfg.s_grid:
        point = ComplexArgument(sigma, t)
        for identity in IdentityKind:
            name = f"{identity.value}:s={point}"
            try:
                result = store.residual(identity, point)
            except (PoleError, DomainError, ConvergenceError):
                # no evaluation exists at this point (sigma <= 0, the pole
                # s = 1, an unreachable zeta tolerance): nothing to judge
                lines.append(CheckLine(name, STATUS_INCONCLUSIVE, math.nan, math.inf))
                continue
            if result.heuristic:
                tol = tolerance_map.get(identity.value)
                if tol is None:
                    status = STATUS_INCONCLUSIVE
                    budget = math.inf
                else:
                    status = STATUS_PASS if result.residual <= tol else STATUS_FAIL
                    budget = tol
            else:
                status = STATUS_PASS if result.residual <= result.budget else STATUS_FAIL
                budget = result.budget
            lines.append(CheckLine(name, status, result.residual, budget))
    return lines


def _prime_power_minima(cfg: ExperimentConfig, sieve: FactorSieve) -> dict[str, float]:
    """Minimum of h and g over all prime powers p^m <= scan limit.

    Values come from ``multfunc._weight``, the rule pointwise evaluation
    uses.  The primes with p^m <= limit are a prefix of the ascending
    primes; g(p^m) = g(p), so g needs only m = 1.
    """
    limit = min(sieve.limit, _NONNEG_SCAN_LIMIT)
    primes = primes_up_to(limit, sieve)
    fp = f_at_primes(cfg.spec, primes)
    min_h = math.inf
    ln_limit = math.log(limit)
    for m in range(1, limit.bit_length()):
        count = int(np.searchsorted(primes, math.floor(math.exp(ln_limit / m)), side="right"))
        if count == 0:
            break
        h = _weight(DerivedFunctionKind.H_CONV, fp[:count], m)
        min_h = min(min_h, float(np.min(h)))
    g = _weight(DerivedFunctionKind.G_CONV, fp, 1)
    return {"h": min_h, "g": float(np.min(g))}


def _nonneg_lines(cfg: ExperimentConfig, sieve: FactorSieve) -> list[CheckLine]:
    minima = _prime_power_minima(cfg, sieve)
    lines = []
    for name, key in (
        ("nonneg_h_prime_powers", "h"),
        ("nonneg_g_prime_powers", "g"),
    ):
        measured = minima[key]
        lines.append(
            CheckLine(
                check_name=name,
                status=STATUS_PASS if measured >= _SIGN_SLACK else STATUS_FAIL,
                measured=measured,
                budget=_SIGN_SLACK,
            )
        )
    return lines


def _prime_sum_lines(cfg: ExperimentConfig, sieve: FactorSieve) -> list[CheckLine]:
    trace = prime_sum_S(cfg.spec, cfg.effective_x_max, sieve, schedule=cfg.checkpoints)
    values = trace.values
    increments = np.diff(values)
    min_increment = float(np.min(increments)) if increments.size else 0.0
    lines = [
        CheckLine(
            check_name="prime_sum_monotone",
            status=STATUS_PASS if min_increment >= _SIGN_SLACK else STATUS_FAIL,
            measured=min_increment,
            budget=_SIGN_SLACK,
        )
    ]
    if cfg.spec.base == BASE_LIOUVILLE:
        plateau = math.fsum(
            (1.0 + v) * math.log(p)
            for p, v in cfg.spec.exceptions
            if p <= cfg.effective_x_max
        )
        measured = abs(float(values[-1]) - plateau)
        status = STATUS_PASS if measured <= _PLATEAU_TOL else STATUS_FAIL
        lines.append(
            CheckLine("prime_sum_plateau", status, measured, _PLATEAU_TOL)
        )
    else:
        lines.append(
            CheckLine("prime_sum_plateau", STATUS_INCONCLUSIVE, float(values[-1]), math.inf)
        )
    return lines


def _weighted_tail_line(cfg: ExperimentConfig, sieve: FactorSieve) -> CheckLine:
    name = f"weighted_tail:sigma={cfg.weighted_tail_sigma:g}"
    if cfg.effective_x_max < 2:  # no prime to sum over: nothing to judge
        return CheckLine(name, STATUS_INCONCLUSIVE, math.nan, math.inf)
    trace, verdict = weighted_tail_diagnostic(
        cfg.spec, cfg.weighted_tail_sigma, cfg.effective_x_max, sieve
    )
    status = {
        VERDICT_CONVERGENT: STATUS_PASS,
        VERDICT_DIVERGENT: STATUS_FAIL,
    }.get(verdict, STATUS_INCONCLUSIVE)
    return CheckLine(
        check_name=name,
        status=status,
        measured=float(trace.values[-1]),
        budget=math.inf,
    )


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
        fit = fit_exponent(series)
    except InsufficientDataError:
        return CheckLine("exponent_fit:F_plain", STATUS_INCONCLUSIVE, math.nan, threshold)
    status = STATUS_PASS if fit.alpha_hat <= threshold else STATUS_FAIL
    return CheckLine("exponent_fit:F_plain", status, fit.alpha_hat, threshold)


def _f_one_trend_line(cfg: ExperimentConfig, store: _SeriesStore) -> CheckLine:
    """|F(1+h)| along the configured h-grid, largest h first.

    pass when the magnitudes strictly decrease and the final one has at
    least halved; inconclusive otherwise (a finite trend cannot refute the
    limit statement, so this check never fails).
    """
    h_grid = sorted(cfg.f_one_h_grid, reverse=True)
    magnitudes = []
    for h in h_grid:
        ev = store.get(DerivedFunctionKind.F_PLAIN, ComplexArgument(1.0 + h))
        magnitudes.append(abs(ev.value))
    decreasing = all(b < a for a, b in zip(magnitudes, magnitudes[1:]))
    first = magnitudes[0]
    ratio = magnitudes[-1] / first if first > 0 else math.inf
    status = (
        STATUS_PASS if decreasing and ratio <= 0.5 else STATUS_INCONCLUSIVE
    )
    return CheckLine("F_one_trend", status, ratio, 0.5)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


def run_verify(cfg: ExperimentConfig, sieve: FactorSieve | None = None) -> VerificationReport:
    """Run every registered check once, in fixed order.

    Without ``sieve``, one is built to ``cfg.sieve_limit``.  The identity
    and F(1+h) checks share one series store, so each stream at
    truncation_N is built once per run; they run first, and the store is
    freed before the checks that work at x_max.
    """
    if sieve is None:
        sieve = build_sieve(cfg.sieve_limit)
    store = _SeriesStore(cfg.spec, cfg.truncation_N, cfg.euler_P, sieve, cfg.zeta_tol)
    identity_lines = _identity_lines(cfg, store)
    f_one_trend_line = _f_one_trend_line(cfg, store)
    del store
    lines: list[CheckLine] = []
    lines.extend(_zeta_closed_form_lines())
    lines.extend(identity_lines)
    lines.extend(_nonneg_lines(cfg, sieve))
    lines.extend(_prime_sum_lines(cfg, sieve))
    lines.append(_weighted_tail_line(cfg, sieve))
    lines.append(_exponent_line(cfg, sieve))
    lines.append(f_one_trend_line)
    return VerificationReport(lines=tuple(lines), config_hash=config_hash(cfg))
