"""The three benchmark workloads: seeded task generators, runners and checks.

Each workload is a closed loop with one client: the next task is sent only
after the previous one has returned.  Tasks come from ``random.Random(seed)``
and multlab receives only the generated specs and configs.  Every batch is
built from whole cycles of fixed task slots; the seed picks the parameters
inside each slot, so the mix of task costs is the same for every seed and
the medians move only with the program.

verify-float
    ``run_verify`` on non-+/-1 specs (power-decay and constant bases, 0-3
    exceptions at small primes) at the default sizes: sieve 10^6,
    N = P = 10^5, and an s-grid of four real points plus 2+3i.  Each verify
    rebuilds the same few coefficient streams many times and fsums every
    Dirichlet series over a cache-resident working set, so a stream store,
    a factor table, bulk s-grid evaluation and faster summation all show
    here.
cli-exact-1e7
    In-process ``multlab.cli.main`` calls (sieve, partial-sums, exponent,
    prime-sum) on +/-1 specs at sieve_limit 10^7, all sharing one output
    directory that starts empty.  Streams take the exact int64 path over a
    working set (~1 GiB) larger than the last-level cache, and every command
    after the first loads the sieve cache.  It bypasses float summation and
    ``dirichlet``, so a stream store or faster fsum must show no change here.
prime-side-1e7
    Many short prime-side tasks with P and x near 10^7: Euler products G and
    U at real and complex s, S(x), the weighted-tail diagnostic and the
    pretentious distance.  No coefficient stream is built; the cost is
    ``primes_up_to`` (rebuilt on every call), the per-exception scan in
    ``f_at_primes`` and fsum over ~6.6e5 primes.  With over a hundred tasks
    per run it is the workload with a real latency tail.

Output checks run outside the timed region and never with tracing on.  A
check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import functools
import io
import math
import random
from pathlib import Path

import numpy as np

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

#: pi(10^7), the prime count the ``sieve`` command must print
PRIME_COUNT_1E7 = 664579

#: checkpoint grid of the CLI commands (config defaults)
CHECKPOINT_X0 = 10
CHECKPOINT_RATIO = 2.0 ** 0.25

#: absolute slack for prime-sum plateaus, as verify's own plateau check
PLATEAU_TOL = 1e-9


def _exceptions(rng: random.Random, values=None) -> dict[int, float]:
    """0-3 exceptions at small primes, values in [-1, 1] (or from ``values``)."""
    primes = rng.sample(SMALL_PRIMES, rng.randint(0, 3))
    if values is None:
        return {p: round(rng.uniform(-1.0, 1.0), 2) for p in primes}
    return {p: rng.choice(values) for p in primes}


def _cycles(seconds: int, cycle_s: float) -> int:
    return max(1, int(seconds / cycle_s + 0.5))


def checkpoint_grid(x_max: int) -> np.ndarray:
    """The CLI's geometric checkpoint grid, recomputed for the checks."""
    points = []
    value = float(min(CHECKPOINT_X0, x_max))
    x = math.ceil(value)
    while x < x_max:
        if not points or x > points[-1]:
            points.append(x)
        value *= CHECKPOINT_RATIO
        x = math.ceil(value)
    points.append(x_max)
    return np.asarray(points, dtype=np.int64)


def _plateau(exceptions: dict[int, float], x: int, sigma: float = 0.0) -> float:
    """sum over exception primes p <= x of (1 + v) log p / p^sigma."""
    return math.fsum(
        (1.0 + v) * math.log(p) / p ** sigma for p, v in exceptions.items() if p <= x
    )


# ---------------------------------------------------------------------------
# verify-float
# ---------------------------------------------------------------------------


class VerifyFloat:
    name = "verify-float"
    limit = 10 ** 6
    #: one cycle is four verifies, about 8 s on a 2-core x86 Xeon VM
    cycle_s = 8.0
    s_grid = ((1.5, 0.0), (2.0, 0.0), (2.5, 0.0), (3.0, 0.0), (2.0, 3.0))
    #: results, not pass/fail checks (see run_verify's docstring)
    result_prefixes = ("weighted_tail", "exponent_fit", "F_one_trend", "prime_sum_plateau")

    def __init__(self, ml, seed: int, seconds: int, work: Path):
        rng = random.Random(seed)
        self.ml = ml
        self.tasks = []
        # slot order fixes the cost mix: a constant base with c < 0 costs
        # about twice one with c > 0 (negative-base powers)
        for _ in range(_cycles(seconds, self.cycle_s)):
            for slot in ("power_decay", "constant-", "power_decay", "constant+"):
                exc = _exceptions(rng)
                if slot == "power_decay":
                    c, a = round(rng.uniform(0.2, 2.0), 3), round(rng.uniform(0.2, 1.0), 3)
                    spec = ml.multfunc.power_decay_spec(c, a, exc)
                else:
                    sign = -1.0 if slot == "constant-" else 1.0
                    spec = ml.multfunc.constant_spec(sign * round(rng.uniform(0.1, 0.9), 3), exc)
                self.tasks.append(spec)

    def setup(self) -> None:
        config = self.ml.config.ExperimentConfig
        self.configs = [config(spec=spec, s_grid=self.s_grid) for spec in self.tasks]
        self.sieve = self.ml.sieve.build_sieve(self.limit)

    def run(self, i: int):
        return self.ml.verify.run_verify(self.configs[i], sieve=self.sieve)

    def check(self, i: int, report) -> str | None:
        expected = 2 + 4 * len(self.s_grid) + 2 + 2 + 3
        if len(report.lines) != expected:
            return f"{len(report.lines)} check lines, expected {expected}"
        for line in report.lines:
            if line.check_name.startswith(self.result_prefixes):
                continue
            if line.status == "pass":
                continue
            if line.status == "inconclusive" and math.isinf(line.budget):
                continue  # heuristic identity point: no rigorous budget
            return f"{line.check_name} {line.status} ({line.measured} vs {line.budget})"
        return None


# ---------------------------------------------------------------------------
# cli-exact-1e7
# ---------------------------------------------------------------------------


@functools.cache
def _moebius_table(n: int) -> np.ndarray:
    """mu(0..n) by a plain sieve, independent of multlab.sieve."""
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    is_composite = np.zeros(n + 1, dtype=bool)
    for p in range(2, n + 1):
        if is_composite[p]:
            continue
        is_composite[2 * p :: p] = True
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


def _divisor_summatory(x: int) -> int:
    """sum_{n<=x} d(n) by the hyperbola method."""
    r = math.isqrt(x)
    return 2 * int(np.sum(x // np.arange(1, r + 1, dtype=np.int64))) - r * r


def _squarefree_count(x: int) -> int:
    """sum_{n<=x} mu^2(n) = sum_{d<=sqrt x} mu(d) floor(x/d^2)."""
    r = math.isqrt(x)
    d = np.arange(1, r + 1, dtype=np.int64)
    return int(np.sum(_moebius_table(r)[1:] * (x // (d * d))))


#: closed forms of the partial sums, by (spec, kind)
CLOSED_FORMS = {
    ("liouville", "H_conv"): math.isqrt,
    ("liouville", "G_conv"): lambda x: 1,
    ("zero", "F_plain"): lambda x: 1,
    ("zero", "F_mu2"): lambda x: 1,
    ("zero", "H_conv"): lambda x: x,
    ("zero", "G_conv"): lambda x: x,
    ("one", "F_plain"): lambda x: x,
    ("one", "H_conv"): _divisor_summatory,
    ("one", "F_mu2"): _squarefree_count,
}

SPEC_LINES = {
    "liouville": "spec.base=liouville\n",
    "zero": "spec.base=constant\nspec.c=0\n",
    "one": "spec.base=constant\nspec.c=1\n",
}

STREAM_KINDS = ("F_plain", "F_mu2", "H_conv", "G_conv")


def _envelope_slope(x: np.ndarray, sums: np.ndarray) -> tuple[float, int, int]:
    """(slope, points, x_lo) of the log-log least-squares fit that the
    ``exponent`` command makes, recomputed with plain numpy."""
    envelope = np.maximum.accumulate(np.abs(sums))
    x_lo = int(float(x[0]) * 10.0)
    mask = (x >= x_lo) & (envelope > 0)
    lx, ly = np.log(x[mask].astype(np.float64)), np.log(envelope[mask])
    dx = lx - lx.mean()
    return float(np.sum(dx * (ly - ly.mean())) / np.sum(dx * dx)), int(mask.sum()), x_lo


def _take_csv(path: Path) -> list[dict[str, str]]:
    """Rows of an output CSV, removed once read so that no later task can
    pass its check on a file this one wrote."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    path.unlink()
    return rows


class CliExact:
    name = "cli-exact-1e7"
    limit = 10 ** 7
    #: one cycle is six commands, about 10.5 s on a 2-core x86 Xeon VM
    cycle_s = 10.5

    def __init__(self, ml, seed: int, seconds: int, work: Path):
        rng = random.Random(seed)
        self.ml = ml
        self.work = work
        self.out = work / "out"
        self.tasks = []  # (command, spec name, kind or None, exceptions)
        for _ in range(_cycles(seconds, self.cycle_s)):
            # each cycle streams every kind once, half through partial-sums
            # and half through exponent, plus one cache load and one S(x)
            kinds = rng.sample(STREAM_KINDS, len(STREAM_KINDS))
            commands = rng.sample(["partial-sums", "partial-sums", "exponent", "exponent"], 4)
            streams = [
                (cmd, rng.choice([s for s, k in CLOSED_FORMS if k == kind]), kind, {})
                for cmd, kind in zip(commands, kinds)
            ]
            prime_sum = ("prime-sum", "liouville", None, _exceptions(rng, (-1.0, 0.0, 0.5, 1.0)))
            sieve = ("sieve", "liouville", None, {})
            self.tasks += [streams[0], sieve, streams[1], prime_sum, streams[2], streams[3]]

    def _args(self, command: str, cfg: Path, kind: str | None) -> list[str]:
        args = [command, "--config", str(cfg), "--out", str(self.out)]
        return args + ["--kind", kind] if kind else args

    def setup(self) -> None:
        configs = self.work / "configs"
        configs.mkdir(parents=True)
        self.argv = []
        for i, (command, spec, kind, exc) in enumerate(self.tasks):
            cfg = configs / f"task{i}.cfg"
            lines = f"sieve_limit={self.limit}\n" + SPEC_LINES[spec]
            lines += "".join(f"spec.exception.{p}={v!r}\n" for p, v in exc.items())
            cfg.write_text(lines)
            self.argv.append(self._args(command, cfg, kind))
        first = configs / "first.cfg"
        first.write_text(f"sieve_limit={self.limit}\n" + SPEC_LINES["liouville"])
        self.first = self._main(self._args("sieve", first, None))

    def _main(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = self.ml.cli.main(argv)
        return rc, out.getvalue()

    def setup_check(self) -> str | None:
        rc, text = self.first
        if rc != 0 or f"primes={PRIME_COUNT_1E7} source=built" not in text:
            return f"first sieve command: rc={rc} {text.strip()!r}"
        return None

    def run(self, i: int):
        return self._main(self.argv[i])

    def check(self, i: int, result) -> str | None:
        rc, text = result
        command, spec, kind, exc = self.tasks[i]
        if rc != 0:
            return f"{command} exited {rc}: {text.strip()[-200:]!r}"
        if command == "sieve":
            if f"primes={PRIME_COUNT_1E7} source=cache" not in text:
                return f"sieve did not load the cache: {text.strip()!r}"
            return None
        grid = checkpoint_grid(self.limit)
        if command == "prime-sum":
            rows = _take_csv(self.out / "prime_sum_S.csv")
            x = np.asarray([int(r["x"]) for r in rows], dtype=np.int64)
            if not np.array_equal(x, grid):
                return "prime-sum checkpoints differ from the grid"
            for r in rows:
                if abs(float(r["sum"]) - _plateau(exc, int(r["x"]))) > PLATEAU_TOL:
                    return f"S({r['x']}) = {r['sum']} is off its plateau"
            return None
        closed = CLOSED_FORMS[(spec, kind)]
        expected = np.asarray([closed(int(x)) for x in grid], dtype=np.float64)
        if command == "partial-sums":
            rows = _take_csv(self.out / f"partial_sums_{kind}.csv")
            x = np.asarray([int(r["x"]) for r in rows], dtype=np.int64)
            sums = np.asarray([float(r["sum"]) for r in rows])
            if not np.array_equal(x, grid):
                return f"partial-sums {kind} checkpoints differ from the grid"
            bad = np.nonzero(sums != expected)[0]
            if bad.size:
                j = int(bad[0])
                return f"{spec} {kind} sum at x={x[j]}: {sums[j]} != {expected[j]}"
            return None
        (row,) = _take_csv(self.out / f"exponent_{kind}.csv")
        slope, points, x_lo = _envelope_slope(grid, expected)
        if int(row["points_used"]) != points or int(row["x_lo"]) != x_lo:
            return f"{spec} {kind} fit window differs: {row}"
        if abs(float(row["alpha_hat"]) - slope) > 1e-9:
            return f"{spec} {kind} alpha_hat {row['alpha_hat']} != {slope}"
        return None


# ---------------------------------------------------------------------------
# prime-side-1e7
# ---------------------------------------------------------------------------


PRIME_SIDE_SLOTS = ("G", "G_complex", "U", "U_complex", "S", "weighted_tail", "distance")
FAMILIES = ("liouville", "power_decay", "constant")


class PrimeSide:
    name = "prime-side-1e7"
    limit = 10 ** 7
    #: one cycle is seven tasks, about 0.9 s on a 2-core x86 Xeon VM
    cycle_s = 0.9

    def __init__(self, ml, seed: int, seconds: int, work: Path):
        rng = random.Random(seed)
        self.ml = ml
        self.params = []
        offset = rng.randrange(len(FAMILIES))
        n = _cycles(seconds, self.cycle_s) * len(PRIME_SIDE_SLOTS)
        for i in range(n):
            slot = PRIME_SIDE_SLOTS[i % len(PRIME_SIDE_SLOTS)]
            # 7 slots against 3 families: every pairing recurs every 21 tasks
            family = FAMILIES[(i + offset) % len(FAMILIES)]
            x = rng.randint(9 * 10 ** 6, self.limit)
            sigma = round(rng.uniform(1.1, 3.0), 3)
            t = round(rng.uniform(1.0, 20.0), 3) if slot.endswith("complex") else 0.0
            if slot == "weighted_tail":
                sigma = round(rng.uniform(0.6, 1.5), 3)
            f = self._spec_params(rng, family)
            g = f if rng.random() < 0.5 else self._spec_params(rng, family)
            self.params.append((slot, f, g, x, complex(sigma, t)))

    @staticmethod
    def _spec_params(rng: random.Random, family: str):
        if family == "liouville":
            return (family, None, None, _exceptions(rng, (-1.0, 0.0, 0.5, 1.0)))
        if family == "power_decay":
            return (family, round(rng.uniform(0.2, 2.0), 3), round(rng.uniform(0.2, 1.0), 3), _exceptions(rng))
        return (family, round(rng.uniform(-0.9, 0.9), 3), None, _exceptions(rng))

    def _spec(self, params):
        family, c, a, exc = params
        mf = self.ml.multfunc
        if family == "liouville":
            return mf.liouville_spec(exc)
        if family == "power_decay":
            return mf.power_decay_spec(c, a, exc)
        return mf.constant_spec(c, exc)

    def setup(self) -> None:
        self.tasks = [
            (slot, self._spec(f), self._spec(g), x, s)
            for slot, f, g, x, s in self.params
        ]
        self.sieve = self.ml.sieve.build_sieve(self.limit)

    def run(self, i: int):
        slot, f, g, x, s = self.tasks[i]
        d, ps = self.ml.dirichlet, self.ml.primesums
        if slot.startswith("G"):
            return d.euler_product_G(f, s if s.imag else s.real, x, self.sieve)
        if slot.startswith("U"):
            return d.euler_product_U(f, s if s.imag else s.real, x, self.sieve)
        if slot == "S":
            return ps.prime_sum_S(f, x, self.sieve)
        if slot == "weighted_tail":
            return ps.weighted_tail_diagnostic(f, s.real, x, self.sieve)
        return ps.pretentious_distance_sq(f, g, x, self.sieve)

    def check(self, i: int, result) -> str | None:
        slot, f, g, x, s = self.tasks[i]
        _, (family, _, _, exc), g_params, _, _ = self.params[i]
        if slot.startswith(("G", "U")):
            if result.heuristic or not math.isfinite(result.tail_bound):
                return f"{slot} at s={s}: no rigorous bound for sigma > 1"
            value, tail = result.value, result.tail_bound
            if not cmath.isfinite(value):
                return f"{slot} at s={s}: value {value}"
            if slot.startswith("G") and family == "liouville":
                closed = 1.0 + 0.0j
                for p, v in exc.items():
                    p_s = cmath.exp(s * math.log(p))
                    closed *= (p_s + v) / (p_s - 1.0)
                if abs(value - closed) > tail:
                    return f"G at s={s}: {value} vs exception product {closed} (bound {tail})"
            elif slot == "G" and not (value.imag == 0.0 and value.real >= 1.0 - tail):
                return f"G at real s={s.real}: {value} < 1"
            elif slot == "U" and not (value.imag == 0.0 and 0.0 < value.real <= 1.0 + tail):
                return f"U at real s={s.real}: {value} outside (0, 1]"
            return None
        if slot == "distance":
            if family == "liouville":
                g_exc = g_params[3]
                closed = math.fsum(
                    (1.0 - exc.get(p, -1.0) * g_exc.get(p, -1.0)) / float(p)
                    for p in set(exc) | set(g_exc)
                    if p <= x
                )
                if abs(result - closed) > 1e-12:
                    return f"D^2 = {result}, closed form {closed}"
                return None
            swapped = self.ml.primesums.pretentious_distance_sq(g, f, x, self.sieve)
            if not (math.isfinite(result) and result >= 0.0 and swapped == result):
                return f"D^2 = {result}, swapped {swapped}"
            return None
        trace = result[0] if slot == "weighted_tail" else result
        xs, values = trace.x_values, trace.values
        if xs[-1] != x or np.any(np.diff(values) < 0.0) or values[0] < 0.0:
            return f"{slot} trace is not a nondecreasing nonnegative trace to x={x}"
        if family == "liouville":
            sigma = s.real if slot == "weighted_tail" else 0.0
            for xv, v in zip(xs, values):
                if abs(v - _plateau(exc, int(xv), sigma)) > PLATEAU_TOL:
                    return f"{slot} at x={xv}: {v} is off its plateau"
            if slot == "weighted_tail" and result[1] != "apparently-convergent":
                return f"weighted tail verdict {result[1]} for a finite plateau"
        return None


WORKLOADS = {w.name: w for w in (VerifyFloat, CliExact, PrimeSide)}
