"""Experiment configuration: flat key=value files, canonical form, hashing.

The on-disk format is deliberately primitive -- one `key=value` per line,
`#` comments, dotted section prefixes (`spec.base=liouville`,
`spec.exception.2=0.5`, `tolerance.H_eq_zetaF=1e-6`) -- so configs diff
cleanly and can be produced by anything.  ``serialize_config`` emits a
canonical ordering of the same format, and ``config_hash`` digests that,
so the hash changes exactly when some field changes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .multfunc import (
    BASE_CONSTANT,
    BASE_LIOUVILLE,
    PrimeFunctionSpec,
)
from .summation import (
    DEFAULT_CHECKPOINT_RATIO,
    DEFAULT_CHECKPOINT_X0,
    checkpoint_schedule,
)


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _fmt_real(x: float) -> str:
    """Round-trip-safe decimal rendering (17 significant digits)."""
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a command needs to run, in one hashable bundle."""

    sieve_limit: int = 10 ** 6
    spec: PrimeFunctionSpec = field(
        default_factory=lambda: PrimeFunctionSpec(base=BASE_LIOUVILLE)
    )
    s_grid: tuple[tuple[float, float], ...] = ((1.5, 0.0), (2.0, 0.0), (2.5, 0.0), (3.0, 0.0))
    truncation_N: int = 10 ** 5
    euler_P: int = 10 ** 5
    x_max: int = 0  # 0 means "use sieve_limit"
    checkpoint_x0: int = DEFAULT_CHECKPOINT_X0
    checkpoint_ratio: float = DEFAULT_CHECKPOINT_RATIO
    tolerances: tuple[tuple[str, float], ...] = ()
    output_dir: str = "out"
    weighted_tail_sigma: float = 1.0
    epsilon_slack: float = 0.05
    zeta_tol: float = 1e-12
    f_one_h_grid: tuple[float, ...] = (0.1, 0.05, 0.02, 0.01)

    def __post_init__(self) -> None:
        if self.sieve_limit < 2:
            raise ConfigError(f"sieve_limit must be >= 2, got {self.sieve_limit}")
        if not 1 <= self.truncation_N <= self.sieve_limit:
            raise ConfigError(
                f"truncation_N={self.truncation_N} outside [1, sieve_limit={self.sieve_limit}]"
            )
        if not 0 <= self.euler_P <= self.sieve_limit:
            raise ConfigError(
                f"euler_P={self.euler_P} outside [0, sieve_limit={self.sieve_limit}]"
            )
        if self.x_max and not 1 <= self.x_max <= self.sieve_limit:
            raise ConfigError(
                f"x_max={self.x_max} outside [1, sieve_limit={self.sieve_limit}]"
            )
        if not self.s_grid:
            raise ConfigError("s_grid must contain at least one point")
        for sigma, t in self.s_grid:
            if not (math.isfinite(sigma) and math.isfinite(t)):
                raise ConfigError(f"non-finite s_grid point ({sigma}, {t})")
        if not (math.isfinite(self.checkpoint_ratio) and self.checkpoint_ratio > 1.0):
            raise ConfigError(
                f"checkpoint_ratio must be finite and > 1, got {self.checkpoint_ratio}"
            )
        if self.checkpoint_x0 < 1:
            raise ConfigError(f"checkpoint_x0 must be >= 1, got {self.checkpoint_x0}")
        for name, tol in self.tolerances:
            if not tol > 0:
                raise ConfigError(f"tolerance {name} must be positive, got {tol}")
        if not (math.isfinite(self.weighted_tail_sigma) and self.weighted_tail_sigma > 0):
            raise ConfigError("weighted_tail_sigma must be finite and positive")
        if not 0 < self.epsilon_slack < 1:
            raise ConfigError("epsilon_slack must lie in (0, 1)")
        if not (math.isfinite(self.zeta_tol) and self.zeta_tol > 0):
            raise ConfigError("zeta_tol must be finite and positive")
        if not self.f_one_h_grid or any(h <= 0 for h in self.f_one_h_grid):
            raise ConfigError("f_one_h_grid needs positive entries")

    @property
    def effective_x_max(self) -> int:
        return self.x_max if self.x_max else self.sieve_limit

    @property
    def checkpoints(self) -> np.ndarray:
        """The checkpoint grid of every trace: x0, x0*ratio, ... up to effective_x_max."""
        return checkpoint_schedule(
            self.effective_x_max, self.checkpoint_x0, self.checkpoint_ratio
        )

    @property
    def tolerance_map(self) -> dict[str, float]:
        return dict(self.tolerances)

    def with_output_dir(self, out: str) -> "ExperimentConfig":
        return replace(self, output_dir=out)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected integer, got {raw!r}") from exc


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected number, got {raw!r}") from exc


def _parse_s_grid(raw: str) -> tuple[tuple[float, float], ...]:
    points = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            sig, _, t = chunk.partition(":")
        else:
            sig, t = chunk, "0"
        points.append((_parse_float("s_grid", sig), _parse_float("s_grid", t)))
    if not points:
        raise ConfigError("s_grid must contain at least one point")
    return tuple(points)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value format into an ExperimentConfig.

    Unknown keys are rejected rather than ignored: misspelling a knob and
    silently running defaults is the failure mode this format exists to
    avoid.
    """
    scalars: dict[str, str] = {}
    spec_fields: dict[str, str] = {}
    exceptions: dict[int, float] = {}
    tolerances: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key.startswith("spec.exception."):
            p_raw = key[len("spec.exception.") :]
            p = _parse_int(key, p_raw)
            if p in exceptions:
                raise ConfigError(f"line {lineno}: duplicate exception for prime {p}")
            exceptions[p] = _parse_float(key, raw)
        elif key.startswith("spec."):
            sub = key[len("spec.") :]
            if sub not in ("base", "c", "a"):
                raise ConfigError(f"line {lineno}: unknown spec field {sub!r}")
            if sub in spec_fields:
                raise ConfigError(f"line {lineno}: duplicate key {key}")
            spec_fields[sub] = raw
        elif key.startswith("tolerance."):
            name = key[len("tolerance.") :]
            if name in tolerances:
                raise ConfigError(f"line {lineno}: duplicate tolerance {name}")
            tolerances[name] = _parse_float(key, raw)
        else:
            if key in scalars:
                raise ConfigError(f"line {lineno}: duplicate key {key}")
            scalars[key] = raw

    known = {
        "sieve_limit",
        "s_grid",
        "truncation_N",
        "euler_P",
        "x_max",
        "checkpoint_x0",
        "checkpoint_ratio",
        "output_dir",
        "weighted_tail_sigma",
        "epsilon_slack",
        "zeta_tol",
        "f_one_h_grid",
    }
    for key in scalars:
        if key not in known:
            raise ConfigError(f"unknown configuration key {key!r}")

    base = spec_fields.get("base", BASE_LIOUVILLE)
    c = _parse_float("spec.c", spec_fields["c"]) if "c" in spec_fields else None
    a = _parse_float("spec.a", spec_fields["a"]) if "a" in spec_fields else None
    if base == BASE_LIOUVILLE and (c is not None or a is not None):
        raise ConfigError("liouville base takes no c/a parameters")
    if base == BASE_CONSTANT and a is not None:
        raise ConfigError("constant base takes no a parameter")
    try:
        spec = PrimeFunctionSpec(
            base=base, c=c, a=a, exceptions=tuple(sorted(exceptions.items()))
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    kwargs: dict = {"spec": spec, "tolerances": tuple(sorted(tolerances.items()))}
    if "sieve_limit" in scalars:
        kwargs["sieve_limit"] = _parse_int("sieve_limit", scalars["sieve_limit"])
    if "truncation_N" in scalars:
        kwargs["truncation_N"] = _parse_int("truncation_N", scalars["truncation_N"])
    if "euler_P" in scalars:
        kwargs["euler_P"] = _parse_int("euler_P", scalars["euler_P"])
    if "x_max" in scalars:
        kwargs["x_max"] = _parse_int("x_max", scalars["x_max"])
    if "checkpoint_x0" in scalars:
        kwargs["checkpoint_x0"] = _parse_int("checkpoint_x0", scalars["checkpoint_x0"])
    if "checkpoint_ratio" in scalars:
        kwargs["checkpoint_ratio"] = _parse_float(
            "checkpoint_ratio", scalars["checkpoint_ratio"]
        )
    if "s_grid" in scalars:
        kwargs["s_grid"] = _parse_s_grid(scalars["s_grid"])
    if "output_dir" in scalars:
        kwargs["output_dir"] = scalars["output_dir"]
    if "weighted_tail_sigma" in scalars:
        kwargs["weighted_tail_sigma"] = _parse_float(
            "weighted_tail_sigma", scalars["weighted_tail_sigma"]
        )
    if "epsilon_slack" in scalars:
        kwargs["epsilon_slack"] = _parse_float("epsilon_slack", scalars["epsilon_slack"])
    if "zeta_tol" in scalars:
        kwargs["zeta_tol"] = _parse_float("zeta_tol", scalars["zeta_tol"])
    if "f_one_h_grid" in scalars:
        grid = tuple(
            _parse_float("f_one_h_grid", h)
            for h in scalars["f_one_h_grid"].split(",")
            if h.strip()
        )
        kwargs["f_one_h_grid"] = grid
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return parse_config(text)


# ---------------------------------------------------------------------------
# canonical serialization + hash
# ---------------------------------------------------------------------------


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical key=value rendering: fixed key order, 17-digit reals.

    parse_config(serialize_config(cfg)) reconstructs an equal config, and
    equal configs serialize to identical bytes -- the hashing contract.
    """
    lines = [
        f"sieve_limit={cfg.sieve_limit}",
        f"spec.base={cfg.spec.base}",
    ]
    if cfg.spec.c is not None:
        lines.append(f"spec.c={_fmt_real(cfg.spec.c)}")
    if cfg.spec.a is not None:
        lines.append(f"spec.a={_fmt_real(cfg.spec.a)}")
    for p, v in cfg.spec.exceptions:
        lines.append(f"spec.exception.{p}={_fmt_real(v)}")
    grid = ",".join(f"{_fmt_real(sig)}:{_fmt_real(t)}" for sig, t in cfg.s_grid)
    lines.append(f"s_grid={grid}")
    lines.append(f"truncation_N={cfg.truncation_N}")
    lines.append(f"euler_P={cfg.euler_P}")
    lines.append(f"x_max={cfg.x_max}")
    lines.append(f"checkpoint_x0={cfg.checkpoint_x0}")
    lines.append(f"checkpoint_ratio={_fmt_real(cfg.checkpoint_ratio)}")
    for name, tol in sorted(cfg.tolerances):
        lines.append(f"tolerance.{name}={_fmt_real(tol)}")
    lines.append(f"output_dir={cfg.output_dir}")
    lines.append(f"weighted_tail_sigma={_fmt_real(cfg.weighted_tail_sigma)}")
    lines.append(f"epsilon_slack={_fmt_real(cfg.epsilon_slack)}")
    lines.append(f"zeta_tol={_fmt_real(cfg.zeta_tol)}")
    lines.append("f_one_h_grid=" + ",".join(_fmt_real(h) for h in cfg.f_one_h_grid))
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable 16-hex-digit digest of the canonical serialization."""
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]
