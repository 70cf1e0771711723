"""Experiment configuration: flat key=value files, canonical form, hashing.

The on-disk format is deliberately primitive -- one `key=value` per line,
`#` comments, dotted section prefixes (`spec.base=liouville`,
`spec.exception.2=0.5`, `tolerance.H_eq_zetaF=1e-6`) -- so configs diff
cleanly and can be produced by anything.  ``serialize_config`` emits a
canonical ordering of the same format, and ``config_hash`` digests that,
so the hash changes exactly when some field changes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dirichlet import IdentityKind
from .multfunc import (
    BASE_LIOUVILLE,
    PrimeFunctionSpec,
)
from .sieve import _LIMIT_BOUND
from .summation import (
    DEFAULT_CHECKPOINT_RATIO,
    DEFAULT_CHECKPOINT_X0,
    _check_checkpoint_grid,
    checkpoint_schedule,
)


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


#: the identities a ``tolerance.NAME`` line may name
_TOLERANCE_NAMES = tuple(kind.value for kind in IdentityKind)

#: the fields that hold an integer (``operator.index``: 2.0 is rejected, and
#: so is a bool, Python's or numpy's, which ``operator.index`` reads as 0 or 1)
_INTEGER_FIELDS = ("sieve_limit", "truncation_N", "euler_P", "x_max", "checkpoint_x0")


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
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            try:
                if isinstance(value, (bool, np.bool_)):
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ConfigError(f"{name}: expected integer, got {value!r}") from None
        if not 2 <= self.sieve_limit < _LIMIT_BOUND:
            raise ConfigError(f"sieve_limit={self.sieve_limit} outside [2, {_LIMIT_BOUND})")
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
        try:
            _check_checkpoint_grid(
                self.effective_x_max, self.checkpoint_x0, self.checkpoint_ratio
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for name, tol in self.tolerances:
            if not (math.isfinite(tol) and tol > 0):
                raise ConfigError(f"tolerance {name} must be finite and positive, got {tol}")
            if name not in _TOLERANCE_NAMES:
                raise ConfigError(
                    f"unknown tolerance {name!r}; known: {', '.join(_TOLERANCE_NAMES)}"
                )
        if not (math.isfinite(self.weighted_tail_sigma) and self.weighted_tail_sigma > 0):
            raise ConfigError("weighted_tail_sigma must be finite and positive")
        if not 0 < self.epsilon_slack < 1:
            raise ConfigError("epsilon_slack must lie in (0, 1)")
        if not (math.isfinite(self.zeta_tol) and self.zeta_tol > 0):
            raise ConfigError("zeta_tol must be finite and positive")
        if not self.f_one_h_grid or not all(
            math.isfinite(h) and h > 0 for h in self.f_one_h_grid
        ):
            raise ConfigError("f_one_h_grid needs finite positive entries")

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


def _parse_s_grid(key: str, raw: str) -> tuple[tuple[float, float], ...]:
    points = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            sig, _, t = chunk.partition(":")
        else:
            sig, t = chunk, "0"
        points.append((_parse_float(key, sig), _parse_float(key, t)))
    return tuple(points)


def _parse_floats(key: str, raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(key, h) for h in raw.split(",") if h.strip())


#: every plain ``key=value`` field of ExperimentConfig, in canonical order,
#: as (parser of the raw text, canonical rendering of the value)
_SCALARS = {
    "sieve_limit": (_parse_int, str),
    "s_grid": (
        _parse_s_grid,
        lambda grid: ",".join(f"{_fmt_real(sig)}:{_fmt_real(t)}" for sig, t in grid),
    ),
    "truncation_N": (_parse_int, str),
    "euler_P": (_parse_int, str),
    "x_max": (_parse_int, str),
    "checkpoint_x0": (_parse_int, str),
    "checkpoint_ratio": (_parse_float, _fmt_real),
    "output_dir": (lambda key, raw: raw, str),
    "weighted_tail_sigma": (_parse_float, _fmt_real),
    "epsilon_slack": (_parse_float, _fmt_real),
    "zeta_tol": (_parse_float, _fmt_real),
    "f_one_h_grid": (_parse_floats, lambda grid: ",".join(map(_fmt_real, grid))),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value format into an ExperimentConfig.

    Unknown keys and tolerance names are rejected rather than ignored:
    misspelling a knob and silently running defaults is the failure mode
    this format exists to avoid.  For the same reason a value holding '#'
    is rejected: a comment goes on its own line, and a trailing one would
    otherwise become part of the value (an ``output_dir`` name, say).
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
        if "#" in raw:
            raise ConfigError(
                f"line {lineno}: value of {key} holds '#'; comments go on their own lines"
            )
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
        elif key not in _SCALARS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        elif key in scalars:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        else:
            scalars[key] = raw

    base = spec_fields.get("base", BASE_LIOUVILLE)
    c = _parse_float("spec.c", spec_fields["c"]) if "c" in spec_fields else None
    a = _parse_float("spec.a", spec_fields["a"]) if "a" in spec_fields else None
    try:
        spec = PrimeFunctionSpec(base=base, c=c, a=a, exceptions=exceptions)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    kwargs = {key: _SCALARS[key][0](key, raw) for key, raw in scalars.items()}
    try:
        return ExperimentConfig(
            spec=spec, tolerances=tuple(sorted(tolerances.items())), **kwargs
        )
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

    The spec lines follow sieve_limit and the tolerance lines (sorted by
    name) follow checkpoint_ratio.  parse_config(serialize_config(cfg))
    reconstructs an equal config, and equal configs serialize to identical
    bytes -- the hashing contract.
    """
    spec = cfg.spec
    params = [("c", spec.c), ("a", spec.a)]
    sections = {
        "sieve_limit": [f"spec.base={spec.base}"]
        + [f"spec.{name}={_fmt_real(v)}" for name, v in params if v is not None]
        + [f"spec.exception.{p}={_fmt_real(v)}" for p, v in spec.exceptions],
        "checkpoint_ratio": [
            f"tolerance.{name}={_fmt_real(tol)}" for name, tol in sorted(cfg.tolerances)
        ],
    }
    lines = []
    for key, (_, render) in _SCALARS.items():
        lines.append(f"{key}={render(getattr(cfg, key))}")
        lines.extend(sections.get(key, ()))
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable 16-hex-digit digest of the canonical serialization."""
    import hashlib  # here, not at the top: it loads OpenSSL, and only verify hashes

    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]
