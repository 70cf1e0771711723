"""Command-line harness: sieve | partial-sums | prime-sum | series | verify | exponent.

All commands share two flags: ``--config PATH`` (the flat key=value
experiment file) and ``--out DIR`` (overrides the config's output_dir).
Outputs are CSV files in the output directory plus a human-readable echo
on stdout.

Exit codes: 0 success (verify: all checks passed or inconclusive),
1 at least one verification check failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import os
import struct
import sys
import tempfile
import time
import zlib
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, _fmt_real, load_config
from .dirichlet import (
    ComplexArgument,
    ConvergenceError,
    DomainError,
    PoleError,
    _SeriesStore,
)
from .exponent import (
    DerivedFunctionKind,
    InsufficientDataError,
    checkpoint_partial_sums,
    fit_exponent,
)
from .primesums import prime_sum_S
from .sieve import FactorSieve, build_sieve, primes_up_to
from .verify import report_to_csv, run_verify

_CACHE_MAGIC = b"MLSPF"
_CACHE_VERSION = 2
#: magic, version, limit, prime count, CRC-32 of the spf and prime payloads.
#: The CRC detects accidental corruption (a flipped bit, a torn copy); it is
#: no guard against a file crafted to match it.
_CACHE_HEADER = struct.Struct("<5sBQQI")

_KIND_NAMES = {kind.value: kind for kind in DerivedFunctionKind}

#: each ``series`` target and the series-store name it reads
_SERIES = {
    "zeta": "zeta",
    "F": DerivedFunctionKind.F_PLAIN,
    "H": DerivedFunctionKind.H_CONV,
    "Fmu2": DerivedFunctionKind.F_MU2,
    "G_sum": DerivedFunctionKind.G_CONV,
    "U": "U",
    "G_product": "G",
}


# ---------------------------------------------------------------------------
# sieve cache
# ---------------------------------------------------------------------------


def _cache_path(out_dir: Path, limit: int) -> Path:
    return out_dir / "cache" / f"spf_{limit}.bin"


def save_sieve_cache(sieve: FactorSieve, out_dir: Path) -> Path:
    """Write the cache file atomically: a temp file beside it, then ``os.replace``.

    A reader or a concurrent writer never sees a partly written file.  The
    file is the header, then spf, then the ascending primes, both tables as
    ``<u4`` written straight from their array buffers.
    """
    path = _cache_path(out_dir, sieve.limit)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            spf = np.ascontiguousarray(sieve.spf, dtype="<u4")
            primes = sieve.primes.astype("<u4")
            crc = zlib.crc32(primes, zlib.crc32(spf))
            fh.write(
                _CACHE_HEADER.pack(
                    _CACHE_MAGIC, _CACHE_VERSION, sieve.limit, primes.size, crc
                )
            )
            fh.write(spf)
            fh.write(primes)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_sieve_cache(out_dir: Path, limit: int) -> FactorSieve | None:
    """Load a cached sieve and its prime table; None on miss or on any mismatch.

    The header must carry this format's magic and version, ``limit`` and a
    prime count <= limit; the file must be exactly as long as they say; and
    the CRC-32 of both tables must match.  Each table is read in place into
    its own preallocated array.
    """
    path = _cache_path(out_dir, limit)
    try:
        with open(path, "rb") as fh:
            header = fh.read(_CACHE_HEADER.size)
            if len(header) != _CACHE_HEADER.size:
                return None
            magic, version, stored_limit, count, crc = _CACHE_HEADER.unpack(header)
            if (
                (magic, version, stored_limit) != (_CACHE_MAGIC, _CACHE_VERSION, limit)
                or count > limit
                or os.fstat(fh.fileno()).st_size
                != _CACHE_HEADER.size + 4 * (limit + 1 + count)
            ):
                return None
            spf = np.empty(limit + 1, dtype="<u4")
            primes = np.empty(count, dtype="<u4")
            if fh.readinto(spf) != spf.nbytes or fh.readinto(primes) != primes.nbytes:
                return None
    except OSError:
        return None
    if zlib.crc32(primes, zlib.crc32(spf)) != crc:
        return None
    return FactorSieve(limit=limit, spf=spf.astype(np.uint32, copy=False), primes=primes)


def _obtain_sieve(cfg: ExperimentConfig, out_dir: Path):
    """(sieve, source, seconds): load from cache when possible, else build."""
    t0 = time.perf_counter()
    cached = load_sieve_cache(out_dir, cfg.sieve_limit)
    if cached is not None:
        return cached, "cache", time.perf_counter() - t0
    sieve = build_sieve(cfg.sieve_limit)
    save_sieve_cache(sieve, out_dir)
    return sieve, "built", time.perf_counter() - t0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def _trace_rows(xs, values) -> list[str]:
    return [f"{int(x)},{_fmt_real(v)}" for x, v in zip(xs, values)]


def cmd_sieve(cfg: ExperimentConfig, out_dir: Path) -> int:
    sieve, source, seconds = _obtain_sieve(cfg, out_dir)
    count = primes_up_to(cfg.sieve_limit, sieve).size
    print(f"limit={cfg.sieve_limit} primes={count} source={source} seconds={seconds:.3f}")
    return 0


def cmd_partial_sums(cfg: ExperimentConfig, out_dir: Path, kind_name: str) -> int:
    kind = _KIND_NAMES[kind_name]
    sieve, _, _ = _obtain_sieve(cfg, out_dir)
    series = checkpoint_partial_sums(
        cfg.spec, kind, cfg.effective_x_max, sieve, schedule=cfg.checkpoints
    )
    path = out_dir / f"partial_sums_{kind.value}.csv"
    _write_csv(path, "x,sum", _trace_rows(series.x, series.sums))
    print(f"wrote {path} ({len(series.x)} checkpoints, exact={series.exact})")
    return 0


def cmd_prime_sum(cfg: ExperimentConfig, out_dir: Path) -> int:
    sieve, _, _ = _obtain_sieve(cfg, out_dir)
    trace = prime_sum_S(cfg.spec, cfg.effective_x_max, sieve, schedule=cfg.checkpoints)
    path = out_dir / "prime_sum_S.csv"
    _write_csv(path, "x,sum", _trace_rows(trace.x_values, trace.values))
    print(f"wrote {path} ({len(trace.checkpoints)} checkpoints)")
    return 0


def cmd_series(cfg: ExperimentConfig, out_dir: Path, which: str) -> int:
    sieve, _, _ = _obtain_sieve(cfg, out_dir)
    store = _SeriesStore(cfg.spec, cfg.truncation_N, cfg.euler_P, sieve, cfg.zeta_tol)
    rows = []
    for sigma, t in cfg.s_grid:
        point = ComplexArgument(sigma, t)
        try:
            ev = store.get(_SERIES[which], point)
        except (PoleError, DomainError, ConvergenceError) as exc:
            print(f"s={point}: error: {exc}")
            rows.append(f"{_fmt_real(sigma)},{_fmt_real(t)},nan,nan,0,inf,1,error")
            continue
        flag = 1 if ev.heuristic else 0
        rows.append(
            f"{_fmt_real(sigma)},{_fmt_real(t)},{_fmt_real(ev.value.real)},"
            f"{_fmt_real(ev.value.imag)},{ev.truncation_N},{_fmt_real(ev.tail_bound)},"
            f"{flag},{ev.method}"
        )
        bound = "heuristic" if ev.heuristic else f"+/-{ev.tail_bound:.3e}"
        print(
            f"s={point}: {which} = {ev.value.real:.12g}"
            + (f" {ev.value.imag:+.12g}i" if t != 0 else "")
            + f" ({bound}, N={ev.truncation_N}, {ev.method})"
        )
    path = out_dir / f"series_{which}.csv"
    _write_csv(
        path,
        "sigma,t,value_re,value_im,truncation_N,tail_bound,heuristic,method",
        rows,
    )
    print(f"wrote {path}")
    return 0


def cmd_verify(cfg: ExperimentConfig, out_dir: Path) -> int:
    sieve, _, _ = _obtain_sieve(cfg, out_dir)
    report = run_verify(cfg, sieve=sieve)
    path = out_dir / "verify_report.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report_to_csv(report))
    print(f"config_hash={report.config_hash}")
    for line in report.lines:
        print(
            f"{line.status.upper():12s} {line.check_name}  "
            f"measured={_fmt_real(line.measured)} budget={_fmt_real(line.budget)}"
        )
    failed = report.failed
    print(
        f"{len(report.lines)} checks: "
        f"{sum(1 for l in report.lines if l.status == 'pass')} pass, "
        f"{len(failed)} fail, "
        f"{sum(1 for l in report.lines if l.status == 'inconclusive')} inconclusive"
    )
    print(f"wrote {path}")
    return 1 if failed else 0


def cmd_exponent(cfg: ExperimentConfig, out_dir: Path, kind_name: str) -> int:
    kind = _KIND_NAMES[kind_name]
    sieve, _, _ = _obtain_sieve(cfg, out_dir)
    series = checkpoint_partial_sums(
        cfg.spec, kind, cfg.effective_x_max, sieve, schedule=cfg.checkpoints
    )
    try:
        fit = fit_exponent(series)
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = out_dir / f"exponent_{kind.value}.csv"
    _write_csv(
        path,
        "spec_id,kind,alpha_hat,stderr,x_lo,x_hi,points_used",
        [
            f"{series.spec_id},{kind.value},{_fmt_real(fit.alpha_hat)},"
            f"{_fmt_real(fit.stderr)},{fit.window[0]},{fit.window[1]},{fit.points_used}"
        ],
    )
    print(
        f"alpha_hat={fit.alpha_hat:.6f} stderr={fit.stderr:.2e} "
        f"window=[{fit.window[0]},{fit.window[1]}] points={fit.points_used}"
    )
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multlab",
        description="Multiplicative-function lab: sieves, series, prime sums, exponents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")

    add_common(sub.add_parser("sieve", help="build or load the factor sieve"))
    p = sub.add_parser("partial-sums", help="checkpointed partial sums of a stream")
    add_common(p)
    p.add_argument("--kind", choices=sorted(_KIND_NAMES), default="F_plain")
    add_common(sub.add_parser("prime-sum", help="S(x) trace"))
    p = sub.add_parser("series", help="evaluate a series/product over the s-grid")
    add_common(p)
    p.add_argument("--which", choices=tuple(_SERIES), default="zeta")
    add_common(sub.add_parser("verify", help="run the full verification suite"))
    p = sub.add_parser("exponent", help="fit the growth exponent of partial sums")
    add_common(p)
    p.add_argument("--kind", choices=sorted(_KIND_NAMES), default="F_plain")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        cfg = cfg.with_output_dir(args.out)
    out_dir = Path(cfg.output_dir)
    try:
        if args.command == "sieve":
            return cmd_sieve(cfg, out_dir)
        if args.command == "partial-sums":
            return cmd_partial_sums(cfg, out_dir, args.kind)
        if args.command == "prime-sum":
            return cmd_prime_sum(cfg, out_dir)
        if args.command == "series":
            return cmd_series(cfg, out_dir, args.which)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir)
        if args.command == "exponent":
            return cmd_exponent(cfg, out_dir, args.kind)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script entry point
    sys.exit(main())
