"""Command-line harness: sieve | partial-sums | prime-sum | series | verify | exponent.

All commands share two flags: ``--config PATH`` (the flat key=value
experiment file) and ``--out DIR`` (overrides the config's output_dir).
One table, ``_COMMANDS``, gives each command its function, help line,
own flag and the sieve tables it reads; it drives both the parser and
``main``, which loads the config and obtains the sieve once before
dispatching, and closes it when the command ends.  Outputs are CSV files in
the output directory plus a human-readable echo on stdout.

Exit codes: 0 success (verify: all checks passed or inconclusive),
1 at least one verification check failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import struct
import sys
import tempfile
import time
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import ConfigError, ExperimentConfig, _fmt_real, load_config
from .dirichlet import _NO_VALUE, ComplexArgument, _SeriesStore
from .exponent import (
    DerivedFunctionKind,
    InsufficientDataError,
    checkpoint_partial_sums,
    fit_exponent,
)
from .primesums import VERDICT_FAIL, VERDICT_INCONCLUSIVE, VERDICT_PASS, prime_sum_S
from .sieve import FactorSieve, primes_up_to
from .verify import report_to_csv, run_verify

_CACHE_MAGIC = b"MLSPF"
#: Format 4: the header, then the odd-only spf table ((limit + 1) // 2
#: cells), then the ascending primes, both tables ``<u4``.  The header is
#: magic, version, limit, prime count, and one CRC-32 per table, spf's
#: first; it is written last, once both tables are.  Before a command runs,
#: each table it reads (see ``_COMMANDS``) is checked against its CRC: the
#: prime table read into memory, spf through a small reused buffer.  The
#: command then reads spf from that same open file, by chunk, and never
#: holds it whole; a table the command does not read is neither read nor
#: checked, and its sieve sieves that table if it is ever read.  A table
#: that fails its check is a miss for every command that reads it, and
#: the miss rebuilds and rewrites the whole file, so a damaged table does
#: not outlive the next command that reads it.  A file of another format
#: (format 3 kept one CRC over both tables) is a miss, rewritten as this
#: one.  The CRCs detect accidental corruption (a flipped bit, a torn
#: copy); they are no guard against a file crafted to match them.
_CACHE_VERSION = 4
_CACHE_HEADER = struct.Struct("<5sBQQII")

#: the two tables of a cache file
_TABLES = ("spf", "primes")

#: bytes of the buffer spf is checked through
_CHECK_BYTES = 1 << 20

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
    layout is format 4 (see ``_CACHE_VERSION``).  spf is written as the
    sieve hands it over (``FactorSieve._spf_segments``): a sieve that holds
    no table sieves it in this one pass, each segment written as soon as
    it is finished, so saving holds one 1 MiB segment, never the whole
    table; a sieve given no primes either keeps those of that pass.
    The prime table follows, and the header with both CRCs comes last.
    """
    path = _cache_path(out_dir, sieve.limit)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.seek(_CACHE_HEADER.size)
            spf_crc = 0

            def write(_: int, cells: np.ndarray) -> None:
                nonlocal spf_crc
                cells = cells.astype("<u4", copy=False)
                spf_crc = zlib.crc32(cells, spf_crc)
                fh.write(cells)

            sieve._spf_segments(write)
            primes = sieve.primes.astype("<u4")
            fh.write(primes)
            fh.seek(0)
            header = (_CACHE_MAGIC, _CACHE_VERSION, sieve.limit, primes.size)
            fh.write(_CACHE_HEADER.pack(*header, spf_crc, zlib.crc32(primes)))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def _crc32_of_next(fh, size: int) -> int | None:
    """CRC-32 of the next ``size`` bytes of ``fh``, read through one reused
    buffer of at most _CHECK_BYTES; None when the file ends first."""
    view = memoryview(bytearray(min(size, _CHECK_BYTES)))
    crc = 0
    while size:
        n = fh.readinto(view[: min(size, len(view))])
        if not n:
            return None
        crc = zlib.crc32(view[:n], crc)
        size -= n
    return crc


def load_sieve_cache(
    out_dir: Path, limit: int, tables: tuple[str, ...] = _TABLES
) -> FactorSieve | None:
    """Load a cached sieve; None on miss or on any mismatch.

    The header must carry this format's magic and version, ``limit`` and a
    prime count <= limit, and the file must be exactly as long as they
    say.  Each table in ``tables`` ("spf", "primes") must match its
    CRC-32.  The prime table is read in place into its own preallocated
    array.  spf is checked through a small reused buffer and not kept: the
    sieve holds the open file and reads spf from it, by chunk or whole
    (see ``FactorSieve``), so its caller closes the sieve.  A table not in
    ``tables`` is neither read nor checked, and the sieve sieves it on its
    first read.
    """
    path = _cache_path(out_dir, limit)
    cells = (limit + 1) // 2
    try:
        with contextlib.ExitStack() as stack:
            fh = stack.enter_context(open(path, "rb"))
            header = fh.read(_CACHE_HEADER.size)
            if len(header) != _CACHE_HEADER.size:
                return None
            magic, version, stored_limit, count, spf_crc, primes_crc = _CACHE_HEADER.unpack(header)
            if (
                (magic, version, stored_limit) != (_CACHE_MAGIC, _CACHE_VERSION, limit)
                or count > limit
                or os.fstat(fh.fileno()).st_size != _CACHE_HEADER.size + 4 * (cells + count)
            ):
                return None
            spf = None
            if "spf" in tables:
                if _crc32_of_next(fh, 4 * cells) != spf_crc:
                    return None
                spf = (fh, _CACHE_HEADER.size)
            else:
                fh.seek(4 * cells, os.SEEK_CUR)
            primes = None
            if "primes" in tables:
                primes = np.empty(count, dtype="<u4")
                if fh.readinto(primes) != primes.nbytes or zlib.crc32(primes) != primes_crc:
                    return None
                primes = primes.astype(np.int64)
            sieve = FactorSieve._taking(limit, spf, primes)
            if spf is not None:
                stack.pop_all()  # the sieve holds the file from here on
            return sieve
    except OSError:
        return None


class _Obtained(NamedTuple):
    """The sieve a command runs on, and how ``main`` obtained it."""

    sieve: FactorSieve
    source: str  # "cache" or "built"
    seconds: float


def _obtain_sieve(cfg: ExperimentConfig, out_dir: Path, tables: tuple[str, ...]) -> _Obtained:
    """Load the sieve from the cache when possible, else build and save it.

    ``tables``: those the command reads, which a hit checks.  A miss is
    one sieving pass that writes the file as it goes (``save_sieve_cache``
    of a sieve given neither table) and keeps the primes; a command that
    reads spf then reads it back from that file, checked like a hit.
    """
    t0 = time.perf_counter()
    cached = load_sieve_cache(out_dir, cfg.sieve_limit, tables)
    if cached is not None:
        return _Obtained(cached, "cache", time.perf_counter() - t0)
    sieve = FactorSieve._taking(cfg.sieve_limit, None, None)
    save_sieve_cache(sieve, out_dir)
    if "spf" in tables:
        # spf by chunk from the file just written; were it damaged since,
        # the pass's own sieve would sieve spf again when it is read
        sieve = load_sieve_cache(out_dir, cfg.sieve_limit, tables) or sieve
    return _Obtained(sieve, "built", time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# commands: each takes (cfg, out_dir, obtained sieve, its own flag's value)
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def _trace_rows(xs, values) -> list[str]:
    return [f"{int(x)},{_fmt_real(v)}" for x, v in zip(xs, values)]


def _stream_series(cfg: ExperimentConfig, sieve: FactorSieve, kind_name: str):
    """(kind, checkpointed partial sums) of the stream that ``--kind`` names."""
    kind = _KIND_NAMES[kind_name]
    return kind, checkpoint_partial_sums(
        cfg.spec, kind, cfg.effective_x_max, sieve, schedule=cfg.checkpoints
    )


def cmd_sieve(cfg: ExperimentConfig, out_dir: Path, got: _Obtained, _: None) -> int:
    count = primes_up_to(cfg.sieve_limit, got.sieve).size
    print(f"limit={cfg.sieve_limit} primes={count} source={got.source} seconds={got.seconds:.3f}")
    return 0


def cmd_partial_sums(cfg: ExperimentConfig, out_dir: Path, got: _Obtained, kind_name: str) -> int:
    kind, series = _stream_series(cfg, got.sieve, kind_name)
    path = out_dir / f"partial_sums_{kind.value}.csv"
    _write_csv(path, "x,sum", _trace_rows(series.x_values, series.values))
    print(f"wrote {path} ({len(series.x_values)} checkpoints, exact={series.exact})")
    return 0


def cmd_prime_sum(cfg: ExperimentConfig, out_dir: Path, got: _Obtained, _: None) -> int:
    trace = prime_sum_S(cfg.spec, cfg.effective_x_max, got.sieve, schedule=cfg.checkpoints)
    path = out_dir / "prime_sum_S.csv"
    _write_csv(path, "x,sum", _trace_rows(trace.x_values, trace.values))
    print(f"wrote {path} ({len(trace.x_values)} checkpoints)")
    return 0


def cmd_series(cfg: ExperimentConfig, out_dir: Path, got: _Obtained, which: str) -> int:
    name = _SERIES[which]
    # a stream's sums at every s-grid point come from one pass
    streamed = isinstance(name, DerivedFunctionKind)
    sums = [(name, ComplexArgument(*s)) for s in cfg.s_grid] if streamed else []
    store = _SeriesStore(cfg.spec, cfg.truncation_N, cfg.euler_P, got.sieve, cfg.zeta_tol, sums)
    rows = []
    for sigma, t in cfg.s_grid:
        point = ComplexArgument(sigma, t)
        try:
            ev = store.get(name, point)
        except _NO_VALUE as exc:
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


def cmd_verify(cfg: ExperimentConfig, out_dir: Path, got: _Obtained, _: None) -> int:
    report = run_verify(cfg, sieve=got.sieve)
    path = out_dir / "verify_report.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report_to_csv(report))
    print(f"config_hash={report.config_hash}")
    for line in report.lines:
        print(
            f"{line.status.upper():12s} {line.check_name}  "
            f"measured={_fmt_real(line.measured)} budget={_fmt_real(line.budget)}"
        )
    statuses = [line.status for line in report.lines]
    print(
        f"{len(statuses)} checks: {statuses.count(VERDICT_PASS)} pass, "
        f"{statuses.count(VERDICT_FAIL)} fail, {statuses.count(VERDICT_INCONCLUSIVE)} inconclusive"
    )
    print(f"wrote {path}")
    return 1 if report.failed else 0


def cmd_exponent(cfg: ExperimentConfig, out_dir: Path, got: _Obtained, kind_name: str) -> int:
    kind, series = _stream_series(cfg, got.sieve, kind_name)
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
            f"{cfg.spec.spec_id()},{kind.value},{_fmt_real(fit.alpha_hat)},"
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
# the command table and argument parsing
# ---------------------------------------------------------------------------

#: the two own flags, as (name, choices, default)
_KIND_FLAG = ("--kind", sorted(_KIND_NAMES), "F_plain")
_WHICH_FLAG = ("--which", tuple(_SERIES), "zeta")

#: the sieve tables each ``series`` target reads: a stream spf, a product
#: the primes, zeta neither
_SERIES_TABLES = {
    target: ("spf",) if isinstance(name, DerivedFunctionKind) else ("primes",)
    for target, name in _SERIES.items()
}
_SERIES_TABLES["zeta"] = ()

#: each command: its function, help line, own flag, and the sieve tables it
#: reads (``series``: per target, from _SERIES_TABLES), the ones a cache
#: hit checks
_COMMANDS = {
    "sieve": (cmd_sieve, "build or load the factor sieve", None, ("primes",)),
    "partial-sums": (
        cmd_partial_sums, "checkpointed partial sums of a stream", _KIND_FLAG, ("spf",)
    ),
    "prime-sum": (cmd_prime_sum, "S(x) trace", None, ("primes",)),
    "series": (
        cmd_series, "evaluate a series/product over the s-grid", _WHICH_FLAG, _SERIES_TABLES
    ),
    "verify": (cmd_verify, "run the full verification suite", None, _TABLES),
    "exponent": (cmd_exponent, "fit the growth exponent of partial sums", _KIND_FLAG, ("spf",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multlab",
        description="Multiplicative-function lab: sieves, series, prime sums, exponents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, flag, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        if flag is None:
            p.set_defaults(option=None)
        else:
            p.add_argument(flag[0], dest="option", choices=flag[1], default=flag[2])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = load_config(args.config)  # as loaded: --out moves files, not the hash
        out_dir = Path(cfg.output_dir if args.out is None else args.out)
        command, _, _, tables = _COMMANDS[args.command]
        if isinstance(tables, dict):
            tables = tables[args.option]
        got = _obtain_sieve(cfg, out_dir, tables)
        with got.sieve:  # closes the cache file a loaded sieve reads spf from
            return command(cfg, out_dir, got, args.option)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script entry point
    sys.exit(main())
