"""End-to-end command tests: run main() in-process, inspect files and codes."""

import contextlib
import io
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import multlab.cli
import multlab.sieve
from multlab.cli import _CACHE_HEADER, load_sieve_cache, main, save_sieve_cache
from multlab.config import ExperimentConfig, config_hash, load_config
from multlab.dirichlet import (
    ComplexArgument,
    dirichlet_sum,
    euler_product_G,
    euler_product_U,
    zeta,
)
from multlab.multfunc import (
    DerivedFunctionKind,
    constant_spec,
    liouville_spec,
    power_decay_spec,
)
from multlab.sieve import FactorSieve, build_sieve
from multlab.verify import report_to_csv, run_verify

SMALL_CFG = """
sieve_limit = 10000
truncation_N = 1000
euler_P = 1000
"""

PERTURBED_CFG = """
sieve_limit = 10000
truncation_N = 1000
euler_P = 1000
spec.base = liouville
spec.exception.2 = 0.5
spec.exception.3 = -0.25
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CFG)
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# ------------------------------------------------------------------ sieve


def test_sieve_builds_then_hits_cache(cfg_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sieve", "--config", str(cfg_file), "--out", str(out)]) == 0
    first = capsys.readouterr().out
    assert "source=built" in first and "primes=1229" in first
    assert (out / "cache" / "spf_10000.bin").exists()
    assert main(["sieve", "--config", str(cfg_file), "--out", str(out)]) == 0
    second = capsys.readouterr().out
    assert "source=cache" in second


def test_corrupt_cache_is_rebuilt(cfg_file, tmp_path, capsys):
    out = tmp_path / "out"
    main(["sieve", "--config", str(cfg_file), "--out", str(out)])
    capsys.readouterr()
    cache = out / "cache" / "spf_10000.bin"
    cache.write_bytes(b"GARBAGE" + cache.read_bytes()[7:])
    assert main(["sieve", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert "source=built" in capsys.readouterr().out


def test_cache_round_trip_and_rejection(tmp_path):
    sieve = build_sieve(5000)
    save_sieve_cache(sieve, tmp_path)
    with load_sieve_cache(tmp_path, 5000) as back:
        # spf is read from the held file: by cells, then whole
        assert back._spf_cells(100, 300).tobytes() == sieve.spf[100:300].tobytes()
        assert "spf" not in vars(back)
        assert np.array_equal(back.spf, sieve.spf)
        assert np.array_equal(back.primes, sieve.primes)
        assert back.primes.dtype == np.int64 and not back.primes.flags.writeable
    # without spf, only the header and the prime table are read
    primes_only = load_sieve_cache(tmp_path, 5000, ("primes",))
    assert "spf" not in vars(primes_only)
    assert np.array_equal(primes_only.primes, sieve.primes)
    assert load_sieve_cache(tmp_path, 6000, ("primes",)) is None
    # without the primes, the prime table is neither read nor kept
    with load_sieve_cache(tmp_path, 5000, ("spf",)) as spf_only:
        assert "primes" not in vars(spf_only)
        assert spf_only._spf_cells(0, 2500).tobytes() == sieve.spf.tobytes()
    # wrong limit is a miss, not an error
    assert load_sieve_cache(tmp_path, 6000) is None
    path = tmp_path / "cache" / "spf_5000.bin"
    good = path.read_bytes()
    # the header, one cell per odd n <= 5000, then pi(5000) = 669 primes
    assert len(good) == _CACHE_HEADER.size + 4 * ((5000 + 1) // 2 + 669)
    # trailing bytes are rejected
    path.write_bytes(good + bytes(4))
    assert load_sieve_cache(tmp_path, 5000) is None
    # truncated payload is rejected, down to one byte short
    for short in (good[:-8], good[:-1]):
        path.write_bytes(short)
        assert load_sieve_cache(tmp_path, 5000) is None
    # the prime table comes from the file, not from a scan of spf
    save_sieve_cache(FactorSieve(limit=5000, spf=sieve.spf, primes=sieve.primes[:10]), tmp_path)
    with load_sieve_cache(tmp_path, 5000) as back:
        assert back.primes.tolist() == sieve.primes[:10].tolist()


@pytest.mark.parametrize("from_end", [12471, 2], ids=["spf", "primes"])
def test_flipped_byte_at_same_size_is_rebuilt(cfg_file, tmp_path, capsys, from_end):
    # 30-byte header, then 5000 spf cells (odd n) and 1229 primes of 4
    # bytes each: the middle byte lies in spf, the second last in the
    # prime table.  A damaged table is a miss for each command that reads
    # it, and that miss rewrites the file
    clean, out = tmp_path / "clean", tmp_path / "out"
    for d, command in ((clean, "partial-sums"), (out, "sieve")):
        assert main([command, "--config", str(cfg_file), "--out", str(d)]) == 0
    capsys.readouterr()
    cache = out / "cache" / "spf_10000.bin"
    good = cache.read_bytes()
    data = bytearray(good)
    data[-from_end] ^= 0x10
    cache.write_bytes(bytes(data))
    in_spf = from_end > 4 * 1229
    assert load_sieve_cache(out, 10000) is None
    assert (load_sieve_cache(out, 10000, ("primes",)) is None) is not in_spf
    spf_only = load_sieve_cache(out, 10000, ("spf",))
    assert (spf_only is None) is in_spf
    if spf_only is not None:
        spf_only.close()
    # ``sieve`` reads the prime table alone: damage to spf is no miss for it
    assert main(["sieve", "--config", str(cfg_file), "--out", str(out)]) == 0
    source = "cache" if in_spf else "built"
    assert f"primes=1229 source={source}" in capsys.readouterr().out
    assert (cache.read_bytes() == good) is not in_spf
    # partial-sums reads spf alone: damage to spf is a miss for it, which
    # rewrites the file, and the stream reads the rewritten table
    assert main(["partial-sums", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert cache.read_bytes() == good
    csv = "partial_sums_F_plain.csv"
    assert (out / csv).read_bytes() == (clean / csv).read_bytes()


def _old_cache_file(version, limit, full_spf, primes):
    """A well-formed cache file of format 1, 2 or 3.

    Formats 1 and 2 stored spf(n) for every n, format 3 for odd n only;
    format 3 kept one CRC-32 over both tables.
    """
    spf = (full_spf if version < 3 else full_spf[1::2]).astype("<u4").tobytes()
    if version == 1:  # magic, version byte, <Q limit, spf
        return b"MLSPF\x01" + struct.pack("<Q", limit) + spf
    # the header (magic, version, limit, prime count, CRC-32), spf, primes
    table = primes.astype("<u4").tobytes()
    crc = zlib.crc32(table, zlib.crc32(spf))
    return struct.pack("<5sBQQI", b"MLSPF", version, limit, primes.size, crc) + spf + table


@pytest.mark.parametrize("version", [1, 2, 3], ids=["v1", "v2", "v3"])
def test_old_cache_version_is_rebuilt_once_as_version_4(
    cfg_file, tmp_path, capsys, spf_oracle, version
):
    out = tmp_path / "out"
    cache = out / "cache" / "spf_10000.bin"
    cache.parent.mkdir(parents=True)
    full_spf = spf_oracle(10000)
    primes = np.flatnonzero(full_spf[2:] == np.arange(2, 10001)) + 2
    cache.write_bytes(_old_cache_file(version, 10000, full_spf, primes))
    for tables in (("spf", "primes"), ("spf",), ("primes",), ()):
        assert load_sieve_cache(out, 10000, tables) is None
    for source in ("built", "cache"):
        assert main(["sieve", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert f"source={source}" in capsys.readouterr().out
    assert cache.read_bytes()[:6] == b"MLSPF\x04"


def test_cache_write_is_atomic(tmp_path):
    sieve = build_sieve(5000)
    path = tmp_path / "cache" / "spf_5000.bin"
    path.parent.mkdir()
    path.write_bytes(b"MLSPF\x04")  # a torn earlier write
    assert save_sieve_cache(sieve, tmp_path) == path
    with load_sieve_cache(tmp_path, 5000) as back:
        assert back is not None and np.array_equal(back.spf, sieve.spf)
    assert [p.name for p in path.parent.iterdir()] == ["spf_5000.bin"]

    class FailingTable:
        def astype(self, *args, **kwargs):
            raise OSError("disk full")

    # a write that fails part way, once spf is written and the temp file
    # exists, leaves the good file in place
    failing = SimpleNamespace(
        limit=5000, _spf_segments=lambda sink: sink(0, sieve.spf), primes=FailingTable()
    )
    with pytest.raises(OSError, match="disk full"):
        save_sieve_cache(failing, tmp_path)
    with load_sieve_cache(tmp_path, 5000) as back:
        assert np.array_equal(back.spf, sieve.spf)
    assert [p.name for p in path.parent.iterdir()] == ["spf_5000.bin"]


def _refuse_to_sieve(*args, **kwargs):
    raise AssertionError("the sieve was built")


_STREAMS = ("spf",)


@pytest.mark.parametrize(
    "argv, tables",
    [
        (["sieve"], ("primes",)),
        (["prime-sum"], ("primes",)),
        (["series", "--which", "zeta"], ()),
        (["series", "--which", "U"], ("primes",)),
        (["series", "--which", "G_product"], ("primes",)),
        (["series", "--which", "F"], _STREAMS),
        (["series", "--which", "G_sum"], _STREAMS),
        (["partial-sums", "--kind", "H_conv"], _STREAMS),
        (["exponent"], _STREAMS),
        (["verify"], ("spf", "primes")),
    ],
    ids=lambda v: "-".join(v) if isinstance(v, list) else "+".join(v) or "none",
)
def test_cache_hit_loads_spf_only_for_commands_that_read_it(
    cfg_file, tmp_path, monkeypatch, argv, tables
):
    out = tmp_path / "out"
    assert main(["sieve", "--config", str(cfg_file), "--out", str(out)]) == 0
    loaded = []

    def load(*args):
        loaded.append((args[2], load_sieve_cache(*args)))
        return loaded[-1][1]

    monkeypatch.setattr(multlab.cli, "load_sieve_cache", load)
    # a hit sieves nothing, so a table the hit did not check is never read
    monkeypatch.setattr(multlab.sieve, "_sieve", _refuse_to_sieve)
    argv = [argv[0], "--config", str(cfg_file), "--out", str(out), *argv[1:]]
    assert main(argv) in (0, 1)
    [(checked, sieve)] = loaded
    assert sieve is not None and tuple(checked) == tables
    # spf is read by chunk from the held file, never whole; the prime
    # table is in memory only when the command reads it
    assert "spf" not in vars(sieve)
    assert ("primes" in vars(sieve)) is ("primes" in tables)
    if "spf" in tables:  # closed when the command ended
        with pytest.raises(ValueError, match="closed file"):
            sieve._spf_cells(0, 1)


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("source", ["miss", "hit"])
def test_stream_command_never_holds_the_factor_table(tmp_path, source):
    limit = 2**22
    table_bytes = 4 * ((limit + 1) // 2)
    # the H stream keeps a(0..limit/2) as int16, itself half the table's
    # bytes (kept entries: see multfunc._stream_blocks); all else a command
    # allocates, the miss's sieving pass and cache write included, must
    # stay under half the table.  Loading the table would pass it alone
    kept_bytes = 2 * (limit // 2 + 1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sieve_limit = {limit}\n")
    out = tmp_path / "out"
    argv = ["partial-sums", "--config", str(cfg), "--out", str(out), "--kind", "H_conv"]
    assert _quiet_main([*argv[:4], str(tmp_path / "warm"), *argv[5:]]) == 0  # first-call costs
    if source == "hit":
        assert _quiet_main(argv) == 0
    (out / "partial_sums_H_conv.csv").unlink(missing_ok=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert _quiet_main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < kept_bytes + 0.5 * table_bytes
    csv = out / "partial_sums_H_conv.csv"
    assert csv.read_bytes() == (tmp_path / "warm" / "partial_sums_H_conv.csv").read_bytes()


def test_stream_reads_the_checked_file_after_the_path_is_replaced(cfg_file, tmp_path, monkeypatch):
    clean, out = tmp_path / "clean", tmp_path / "out"
    argv = ["partial-sums", "--config", str(cfg_file), "--kind", "H_conv", "--out"]
    for d in (clean, out):
        assert _quiet_main([*argv, str(d)]) == 0
    cache = out / "cache" / "spf_10000.bin"
    # a well-formed file whose spf cells all read 1: a stream that reopened
    # the path would read it
    damaged = bytearray(cache.read_bytes())
    damaged[_CACHE_HEADER.size : _CACHE_HEADER.size + 4 * 5000] = struct.pack("<I", 1) * 5000
    loaded = []

    def load(*args):
        loaded.append(load_sieve_cache(*args))
        replacement = tmp_path / "replacement.bin"
        replacement.write_bytes(bytes(damaged))
        os.replace(replacement, cache)  # between the check and the stream
        return loaded[-1]

    monkeypatch.setattr(multlab.cli, "load_sieve_cache", load)
    (out / "partial_sums_H_conv.csv").unlink()
    assert _quiet_main([*argv, str(out)]) == 0
    assert loaded[0] is not None
    assert cache.read_bytes() == bytes(damaged)
    csv = "partial_sums_H_conv.csv"
    assert (out / csv).read_bytes() == (clean / csv).read_bytes()


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count")
@pytest.mark.parametrize("command", ["partial-sums", "verify", "sieve"])
def test_no_descriptor_outlives_a_command(cfg_file, tmp_path, command):
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg_file), "--out", str(out)]
    before = _open_fds()
    assert _quiet_main(argv) == 0  # a miss
    assert _open_fds() == before
    assert _quiet_main(argv) == 0  # a hit
    assert _open_fds() == before
    cache = out / "cache" / "spf_10000.bin"
    for at in (_CACHE_HEADER.size + 2, -2):  # damaged spf, then damaged primes
        data = bytearray(cache.read_bytes())
        data[at] ^= 0x10
        cache.write_bytes(bytes(data))
        assert _quiet_main(argv) == 0
        assert _open_fds() == before


# six segments of spf with a partial last one, exactly four full ones,
# and one cell into a fifth: the reused scratch segment's last fill
@pytest.mark.parametrize("limit", [3 * 10**6, 4 * (1 << 19) - 1, 4 * (1 << 19) + 1])
def test_miss_writes_the_file_an_in_memory_save_writes(tmp_path, limit):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sieve_limit = {limit}\n")
    built = build_sieve(limit)
    in_memory = FactorSieve(limit=limit, spf=built.spf, primes=built.primes)
    expected = save_sieve_cache(in_memory, tmp_path / "ref").read_bytes()
    out = tmp_path / "out"
    assert _quiet_main(["sieve", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "cache" / f"spf_{limit}.bin"
    assert path.read_bytes() == expected
    path.unlink()
    assert _quiet_main(["partial-sums", "--config", str(cfg), "--out", str(out)]) == 0
    assert path.read_bytes() == expected


# ----------------------------------------------------------- partial sums


def test_partial_sums_writes_checkpointed_csv(cfg_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(
        [
            "partial-sums",
            "--config",
            str(cfg_file),
            "--out",
            str(out),
            "--kind",
            "H_conv",
        ]
    )
    assert rc == 0
    header, rows = read_csv(out / "partial_sums_H_conv.csv")
    assert header == "x,sum"
    assert int(rows[-1][0]) == 10000
    # h-stream for the default spec counts perfect squares: 100 up to 10^4
    assert float(rows[-1][1]) == 100.0
    xs = [int(r[0]) for r in rows]
    assert xs == sorted(xs)


# -------------------------------------------------------------- prime-sum


def test_prime_sum_zero_for_default_spec(cfg_file, tmp_path):
    out = tmp_path / "out"
    assert main(["prime-sum", "--config", str(cfg_file), "--out", str(out)]) == 0
    _, rows = read_csv(out / "prime_sum_S.csv")
    assert all(float(r[1]) == 0.0 for r in rows)


def test_prime_sum_plateau_for_perturbed_spec(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PERTURBED_CFG)
    out = tmp_path / "out"
    assert main(["prime-sum", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out / "prime_sum_S.csv")
    import math

    expected = 1.5 * math.log(2.0) + 0.75 * math.log(3.0)
    assert float(rows[-1][1]) == pytest.approx(expected, abs=1e-12)


# ----------------------------------------------------------------- series


def test_series_zeta_with_pole_in_grid(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG + "s_grid = 1:0, 2:0\n")
    out = tmp_path / "out"
    rc = main(["series", "--config", str(cfg), "--out", str(out), "--which", "zeta"])
    assert rc == 0  # per-point errors are reported, not fatal
    text = capsys.readouterr().out
    assert "error" in text
    header, rows = read_csv(out / "series_zeta.csv")
    assert header == "sigma,t,value_re,value_im,truncation_N,tail_bound,heuristic,method"
    assert rows[0][7] == "error"
    import math

    assert float(rows[1][2]) == pytest.approx(math.pi**2 / 6, abs=1e-10)


@pytest.mark.parametrize("which", ["zeta", "F", "H", "Fmu2", "G_sum", "U", "G_product"])
def test_series_all_targets_produce_files(cfg_file, tmp_path, which):
    out = tmp_path / "out"
    rc = main(["series", "--config", str(cfg_file), "--out", str(out), "--which", which])
    assert rc == 0
    header, rows = read_csv(out / f"series_{which}.csv")
    assert len(rows) == 4  # default s-grid
    assert all(r[7] != "error" for r in rows)
    # each row is the library value for that name (17 digits round-trip)
    cfg = load_config(cfg_file)
    sieve = build_sieve(cfg.sieve_limit)
    N, P = cfg.truncation_N, cfg.euler_P
    direct = {
        "zeta": lambda s: zeta(s, tol=cfg.zeta_tol),
        "F": lambda s: dirichlet_sum(DerivedFunctionKind.F_PLAIN, cfg.spec, s, N, sieve),
        "H": lambda s: dirichlet_sum(DerivedFunctionKind.H_CONV, cfg.spec, s, N, sieve),
        "Fmu2": lambda s: dirichlet_sum(DerivedFunctionKind.F_MU2, cfg.spec, s, N, sieve),
        "G_sum": lambda s: dirichlet_sum(DerivedFunctionKind.G_CONV, cfg.spec, s, N, sieve),
        "U": lambda s: euler_product_U(cfg.spec, s, P, sieve),
        "G_product": lambda s: euler_product_G(cfg.spec, s, P, sieve),
    }[which]
    for row, (sigma, t) in zip(rows, cfg.s_grid):
        ev = direct(ComplexArgument(sigma, t))
        assert (float(row[2]), float(row[3]), float(row[5])) == (
            ev.value.real,
            ev.value.imag,
            ev.tail_bound,
        )


def test_series_U_outside_domain_is_an_error_row(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG + "s_grid = 0:0, 2:0\n")
    out = tmp_path / "out"
    rc = main(["series", "--config", str(cfg), "--out", str(out), "--which", "U"])
    assert rc == 0
    _, rows = read_csv(out / "series_U.csv")
    assert rows[0][2:] == ["nan", "nan", "0", "inf", "1", "error"]
    assert rows[1][7] == "euler_product"


@pytest.mark.parametrize(
    "extra, which, flag, point, verify_status",
    [
        # zeta's bound is not finite (the phase of N^(-s) is lost): an error row
        ("s_grid = 2:1e200\n", "zeta", "error", "2+1e+200i", {"H_eq_zetaF": "inconclusive"}),
        # 2^(sigma-1) overflows in the divisor tail: a finite rigorous bound
        ("s_grid = 1100\n", "H", "0", "1100+0i", {"H_eq_zetaF": "pass"}),
        ("s_grid = 1100\n", "G_sum", "0", "1100+0i", {"G_product_vs_sum": "pass"}),
        # the Euler tail factor expm1(log_tail) overflows: a heuristic row,
        # from products with no power of zeta to divide out (U of power decay
        # that clamps f(2) at +1; G at sigma = 1/2, with tail exponent
        # sigma + a = 1 + 1e-7).  A Liouville U or a power decay U that
        # clamps no f(p) is deflated there, with zeta's bound
        (
            "s_grid = 0.5000001\nspec.base = power_decay\nspec.c = 5.0\nspec.a = 1.0\n",
            "U",
            "1",
            "0.5+0i",
            {"Fmu2_eq_FU": "inconclusive"},
        ),
        # U of the constant 0 base has tail coefficient 0: the exception
        # factors alone (none here), with a finite bound at any sigma
        (
            "s_grid = 0.5000001\nspec.base = constant\nspec.c = 0.0\n",
            "U",
            "0",
            "0.5+0i",
            {},
        ),
        (
            "s_grid = 0.5\nspec.base = power_decay\nspec.c = 0.5\nspec.a = 0.5000001\n",
            "G_product",
            "1",
            "0.5+0i",
            {"G_product_vs_sum": "inconclusive", "recip_zeta_eq_Fmu2_over_G": "inconclusive"},
        ),
    ],
    ids=["zeta", "H", "G_sum", "U", "U_constant_zero", "G_product"],
)
def test_overflowing_bounds_give_rows_not_tracebacks(
    extra, which, flag, point, verify_status, tmp_path, capsys
):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG + extra)
    out = tmp_path / "out"
    assert main(["series", "--config", str(cfg), "--out", str(out), "--which", which]) == 0
    _, rows = read_csv(out / f"series_{which}.csv")
    assert rows[0][7 if flag == "error" else 6] == flag
    if flag == "0":
        assert 0.0 < float(rows[0][5]) < 1e-10
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out / "verify_report.csv")
    by_name = {r[0]: r[1] for r in rows}
    for identity, status in verify_status.items():
        assert by_name[f"{identity}:s={point}"] == status


@pytest.mark.parametrize(
    "text",
    [
        "s_grid = -70:0\n",  # the default config: math.fsum's intermediate overflow
        "sieve_limit = 1000\ntruncation_N = 1000\neuler_P = 1000\ns_grid = -300:0\n",  # -inf + inf
    ],
    ids=["s=-70", "s=-300"],
)
def test_dirichlet_sums_past_float64_give_lines_and_rows(text, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out / "verify_report.csv")
    at_point = [r[1:] for r in rows if ":s=-" in r[0]]
    assert at_point == [["inconclusive", "nan", "inf"]] * 4
    for which in ("F", "H"):
        assert main(["series", "--config", str(cfg), "--out", str(out), "--which", which]) == 0
        _, rows = read_csv(out / f"series_{which}.csv")
        assert rows[0][2:] == ["nan", "nan", "0", "inf", "1", "error"]
    assert "leaves float64" in capsys.readouterr().out


#: configs at the edges of what a config admits; every command must end in
#: an exit code, never in a traceback
EDGE_CFGS = {
    # an exception prime past P whose p^sigma overflows float64 in G's tail
    "G-tail-overflow": "sieve_limit = 2000\ntruncation_N = 1000\neuler_P = 1000\n"
    "spec.exception.1009 = 0.5\ns_grid = 400:0\n",
    "x_max=10": SMALL_CFG + "x_max = 10\n",
    "t=1e300": SMALL_CFG + "s_grid = 2:1e300\n",
    "sigma=1e-300": SMALL_CFG + "s_grid = 1e-300:0\n",
    # no prime below P: G is its tail alone, whose bound needs (P+1)^-sigma < 1
    "P=0,sigma=1e-300": "sieve_limit = 10000\ntruncation_N = 1000\neuler_P = 0\n"
    "s_grid = 1e-300:0\nspec.base = constant\nspec.c = 0.5\nspec.exception.2 = 0.5\n",
    "power_decay-c=-5": SMALL_CFG + "spec.base = power_decay\nspec.c = -5\nspec.a = 0.5\n",
    "h-grid=1e-300": SMALL_CFG + "f_one_h_grid = 1e-300\n",
    # U's factor at p = 2 cancels to log1p(-1): a degenerate factor, no value
    "sigma=1e-9,t=1e-9": SMALL_CFG + "s_grid = 1e-9:1e-9\n",
}

EDGE_COMMANDS = [
    ["verify"],
    ["series", "--which", "G_product"],
    ["series", "--which", "U"],
    ["series", "--which", "H"],
    ["prime-sum"],
    ["exponent"],
    ["partial-sums"],
]


@pytest.mark.parametrize("name", EDGE_CFGS)
def test_edge_configs_end_in_exit_codes_not_tracebacks(name, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EDGE_CFGS[name])
    for command in EDGE_COMMANDS:
        argv = [command[0], "--config", str(cfg), "--out", str(tmp_path / "out")] + command[1:]
        assert main(argv) in (0, 1, 2), command
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err, command


def test_series_G_product_collapses_for_default_spec(cfg_file, tmp_path):
    out = tmp_path / "out"
    main(["series", "--config", str(cfg_file), "--out", str(out), "--which", "G_product"])
    _, rows = read_csv(out / "series_G_product.csv")
    for r in rows:
        assert float(r[2]) == 1.0
        assert float(r[3]) == 0.0


# ----------------------------------------------------------------- verify


def test_verify_passes_and_writes_report(cfg_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(cfg_file), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "config_hash=" in text
    header, rows = read_csv(out / "verify_report.csv")
    assert header == "check_name,status,measured,budget"
    statuses = {r[1] for r in rows}
    assert statuses <= {"pass", "fail", "inconclusive"}
    assert "fail" not in statuses


def test_out_moves_the_files_but_not_the_config_hash(cfg_file, tmp_path, capsys):
    # the hash is the config file's own, whichever directory --out names
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name / "out"
        assert main(["verify", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert (out / "verify_report.csv").exists()
        hashes += re.findall(r"config_hash=([0-9a-f]{16})", capsys.readouterr().out)
    assert hashes == [config_hash(load_config(cfg_file))] * 2


@pytest.mark.parametrize("exceptions", [{}, {3: 0.5, 7: 1.0, 13: 0.0}], ids=["plain", "excepted"])
def test_every_spelling_of_liouville_gets_the_same_report(exceptions, sieve_1e5):
    # f(p) = -1 at every prime but the exceptions, spelt six ways: each
    # check, the prime-sum plateau included, judges them alike
    spellings = [
        liouville_spec(exceptions),
        constant_spec(-1.0, exceptions),
        power_decay_spec(0.0, 0.7, exceptions),
        power_decay_spec(-0.0, 3.0, exceptions),
        # c < 0: -1 + c p^-a is below -1 and clamped to it at every prime
        power_decay_spec(-0.3, 0.7, exceptions),
        power_decay_spec(-2.0, 5.0, exceptions),
    ]
    reports = [
        report_to_csv(run_verify(ExperimentConfig(sieve_limit=10**5, spec=spec), sieve_1e5))
        for spec in spellings
    ]
    assert "prime_sum_plateau,pass," in reports[0]
    assert reports == [reports[0]] * len(spellings)


def test_verify_detects_injected_corruption(cfg_file, tmp_path, monkeypatch, capsys):
    # poison the h-stream by 1%: the H = zeta * F identity must
    # blow its budget and the command must exit 1
    import multlab.dirichlet as dl

    original = dl._coefficients

    def poisoned(spec, kinds, limit, sieve):
        exact, blocks = original(spec, kinds, limit, sieve)
        scale = [1.01 if kind is dl.DerivedFunctionKind.H_CONV else 1 for kind in kinds]
        return exact, ((lo, [b * k for b, k in zip(block, scale)]) for lo, block in blocks)

    monkeypatch.setattr(dl, "_coefficients", poisoned)
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(cfg_file), "--out", str(out)])
    assert rc == 1
    _, rows = read_csv(out / "verify_report.csv")
    failed = [r[0] for r in rows if r[1] == "fail"]
    assert any(name.startswith("H_eq_zetaF") for name in failed)


def test_verify_reports_unevaluable_points_as_inconclusive(tmp_path, capsys):
    # sigma <= 0 (DomainError) and the pole s = 1 (PoleError) become report
    # lines, not a traceback out of main
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG + "s_grid = -0.5:0, 0:0, 1:0, 2:0\n")
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out / "verify_report.csv")
    by_name = {r[0]: r[1:] for r in rows}
    for point in ("-0.5+0i", "0+0i", "1+0i"):
        at_point = [r for r in rows if r[0].endswith(f":s={point}")]
        assert len(at_point) == 4
        assert all(r[1] == "inconclusive" for r in at_point)
        assert by_name[f"H_eq_zetaF:s={point}"] == ["inconclusive", "nan", "inf"]
    assert by_name["H_eq_zetaF:s=2+0i"][0] == "pass"


def test_verify_tolerance_does_not_judge_points_outside_the_domain(tmp_path, capsys):
    # a configured tolerance decides heuristic points only; at sigma < 0
    # U is not evaluated at all, so the line stays inconclusive
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG + "s_grid = -0.5:0, 2:0\ntolerance.Fmu2_eq_FU = 1e-3\n")
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out / "verify_report.csv")
    by_name = {r[0]: r[1:] for r in rows}
    assert by_name["Fmu2_eq_FU:s=-0.5+0i"] == ["inconclusive", "nan", "inf"]
    assert by_name["Fmu2_eq_FU:s=2+0i"][0] == "pass"


def test_x_max_1_is_inconclusive_not_a_traceback(tmp_path, capsys):
    # no prime lies in [2, x_max]: the weighted tail has nothing to sum
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sieve_limit = 1000\ntruncation_N = 100\neuler_P = 100\nx_max = 1\n")
    out = tmp_path / "out"
    for command in ("sieve", "partial-sums", "prime-sum", "series", "verify"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, command
    _, rows = read_csv(out / "verify_report.csv")
    by_name = {r[0]: r[1:] for r in rows}
    assert by_name["weighted_tail:sigma=1"] == ["inconclusive", "nan", "inf"]


# --------------------------------------------------------------- exponent


def test_checkpoint_ratio_next_to_1_exits_2_and_a_huge_one_runs(tmp_path, capsys):
    # 1 + 1e-9 would take about 9e9 steps from 10 to 10^5; 1e308 overflows
    # the grid's running value on its first step
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    cfg.write_text("sieve_limit = 100000\ncheckpoint_ratio = 1.000000001\n")
    assert main(["prime-sum", "--config", str(cfg), "--out", str(out)]) == 2
    assert "steps" in capsys.readouterr().err
    cfg.write_text("sieve_limit = 100000\ncheckpoint_ratio = 1e308\n")
    assert main(["prime-sum", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out / "prime_sum_S.csv")
    assert [r[0] for r in rows] == ["10", "100000"]


def test_exponent_command_fits_default_stream(cfg_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["exponent", "--config", str(cfg_file), "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "exponent_F_plain.csv")
    assert header == "spec_id,kind,alpha_hat,stderr,x_lo,x_hi,points_used"
    assert rows[0][0] == "liouville"
    alpha = float(rows[0][2])
    assert 0.2 < alpha < 0.8


def test_exponent_insufficient_data_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sieve_limit = 10000\ntruncation_N = 50\neuler_P = 50\nx_max = 50\n")
    out = tmp_path / "out"
    rc = main(["exponent", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "widen the window" in capsys.readouterr().err


def test_exponent_past_the_default_window_says_where_it_starts(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sieve_limit = 2\ntruncation_N = 2\neuler_P = 2\nx_max = 2\n")
    rc = main(["exponent", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "the default window starts at 10*x0 = 20, past x_max = 2" in err


# ----------------------------------------------------------- error handling


def test_missing_or_bad_config_exits_2(tmp_path, capsys):
    rc = main(["sieve", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("sieve_limit = 10\nwhat_is_this = 3\n")
    assert main(["sieve", "--config", str(bad)]) == 2
    empty_grid = tmp_path / "grid.cfg"
    empty_grid.write_text(SMALL_CFG + "s_grid = ,\n")
    assert main(["series", "--config", str(empty_grid)]) == 2


def test_sieve_limit_past_uint32_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sieve_limit = 4294967296\n")
    assert main(["sieve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "sieve_limit" in err and "Traceback" not in err


def test_exception_key_past_int64_runs_prime_sum(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "sieve_limit = 1000\ntruncation_N = 1000\neuler_P = 1000\n"
        "spec.exception.9223372036854775837 = 0.5\n"
    )
    out = tmp_path / "out"
    assert main(["prime-sum", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out / "prime_sum_S.csv")
    assert all(float(r[1]) == 0.0 for r in rows)


def test_negative_threads_exits_2(cfg_file, capsys):
    # the thread count is the sieve's own affair: --threads is no flag
    rc = main(["sieve", "--config", str(cfg_file), "--threads", "-1"])
    assert rc == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["sieve"]) == 2  # --config is required
    capsys.readouterr()


#: each command on SMALL_CFG, in run order, and the form of every stdout
#: line it prints (``seconds=`` masked); the bench reads ``primes=N
#: source=cache`` from the last sieve line
_FLOAT = r"-?(\d[\d.e+-]*|inf|nan)"
_STDOUT_FORMS = [
    (["sieve"], [r"limit=10000 primes=1229 source=built seconds=<s>"]),
    (
        ["partial-sums", "--kind", "H_conv"],
        [r"wrote \S+partial_sums_H_conv\.csv \(41 checkpoints, exact=True\)"],
    ),
    (["prime-sum"], [r"wrote \S+prime_sum_S\.csv \(41 checkpoints\)"]),
    (
        ["series", "--which", "zeta"],
        [rf"s=[\d.]+\+0i: zeta = {_FLOAT} \(\+/-{_FLOAT}, N=\d+, \w+\)"] * 4
        + [r"wrote \S+series_zeta\.csv"],
    ),
    (
        ["verify"],
        [r"config_hash=[0-9a-f]{16}"]
        + [rf"(PASS|FAIL|INCONCLUSIVE) +\S+  measured={_FLOAT} budget={_FLOAT}"] * 25
        + [r"25 checks: 25 pass, 0 fail, 0 inconclusive", r"wrote \S+verify_report\.csv"],
    ),
    (
        ["exponent"],
        [
            rf"alpha_hat={_FLOAT} stderr={_FLOAT} window=\[100,10000\] points=27",
            r"wrote \S+exponent_F_plain\.csv",
        ],
    ),
    (["sieve"], [r"limit=10000 primes=1229 source=cache seconds=<s>"]),
]


def test_every_command_prints_its_pinned_stdout_lines(cfg_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    for command, forms in _STDOUT_FORMS:
        assert main([command[0], "--config", str(cfg_file), "--out", out] + command[1:]) == 0
        captured = capsys.readouterr()
        lines = re.sub(r"seconds=\d+\.\d{3}$", "seconds=<s>", captured.out, flags=re.M)
        lines = lines.splitlines()
        assert len(lines) == len(forms), (command, lines)
        for line, form in zip(lines, forms):
            assert re.fullmatch(form, line), (command, line)
        assert captured.err == ""


def test_every_command_lists_its_help_and_flags(capsys):
    assert main(["--help"]) == 0
    assert re.findall(r"^    (\S+) +(.+)$", capsys.readouterr().out, flags=re.M) == [
        ("sieve", "build or load the factor sieve"),
        ("partial-sums", "checkpointed partial sums of a stream"),
        ("prime-sum", "S(x) trace"),
        ("series", "evaluate a series/product over the s-grid"),
        ("verify", "run the full verification suite"),
        ("exponent", "fit the growth exponent of partial sums"),
    ]
    kinds = "--kind {F_mu2,F_plain,G_conv,H_conv}"
    own_flag = {
        "sieve": None,
        "partial-sums": kinds,
        "prime-sum": None,
        "series": "--which {zeta,F,H,Fmu2,G_sum,U,G_product}",
        "verify": None,
        "exponent": kinds,
    }
    for command, flag in own_flag.items():
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert "--config CONFIG" in text and "--out OUT" in text, command
        flags = re.findall(r"^  (--kind|--which) (\{\S+\})$", text, flags=re.M)
        assert flags == ([tuple(flag.split(" "))] if flag else []), command


def test_installed_entry_point_smoke(cfg_file, tmp_path):
    exe = shutil.which("multlab")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = tmp_path / "out"
    proc = subprocess.run(
        [exe, "sieve", "--config", str(cfg_file), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "primes=1229" in proc.stdout


def test_python_dash_m_runs_the_cli(cfg_file, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "multlab", "sieve", "--config", str(cfg_file), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "primes=1229" in proc.stdout


def test_import_loads_no_heavy_optional_modules():
    # each CLI call and bench worker pays its imports in start-up time:
    # scipy.stats alone once cost about 1 s per process
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import sys, multlab, multlab.cli; "
        "print(sorted(m for m in ('scipy', 'numpy.ma', 'mpmath', 'hashlib') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
