"""End-to-end command tests: run main() in-process, inspect files and codes."""

import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from multlab.cli import load_sieve_cache, main, save_sieve_cache
from multlab.config import load_config
from multlab.dirichlet import (
    ComplexArgument,
    dirichlet_sum,
    euler_product_G,
    euler_product_U,
    zeta,
)
from multlab.multfunc import DerivedFunctionKind
from multlab.sieve import FactorSieve, build_sieve

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
    back = load_sieve_cache(tmp_path, 5000)
    assert back is not None
    assert np.array_equal(back.spf, sieve.spf)
    assert np.array_equal(back.primes, sieve.primes)
    assert back.primes.dtype == np.int64 and not back.primes.flags.writeable
    # wrong limit is a miss, not an error
    assert load_sieve_cache(tmp_path, 6000) is None
    path = tmp_path / "cache" / "spf_5000.bin"
    good = path.read_bytes()
    # trailing bytes are rejected
    path.write_bytes(good + bytes(4))
    assert load_sieve_cache(tmp_path, 5000) is None
    # truncated payload is rejected
    path.write_bytes(good[:-8])
    assert load_sieve_cache(tmp_path, 5000) is None
    # the prime table comes from the file, not from a scan of spf
    save_sieve_cache(FactorSieve(limit=5000, spf=sieve.spf, primes=sieve.primes[:10]), tmp_path)
    assert load_sieve_cache(tmp_path, 5000).primes.tolist() == sieve.primes[:10].tolist()


@pytest.mark.parametrize("from_end", [22473, 2], ids=["spf", "primes"])
def test_flipped_byte_at_same_size_is_rebuilt(cfg_file, tmp_path, capsys, from_end):
    # 26-byte header, then 10001 spf cells and 1229 primes of 4 bytes each:
    # the middle byte lies in spf, the second last in the prime table
    out = tmp_path / "out"
    main(["sieve", "--config", str(cfg_file), "--out", str(out)])
    capsys.readouterr()
    cache = out / "cache" / "spf_10000.bin"
    data = bytearray(cache.read_bytes())
    data[-from_end] ^= 0x10
    cache.write_bytes(bytes(data))
    assert load_sieve_cache(out, 10000) is None
    assert main(["sieve", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert "primes=1229 source=built" in capsys.readouterr().out


def test_version_1_cache_is_rebuilt_once_as_version_2(cfg_file, tmp_path, capsys):
    out = tmp_path / "out"
    cache = out / "cache" / "spf_10000.bin"
    cache.parent.mkdir(parents=True)
    spf = build_sieve(10000).spf
    # the version-1 layout: magic, version byte, <Q limit, spf as <u4
    cache.write_bytes(b"MLSPF\x01" + struct.pack("<Q", 10000) + spf.astype("<u4").tobytes())
    assert load_sieve_cache(out, 10000) is None
    for source in ("built", "cache"):
        assert main(["sieve", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert f"source={source}" in capsys.readouterr().out
    assert cache.read_bytes()[:6] == b"MLSPF\x02"


def test_cache_write_is_atomic(tmp_path):
    sieve = build_sieve(5000)
    path = tmp_path / "cache" / "spf_5000.bin"
    path.parent.mkdir()
    path.write_bytes(b"MLSPF\x02")  # a torn earlier write
    assert save_sieve_cache(sieve, tmp_path) == path
    back = load_sieve_cache(tmp_path, 5000)
    assert back is not None and np.array_equal(back.spf, sieve.spf)
    assert [p.name for p in path.parent.iterdir()] == ["spf_5000.bin"]

    class FailingTable:
        def astype(self, *args, **kwargs):
            raise OSError("disk full")

    # a write that fails part way, once spf is in hand and the temp file
    # exists, leaves the good file in place
    failing = SimpleNamespace(limit=5000, spf=sieve.spf, primes=FailingTable())
    with pytest.raises(OSError, match="disk full"):
        save_sieve_cache(failing, tmp_path)
    assert np.array_equal(load_sieve_cache(tmp_path, 5000).spf, sieve.spf)
    assert [p.name for p in path.parent.iterdir()] == ["spf_5000.bin"]


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


def test_threads_do_not_change_output(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sieve_limit = 3000000\ntruncation_N = 1000\neuler_P = 1000\n")
    out1, out8 = tmp_path / "t1", tmp_path / "t8"
    for out, threads in ((out1, 1), (out8, 8)):
        save_sieve_cache(build_sieve(3000000, threads=threads), out)
        rc = main(["partial-sums", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
    body1 = (out1 / "partial_sums_F_plain.csv").read_bytes()
    body8 = (out8 / "partial_sums_F_plain.csv").read_bytes()
    assert body1 == body8
    cache1 = (out1 / "cache" / "spf_3000000.bin").read_bytes()
    cache8 = (out8 / "cache" / "spf_3000000.bin").read_bytes()
    assert cache1 == cache8


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
        # zeta's truncation constant overflows float64: an error row
        ("s_grid = 2:460\n", "zeta", "error", "2+460i", {"H_eq_zetaF": "inconclusive"}),
        # 2^(sigma-1) overflows in the divisor tail: a finite rigorous bound
        ("s_grid = 1100\n", "H", "0", "1100+0i", {"H_eq_zetaF": "pass"}),
        ("s_grid = 1100\n", "G_sum", "0", "1100+0i", {"G_product_vs_sum": "pass"}),
        # the Euler tail factor expm1(log_tail) overflows: a heuristic row
        ("s_grid = 0.5000001\n", "U", "1", "0.5+0i", {"Fmu2_eq_FU": "inconclusive"}),
        (
            "s_grid = 0.5000001\nspec.base = power_decay\nspec.c = 0.5\nspec.a = 0.5\n",
            "G_product",
            "1",
            "0.5+0i",
            {"G_product_vs_sum": "inconclusive", "recip_zeta_eq_Fmu2_over_G": "inconclusive"},
        ),
    ],
    ids=["zeta", "H", "G_sum", "U", "G_product"],
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


def test_verify_detects_injected_corruption(cfg_file, tmp_path, monkeypatch, capsys):
    # poison the h-stream by 1%: the H = zeta * F identity must
    # blow its budget and the command must exit 1
    import multlab.dirichlet as dl

    original = dl.coefficient_stream

    def poisoned(spec, kind, limit, sieve):
        coeffs = original(spec, kind, limit, sieve)
        if kind is dl.DerivedFunctionKind.H_CONV:
            return coeffs * 1.01
        return coeffs

    monkeypatch.setattr(dl, "coefficient_stream", poisoned)
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
