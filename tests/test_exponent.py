"""Partial-sum checkpointing, envelope exponent fits, normalized-decay check."""

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from multlab.exponent import (
    ExponentFit,
    InsufficientDataError,
    PartialSumSeries,
    VERDICT_FAIL,
    VERDICT_INCONCLUSIVE,
    VERDICT_PASS,
    checkpoint_partial_sums,
    fit_exponent,
    kronecker_check,
    running_max_envelope,
)
from multlab.multfunc import (
    LIOUVILLE,
    DerivedFunctionKind,
    constant_spec,
    liouville_spec,
)
from multlab.summation import checkpoint_schedule


def synthetic_series(x, sums):
    return PartialSumSeries(
        x=np.asarray(x, dtype=np.int64),
        sums=np.asarray(sums, dtype=np.float64),
        kind=DerivedFunctionKind.F_PLAIN,
        spec_id="synthetic",
        exact=False,
    )


# ------------------------------------------------ checkpoint_partial_sums


def test_liouville_partial_sums_first_ten(sieve_1e4):
    series = checkpoint_partial_sums(
        LIOUVILLE,
        DerivedFunctionKind.F_PLAIN,
        10,
        sieve_1e4,
        schedule=np.arange(1, 11),
    )
    assert series.exact
    assert series.sums.tolist() == [1, 0, -1, 0, -1, 0, -1, -2, -1, 0]


def test_h_partial_sum_counts_squares(sieve_1e6):
    series = checkpoint_partial_sums(
        LIOUVILLE, DerivedFunctionKind.H_CONV, 10**6, sieve_1e6
    )
    assert series.exact
    assert series.x[-1] == 10**6
    assert series.sums[-1] == 1000.0


def test_constant_zero_stream_sums_to_one(sieve_1e4):
    # f(n) = [n == 1]: every partial sum is exactly 1
    series = checkpoint_partial_sums(
        constant_spec(0.0), DerivedFunctionKind.F_PLAIN, 10**4, sieve_1e4
    )
    assert series.exact
    assert np.all(series.sums == 1.0)


def test_compensated_path_matches_fsum_oracle(sieve_1e5):
    from multlab.multfunc import coefficient_stream

    spec = constant_spec(0.5)
    series = checkpoint_partial_sums(
        spec, DerivedFunctionKind.F_PLAIN, 10**5, sieve_1e5
    )
    assert not series.exact
    coeffs = coefficient_stream(spec, DerivedFunctionKind.F_PLAIN, 10**5, sieve_1e5)
    for i in (0, len(series.x) // 2, len(series.x) - 1):
        k = int(series.x[i])
        oracle = math.fsum(coeffs[:k].tolist())
        assert series.sums[i] == pytest.approx(oracle, rel=1e-13, abs=1e-13)


def test_exact_path_matches_cumsum(sieve_1e5):
    from multlab.multfunc import integer_coefficient_stream

    series = checkpoint_partial_sums(
        LIOUVILLE, DerivedFunctionKind.F_PLAIN, 10**5, sieve_1e5
    )
    coeffs = integer_coefficient_stream(
        LIOUVILLE, DerivedFunctionKind.F_PLAIN, 10**5, sieve_1e5
    )
    cums = np.cumsum(coeffs)
    expect = cums[series.x - 1].astype(np.float64)
    assert np.array_equal(series.sums, expect)


def test_default_schedule_shape(sieve_1e4):
    series = checkpoint_partial_sums(
        LIOUVILLE, DerivedFunctionKind.F_PLAIN, 10**4, sieve_1e4
    )
    sched = checkpoint_schedule(10**4)
    assert np.array_equal(series.x, sched)
    assert series.x[0] >= 1
    assert series.x[-1] == 10**4
    assert np.all(np.diff(series.x) > 0)


def test_checkpoint_validation(sieve_1e4):
    with pytest.raises(ValueError):
        checkpoint_partial_sums(
            LIOUVILLE, DerivedFunctionKind.F_PLAIN, 10**5, sieve_1e4
        )
    with pytest.raises(ValueError):
        checkpoint_partial_sums(
            LIOUVILLE,
            DerivedFunctionKind.F_PLAIN,
            100,
            sieve_1e4,
            schedule=np.array([50, 200]),  # beyond x_max
        )


def test_series_container_validation():
    with pytest.raises(ValueError):
        synthetic_series([1, 2, 3], [1.0, 2.0])
    with pytest.raises(ValueError):
        synthetic_series([1, 5, 5], [1.0, 2.0, 3.0])


# ----------------------------------------------------------- envelope/fit


def test_envelope_is_running_max_of_abs():
    series = synthetic_series([1, 2, 3, 4, 5], [1.0, -3.0, 2.0, -2.5, 0.5])
    env = running_max_envelope(series)
    assert env.tolist() == [1.0, 3.0, 3.0, 3.0, 3.0]
    assert np.all(np.diff(env) >= 0.0)


def test_fit_recovers_power_law_exponent():
    x = np.unique(np.geomspace(10, 10**6, 300).astype(np.int64))
    fit = fit_exponent(synthetic_series(x, x.astype(float) ** 0.7))
    assert abs(fit.alpha_hat - 0.7) < 1e-6
    assert fit.stderr < 1e-6
    assert fit.points_used >= 8
    assert fit.window[1] == 10**6


def test_fit_recovers_zero_exponent_for_bounded_sums():
    x = np.unique(np.geomspace(10, 10**6, 300).astype(np.int64))
    fit = fit_exponent(synthetic_series(x, np.full(x.size, 7.0)))
    assert abs(fit.alpha_hat) < 1e-6


def test_fit_is_scale_invariant():
    x = np.unique(np.geomspace(10, 10**5, 200).astype(np.int64))
    sums = x.astype(float) ** 0.42
    a = fit_exponent(synthetic_series(x, sums)).alpha_hat
    b = fit_exponent(synthetic_series(x, 1000.0 * sums)).alpha_hat
    assert a == pytest.approx(b, abs=1e-12)


def test_fit_honors_custom_window():
    x = np.unique(np.geomspace(10, 10**6, 300).astype(np.int64))
    # kinked data: slope 0.9 before 10^3, slope 0.3 after
    sums = np.where(x <= 10**3, x**0.9, 10**3 ** 0.6 * x**0.3)
    late = fit_exponent(synthetic_series(x, sums), window=(10**4, 10**6))
    assert abs(late.alpha_hat - 0.3) < 1e-6
    early = fit_exponent(synthetic_series(x, sums), window=(10, 10**3))
    assert abs(early.alpha_hat - 0.9) < 1e-6
    assert late.window == (10**4, 10**6)


def test_fit_insufficient_data_paths():
    # too few checkpoints after the first decade is dropped
    with pytest.raises(InsufficientDataError):
        fit_exponent(synthetic_series([1, 2, 3, 4], [1.0, 1.0, 1.0, 1.0]))
    # envelope identically zero: nothing to take logs of
    x = np.unique(np.geomspace(10, 10**4, 50).astype(np.int64))
    with pytest.raises(InsufficientDataError):
        fit_exponent(synthetic_series(x, np.zeros(x.size)))


def test_fit_liouville_exponent_near_half(sieve_1e6):
    series = checkpoint_partial_sums(
        LIOUVILLE, DerivedFunctionKind.F_PLAIN, 10**6, sieve_1e6
    )
    fit = fit_exponent(series)
    assert 0.35 <= fit.alpha_hat <= 0.65


# --------------------------------------------------------- kronecker_check


def partial_sum_design(target_sums):
    """Coefficients whose partial sums equal the given array exactly."""
    a = np.empty(target_sums.size)
    a[0] = target_sums[0]
    a[1:] = np.diff(target_sums)
    return a


def test_kronecker_convergent_designs_pass():
    n = 10**5
    idx = np.arange(1, n + 1, dtype=np.float64)
    # S(x) = x^{1/4} at sigma = 3/4: a(n) ~ n^{-3/4}, so sum a(n) n^{-3/4}
    # converges by comparison with n^{-3/2}; normalized sums decay like
    # x^{-1/2}
    _, _, verdict = kronecker_check(partial_sum_design(idx**0.25), 0.75, n)
    assert verdict == VERDICT_PASS
    # finitely supported coefficients: S eventually constant
    fin = np.zeros(n)
    fin[:100] = 1.0
    _, _, v2 = kronecker_check(fin, 0.5, n)
    assert v2 == VERDICT_PASS
    # identically zero
    _, _, v3 = kronecker_check(np.zeros(n), 0.5, n)
    assert v3 == VERDICT_PASS


def test_kronecker_divergent_designs_fail():
    n = 10**5
    idx = np.arange(1, n + 1, dtype=np.float64)
    # a == 1: sum n^{-sigma} diverges for sigma <= 1; normalized grows
    for sigma in (0.5, 0.75, 1.0):
        _, _, verdict = kronecker_check(np.ones(n), sigma, n)
        assert verdict == VERDICT_FAIL, sigma
    # S(x) = x^0.9 at sigma = 0.75: weighted series ~ sum n^{-0.85} diverges
    _, _, v2 = kronecker_check(partial_sum_design(idx**0.9), 0.75, n)
    assert v2 == VERDICT_FAIL


def test_kronecker_borderline_is_inconclusive():
    n = 10**5
    idx = np.arange(1, n + 1, dtype=np.float64)
    # normalized decay ratio per doubling ~ 2^{-0.2} = 0.87: between thresholds
    _, _, verdict = kronecker_check(partial_sum_design(idx**0.55), 0.75, n)
    assert verdict == VERDICT_INCONCLUSIVE


def test_kronecker_returns_are_consistent():
    n = 10**4
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(-1, 1, size=n)
    series, normalized, verdict = kronecker_check(coeffs, 0.6, n)
    cums = np.cumsum(coeffs)
    expect = cums[series.x - 1]
    assert np.allclose(series.sums, expect, rtol=1e-12, atol=1e-12)
    assert np.allclose(
        normalized, np.abs(series.sums) / series.x.astype(float) ** 0.6
    )
    # determinism
    again = kronecker_check(coeffs, 0.6, n)
    assert again[2] == verdict
    assert np.array_equal(again[1], normalized)


def test_kronecker_too_short_for_verdict():
    _, _, verdict = kronecker_check(np.ones(30), 0.5, 30)
    assert verdict == VERDICT_INCONCLUSIVE


def test_kronecker_validation():
    with pytest.raises(ValueError):
        kronecker_check(np.ones(10), 0.0, 10)
    with pytest.raises(ValueError):
        kronecker_check(np.ones(10), 0.5, 100)  # array shorter than x_max


# ------------------------------------------------ least squares without scipy


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 10**12), min_size=8, max_size=80, unique=True),
    st.floats(-2.0, 2.0),
    st.floats(0.0, 2.0),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_fit_exponent_is_linregress_bit_for_bit(xs, slope, noise, seed, flat):
    x = np.sort(np.array(xs, dtype=np.int64))
    lx = np.log(x.astype(np.float64))
    if flat:  # a constant envelope: r and the stderr are nan
        envelope = np.full(x.size, 3.0)
    else:
        jitter = np.random.default_rng(seed).normal(scale=noise, size=x.size)
        envelope = np.maximum.accumulate(np.exp(slope * lx + jitter))
    fit = fit_exponent(synthetic_series(x, envelope), window=(1, int(x[-1])))
    oracle = stats.linregress(lx, np.log(envelope))
    assert struct.pack("<dd", fit.alpha_hat, fit.stderr) == struct.pack(
        "<dd", oracle.slope, oracle.stderr
    )


def test_cli_and_verify_run_without_scipy():
    code = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import multlab.cli
from multlab.config import ExperimentConfig
from multlab.exponent import checkpoint_partial_sums, fit_exponent
from multlab.multfunc import LIOUVILLE, DerivedFunctionKind
from multlab.sieve import build_sieve
from multlab.verify import run_verify
series = checkpoint_partial_sums(LIOUVILLE, DerivedFunctionKind.F_PLAIN, 10**5, build_sieve(10**5))
print(fit_exponent(series).alpha_hat)
print(len(run_verify(ExperimentConfig()).lines))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    alpha, lines = proc.stdout.split()
    assert 0.0 < float(alpha) < 1.0 and int(lines) > 0
