"""Sieve construction and the classical arithmetic functions.

The heavyweight checks reconstruct every integer up to 10^6 from its
factorization and compare spf(n) and the prime set against independently
coded Boolean Eratosthenes sieves that store every n (the ``spf_oracle``
fixture), so a bug in the segmented odd-only construction cannot hide
behind the same code path or layout that produced it.
"""

import contextlib
import io
import math
import threading
import tracemalloc

import numpy as np
import pytest

import multlab.sieve
from multlab.cli import main
from multlab.config import ExperimentConfig
from multlab.dirichlet import euler_product_G, euler_product_U
from multlab.multfunc import constant_spec, liouville_spec, power_decay_spec
from multlab.primesums import prime_sum_S, pretentious_distance_sq, weighted_tail_diagnostic
from multlab.sieve import (
    FactorSieve,
    big_omega,
    build_sieve,
    factorize,
    is_squarefree,
    liouville,
    moebius,
    primes_up_to,
)
from multlab.verify import _prime_power_minima


def boolean_eratosthenes(limit):
    """Independent oracle: plain Boolean sieve, no shared code with multlab."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0]


def spf_of(sieve, n):
    """spf(n) as the sieve's odd-only table gives it: 2 for even n, else spf[n >> 1]."""
    n = np.asarray(n, dtype=np.int64)
    out = np.full(n.shape, 2, dtype=np.int64)
    odd = (n & 1) == 1
    out[odd] = sieve.spf[n[odd] >> 1]
    return out


def test_factorize_small_examples(sieve_1e4):
    assert factorize(1, sieve_1e4) == []
    assert factorize(2, sieve_1e4) == [(2, 1)]
    assert factorize(360, sieve_1e4) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(9973, sieve_1e4) == [(9973, 1)]  # largest prime < 10^4
    assert factorize(1024, sieve_1e4) == [(2, 10)]


def test_factorize_reconstructs_every_n_up_to_1e6(sieve_1e6, spf_oracle):
    # Vectorized full reconstruction: divide out spf repeatedly; the product
    # of extracted factors must give back n for every single n.
    n = np.arange(sieve_1e6.limit + 1, dtype=np.int64)
    spf = spf_of(sieve_1e6, n)
    assert np.array_equal(spf[1:], spf_oracle(10**6)[1:])
    remaining = n.copy()
    remaining[0] = 1
    product = np.ones_like(n)
    while True:
        active = remaining > 1
        if not active.any():
            break
        p = spf[remaining[active]]
        assert (remaining[active] % p == 0).all()
        product[active] *= p
        remaining[active] //= p
    assert (product[1:] == n[1:]).all()


def test_spf_is_the_smallest_prime_factor(sieve_1e4):
    primes = boolean_eratosthenes(10**4)
    prime_set = set(primes.tolist())
    for n in range(2, 10**4 + 1):
        p = int(spf_of(sieve_1e4, n))
        assert p in prime_set
        assert n % p == 0
        # nothing smaller divides n
        for q in primes:
            if q >= p:
                break
            assert n % q != 0


def test_primes_up_to_matches_independent_sieve(sieve_1e5):
    expected = boolean_eratosthenes(10**5)
    got = primes_up_to(10**5, sieve_1e5)
    assert np.array_equal(got, expected)
    assert got.dtype == np.int64


@pytest.mark.parametrize(
    "x,count",
    [(10, 4), (100, 25), (1000, 168), (10**4, 1229), (10**6, 78498)],
)
def test_prime_counting_checkpoints(sieve_1e6, x, count):
    assert primes_up_to(x, sieve_1e6).size == count


def test_primes_up_to_edge_cases(sieve_1e4):
    assert primes_up_to(1, sieve_1e4).size == 0
    assert primes_up_to(2, sieve_1e4).tolist() == [2]
    with pytest.raises(ValueError):
        primes_up_to(10**4 + 1, sieve_1e4)


def test_primes_up_to_slices_the_prime_table(sieve_1e4):
    expected = boolean_eratosthenes(10**4)
    p = 9973  # largest prime < 10^4
    for x in (0, 1, 2, 3, 4, p - 1, p, 10**4):
        assert np.array_equal(primes_up_to(x, sieve_1e4), expected[expected <= x]), x
    # one table per sieve, handed out as read-only views
    a, b = primes_up_to(100, sieve_1e4), primes_up_to(10**4, sieve_1e4)
    assert not a.flags.writeable and not b.flags.writeable
    assert np.shares_memory(a, b)
    with pytest.raises(ValueError):
        a[0] = 3
    with pytest.raises(ValueError, match="exceeds sieve limit"):
        primes_up_to(10**4 + 1, sieve_1e4)


def test_log_primes_is_one_read_only_table_aligned_with_primes():
    sieve = build_sieve(10**4)  # fresh: the table must not exist before first use
    assert "log_primes" not in vars(sieve)
    logs = sieve.log_primes
    assert sieve.log_primes is logs
    assert logs.dtype == np.float64 and logs.shape == sieve.primes.shape
    assert not logs.flags.writeable
    assert all(abs(v - math.log(int(p))) <= math.ulp(v) for p, v in zip(sieve.primes, logs))
    assert np.array_equal(logs, np.log(sieve.primes.astype(np.float64)))


def test_given_prime_table_is_served_as_read_only_int64():
    built = build_sieve(10**4)
    table = boolean_eratosthenes(10**4).astype(np.uint32)
    sieve = FactorSieve(limit=10**4, spf=built.spf, primes=table)
    primes = sieve.primes
    assert primes.dtype == np.int64 and not primes.flags.writeable
    assert np.array_equal(primes, built.primes)
    assert table.flags.writeable  # the caller's array is left as it was
    table[0] = 3  # and the sieve keeps its own copy
    assert sieve.primes[0] == 2
    assert np.array_equal(primes_up_to(100, sieve), built.primes[:25])


def test_liouville_small_values(sieve_1e4):
    # lambda(1..10) = 1,-1,-1,1,-1,1,-1,-1,1,1
    got = [liouville(n, sieve_1e4) for n in range(1, 11)]
    assert got == [1, -1, -1, 1, -1, 1, -1, -1, 1, 1]


def _omega_by_stepping(limit):
    """Independent Omega oracle: add 1 at every multiple of every prime power.

    n with p-adic valuation v is hit once for each p^k <= n with k <= v, so
    the total is exactly Omega(n).  Shares no code with the spf machinery.
    """
    omega = np.zeros(limit + 1, dtype=np.int8)
    for p in boolean_eratosthenes(limit):
        pk = int(p)
        while pk <= limit:
            omega[pk::pk] += 1
            pk *= p
    return omega


def test_liouville_summatory_at_powers_of_ten(sieve_1e6):
    # L(x) = sum_{n<=x} lambda(n); classical table values
    omega = _omega_by_stepping(10**6)
    lam_oracle = np.where(omega[1:] & 1, -1, 1).astype(np.int64)
    lam_sieve = np.array(
        [liouville(n, sieve_1e6) for n in range(1, 2001)], dtype=np.int64
    )
    assert np.array_equal(lam_sieve, lam_oracle[:2000])
    partial = np.cumsum(lam_oracle)
    for x, expected in [
        (10**2, -2),
        (10**3, -14),
        (10**4, -94),
        (10**5, -288),
        (10**6, -530),
    ]:
        assert partial[x - 1] == expected, f"L({x})"


def test_moebius_small_values(sieve_1e4):
    got = [moebius(n, sieve_1e4) for n in range(1, 13)]
    assert got == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_mertens_checkpoints(sieve_1e6):
    # M(x) = sum mu(n): classical values M(10^3)=2, M(10^4)=-23, M(10^6)=212.
    # mu oracle built by stepping over primes/prime squares, independent of spf.
    limit = 10**6
    distinct = np.zeros(limit + 1, dtype=np.int8)
    squarefree = np.ones(limit + 1, dtype=bool)
    for p in boolean_eratosthenes(limit):
        p = int(p)
        distinct[p::p] += 1
        if p * p <= limit:
            squarefree[p * p :: p * p] = False
    mu_oracle = np.where(squarefree[1:], np.where(distinct[1:] & 1, -1, 1), 0)
    mu_sieve = np.array([moebius(n, sieve_1e6) for n in range(1, 2001)])
    assert np.array_equal(mu_sieve, mu_oracle[:2000])
    partial = np.cumsum(mu_oracle.astype(np.int64))
    for x, expected in [(10**3, 2), (10**4, -23), (10**5, -48), (10**6, 212)]:
        assert partial[x - 1] == expected, f"M({x})"


def test_moebius_vs_squarefree_consistency(sieve_1e4):
    for n in range(1, 5000):
        mu = moebius(n, sieve_1e4)
        assert is_squarefree(n, sieve_1e4) == (mu != 0)
        if mu != 0:
            assert mu == (-1) ** len(factorize(n, sieve_1e4))


def test_big_omega_additive(sieve_1e4, rng):
    for _ in range(200):
        a = int(rng.integers(2, 90))
        b = int(rng.integers(2, 90))
        assert big_omega(a * b, sieve_1e4) == big_omega(a, sieve_1e4) + big_omega(
            b, sieve_1e4
        )


def test_liouville_completely_multiplicative(sieve_1e4, rng):
    for _ in range(200):
        a = int(rng.integers(1, 100))
        b = int(rng.integers(1, 100))
        assert liouville(a * b, sieve_1e4) == liouville(a, sieve_1e4) * liouville(
            b, sieve_1e4
        )


# a segment holds 2^20 odd n for the primes alone and 2^18 for spf, so
# their edges fall at 2^21 and 2^19 integers
_EDGE = 2 * (1 << 20)
_SPF_EDGE = 2 * (1 << 18)


@pytest.mark.parametrize(
    "limit", [2, 3, 4, 5, 6, 7, _SPF_EDGE - 1, _SPF_EDGE + 1, _EDGE - 1, _EDGE, _EDGE + 1]
)
def test_odd_table_equals_the_oracle(limit, spf_oracle):
    # spf sieved on first read of a build, and in one pass with the
    # primes for a sieve given neither
    sieve = build_sieve(limit)
    assert "spf" not in vars(sieve)
    pending = FactorSieve._taking(limit, None, None)
    pending.spf
    assert "primes" in vars(pending)
    for each in (sieve, pending):
        assert each.spf.dtype == np.uint32
        assert each.spf.nbytes == 4 * ((limit + 1) // 2)
    assert pending.spf.tobytes() == sieve.spf.tobytes()
    assert pending.primes.tobytes() == sieve.primes.tobytes()
    n = np.arange(1, limit + 1)
    assert np.array_equal(spf_of(sieve, n), spf_oracle(limit)[1:])
    assert np.array_equal(sieve.primes, boolean_eratosthenes(limit))


def test_spf_segments_reach_the_sink_in_order_one_at_a_time():
    limit = 12 * (1 << 19) + 7  # 13 segments of spf
    want = build_sieve(limit).spf
    starts = []

    def sink(start, cells):
        starts.append((start, cells.tobytes()))

    assert isinstance(multlab.sieve._sieve(limit, sink=sink), np.ndarray)
    assert [s for s, _ in starts] == list(range(0, (limit + 1) // 2, 1 << 18))
    assert b"".join(cells for _, cells in starts) == want.tobytes()


@pytest.mark.parametrize("failing", [0, 3, 12], ids=["first", "middle", "last"])
def test_a_failing_segment_stops_the_pass_without_a_hang(failing):
    limit = 12 * (1 << 19) + 7  # 13 segments of spf, the last one partial
    seen = []

    def sink(start, cells):
        if start == failing << 18:
            raise OSError("disk full")
        seen.append(start)

    with pytest.raises(OSError, match="disk full"):
        multlab.sieve._sieve(limit, sink=sink)
    assert seen == [k << 18 for k in range(failing)]


def test_recorded_primes_equal_the_oracle_at_segment_boundaries():
    seg = 1 << 20  # the build's segment length in odd n; 2 seg integers
    for limit in (2, 3, 10, 1000, seg - 1, seg, seg + 1, 3 * seg + 5):
        primes = build_sieve(limit).primes
        assert primes.dtype == np.int64 and not primes.flags.writeable
        assert np.all(np.diff(primes) > 0)
        assert np.array_equal(primes, boolean_eratosthenes(limit)), limit


@pytest.mark.parametrize("call", ["build", "first-spf-read", "cli-miss"])
def test_the_sieve_starts_no_thread(call, tmp_path, monkeypatch):
    # ``threads`` is ignored: the build, the first spf read and the CLI's
    # cache miss each run on the calling thread
    def refuse(self):
        raise AssertionError("a thread was started")

    limit = 3 * (1 << 20)
    if call == "first-spf-read":
        sieve = build_sieve(limit, threads=8)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert sieve.spf.size == (limit + 1) // 2
    elif call == "build":
        monkeypatch.setattr(threading.Thread, "start", refuse)
        sieve = build_sieve(limit, threads=8)
        assert np.array_equal(sieve.primes, boolean_eratosthenes(limit))
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"sieve_limit = {limit}\n")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["sieve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "source=built" in out.getvalue()


def test_build_rejects_bad_limits():
    with pytest.raises(ValueError):
        build_sieve(1)
    with pytest.raises(ValueError):
        build_sieve(0)
    with pytest.raises(ValueError):
        build_sieve(2**32)


def test_sentinels_and_range_checks(sieve_1e4, spf_oracle):
    # one cell per odd n <= 10^4; cell 0 is n = 1, the sentinel 1
    assert sieve_1e4.spf.shape == (5000,)
    assert sieve_1e4.spf[0] == 1
    assert np.array_equal(sieve_1e4.spf, spf_oracle(10**4)[1::2])
    with pytest.raises(ValueError):
        factorize(0, sieve_1e4)
    with pytest.raises(ValueError):
        factorize(10**4 + 1, sieve_1e4)
    with pytest.raises(ValueError):
        FactorSieve(limit=10, spf=np.zeros(11, dtype=np.uint32), primes=np.array([2, 3, 5, 7]))
    with pytest.raises(ValueError):
        FactorSieve(limit=10, spf=np.zeros(6, dtype=np.uint32), primes=np.array([2, 3, 5, 7]))


def test_sieves_compare_by_identity_without_reading_spf():
    a, b = build_sieve(100), build_sieve(100)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert "spf" not in vars(a) and "spf" not in vars(b)
    # a sieve given no table sieves it on first read
    given = FactorSieve(limit=100, spf=None, primes=a.primes)
    assert given.spf.tobytes() == a.spf.tobytes()


def test_build_holds_the_primes_and_the_first_spf_read_the_table():
    limit = 2**22
    table_bytes = 4 * ((limit + 1) // 2)
    build_sieve(limit)  # first-call costs outside the trace
    tracemalloc.start()
    try:
        sieve = build_sieve(limit)
        held, peak = tracemalloc.get_traced_memory()
        assert peak < 0.5 * table_bytes
        spf = sieve.spf
        assert spf.nbytes == table_bytes
        assert tracemalloc.get_traced_memory()[0] - held >= table_bytes
    finally:
        tracemalloc.stop()


def test_the_first_spf_read_sieves_in_place():
    # no scratch segment beside the table, and no second prime table for
    # a sieve that holds one: the table plus one segment's transients
    limit = 2**22
    table_bytes = 4 * ((limit + 1) // 2)
    build_sieve(limit).spf  # first-call costs outside the trace
    sieve = build_sieve(limit)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        spf = sieve.spf
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spf.nbytes == table_bytes
    assert peak - held < table_bytes + (1 << 20)


def _refuse_to_sieve(*args, **kwargs):
    raise AssertionError("spf was sieved")


@pytest.mark.parametrize(
    "spec",
    [
        power_decay_spec(5.0, 0.5, {2: 0.3, 7: -0.5}),
        constant_spec(-0.4, {3: 0.5}),
        liouville_spec({2: 0.5, 999983: -0.5}),
    ],
    ids=["power_decay", "constant", "liouville"],
)
def test_prime_side_work_never_reads_spf(spec, monkeypatch):
    limit = 10**6
    sieve = build_sieve(limit)
    monkeypatch.setattr(multlab.sieve, "_sieve", _refuse_to_sieve)
    for s in (1.5, complex(1.2, 7.0)):
        euler_product_G(spec, s, limit, sieve)
        euler_product_U(spec, s, limit, sieve)
    prime_sum_S(spec, limit, sieve)
    weighted_tail_diagnostic(spec, 1.0, limit, sieve)
    pretentious_distance_sq(spec, liouville_spec(), limit, sieve)
    _prime_power_minima(ExperimentConfig(spec=spec, sieve_limit=limit), sieve)
    assert "spf" not in vars(sieve)
    with pytest.raises(AssertionError, match="spf was sieved"):
        sieve.spf
