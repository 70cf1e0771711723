"""Shared fixtures plus the acceptance-criteria summary printed after runs."""

import functools
import math

import numpy as np
import pytest

from multlab.sieve import build_sieve

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if not name.startswith("test_criterion_"):
        return
    if report.when == "call":
        _ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"
    elif report.failed:  # setup/teardown error counts as a failure
        _ACCEPTANCE_RESULTS[name] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        label = name.removeprefix("test_criterion_")
        terminalreporter.write_line(f"  {label:56s} {_ACCEPTANCE_RESULTS[name]}")


@pytest.fixture(scope="session")
def sieve_1e4():
    return build_sieve(10**4)


@pytest.fixture(scope="session")
def sieve_1e5():
    return build_sieve(10**5)


@pytest.fixture(scope="session")
def sieve_1e6():
    return build_sieve(10**6)


@functools.lru_cache(maxsize=4)
def _full_spf_table(limit):
    """spf(n) for every 0 <= n <= limit, from a plain Boolean sieve.

    Each prime p <= sqrt(limit), ascending, claims the multiples of p that
    no smaller prime claimed; every n left unclaimed is 0, 1 or a prime and
    is its own entry.  Stores every n, even ones included, and shares no
    code with multlab, so it judges the sieve's odd-only layout from
    outside.  Read-only: one table serves every test that asks for it.
    """
    flags = np.ones(math.isqrt(limit) + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(math.isqrt(limit)) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in np.nonzero(flags)[0].tolist():
        multiples = spf[p::p]
        multiples[multiples == 0] = p
    rest = np.nonzero(spf == 0)[0]
    spf[rest] = rest
    spf.flags.writeable = False
    return spf


@pytest.fixture(scope="session")
def spf_oracle():
    """``spf_oracle(limit)``: the full spf(n) table of :func:`_full_spf_table`."""
    return _full_spf_table


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260817)
