import time

import pytest

import psirh
from psirh import prime_engine

TABLE1_INDICES = (10, 10**3, 10**5, 10**7)
DECADES = tuple(10**k for k in range(1, 8))


@pytest.fixture(scope="session")
def timed_full_scan():
    """One pass over the first 10^7 + 1 primes, shared by every heavy test,
    and its wall time in seconds."""
    indices = set(DECADES) | {n + 1 for n in TABLE1_INDICES} | {3, 10**4 + 1}
    t0 = time.perf_counter()
    # p_2263 = 20011 is the first prime above 20000, where the bounds start
    res = psirh.full_scan(10**7 + 1, sorted(indices), bounds_first=2263)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="session")
def full_scan_result(timed_full_scan):
    return timed_full_scan[0]


@pytest.fixture(scope="session")
def full_scan_elapsed(timed_full_scan):
    return timed_full_scan[1]


@pytest.fixture(scope="session")
def stats_by_index(full_scan_result):
    return {s.index: s for s in full_scan_result.stats}


@pytest.fixture
def set_workers(monkeypatch):
    """Set prime_engine.WORKERS, the thread count of the ordered pipeline
    behind the prime stream and the range driver, for one test."""
    def set_(workers):
        monkeypatch.setattr(prime_engine, "WORKERS", workers)
    return set_
