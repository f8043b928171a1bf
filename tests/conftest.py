import time

import pytest

import psirh
from psirh import arith, champions, criteria, prime_engine

TABLE1_INDICES = (10, 10**3, 10**5, 10**7)
DECADES = tuple(10**k for k in range(1, 8))


@pytest.fixture(scope="session")
def timed_full_scan():
    """One pass over the first 10^7 + 1 primes, shared by every heavy test:
    its PrimorialStats by index, and its wall time in seconds."""
    indices = set(DECADES) | {n + 1 for n in TABLE1_INDICES} | {3, 10**4 + 1}
    t0 = time.perf_counter()
    res = psirh.full_scan(10**7 + 1, sorted(indices))
    return res, time.perf_counter() - t0


@pytest.fixture(scope="session")
def bounds_result():
    """Both explicit bounds over the indices [2263, 10^7 + 1], from their
    own pass; p_2263 = 20011 is the first prime above 20000."""
    return psirh.check_primorial_bounds(10**7 + 1, 2263)


@pytest.fixture(scope="session")
def full_scan_result(timed_full_scan):
    return timed_full_scan[0]


@pytest.fixture(scope="session")
def full_scan_elapsed(timed_full_scan):
    return timed_full_scan[1]


@pytest.fixture
def set_workers(monkeypatch):
    """Set prime_engine.WORKERS, the thread count of the ordered pipeline
    behind the prime stream, for one test."""
    def set_(workers):
        monkeypatch.setattr(prime_engine, "WORKERS", workers)
    return set_


@pytest.fixture
def sieved(monkeypatch):
    """The (lo, hi) of each call a scan makes to arith's stdlib sieve, as
    criteria looks it up, filled in as the calls run."""
    calls = []
    fn = criteria.multiplicative_ints
    monkeypatch.setattr(criteria, "multiplicative_ints", lambda lo, hi, s:
                        calls.append((lo, hi)) or fn(lo, hi, s))
    return calls


@pytest.fixture
def cold_primes(monkeypatch):
    """Start prime_engine's shared prime list empty, and arith.factorize's
    cache too, as a fresh process does, for one test; the list it grows,
    the lru prefixes of it and the factorizations it caches go after."""
    monkeypatch.setattr(prime_engine, "_prime_list", (None, 0))
    caches = (prime_engine._simple_sieve, arith.factorize)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture(scope="session")
def superabundant_to_ceiling():
    """The superabundant numbers up to SUPERABUNDANT_CEILING, built once
    per session (about 2.5 s and 165 MB)."""
    return champions.generate_superabundant(champions.SUPERABUNDANT_CEILING)


@pytest.fixture
def shared_superabundant(monkeypatch, superabundant_to_ceiling):
    """generate_superabundant served from the one build for every limit
    in [1, SUPERABUNDANT_CEILING], for one test: the strict records up to
    a limit are the build's records up to it."""
    build = champions.generate_superabundant
    full = superabundant_to_ceiling

    def served(limit):
        if not 1 <= limit <= full.limit:
            return build(limit)
        return champions.RecordScanResult(
            records=tuple(r for r in full.records if r[0] <= limit),
            limit=limit)
    monkeypatch.setattr(champions, "generate_superabundant", served)
