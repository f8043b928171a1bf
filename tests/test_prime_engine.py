import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psirh
from psirh.errors import CacheParseError, CacheVersionError, DomainError, ResourceLimitError
from psirh.prime_engine import (PRIME_INDEX_CEILING, ThetaCache, ThetaPoint,
                                chunk_sum_dd, dd_add, iter_prime_chunks)
from psirh.primorial import TABLE1_DEFAULT_INDICES

# theta(p_10000), 40 digits, summed independently at 60-digit precision
THETA_1E4 = "104392.2020158497838342601966716164077742"
# theta(29), same oracle
THETA_10 = "22.59039453011565621888260736851360534328"


def trial_division_primes(lo, hi):
    out = []
    for n in range(max(lo, 2), hi):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def stream_primes(lo, hi):
    """The primes in [lo, hi) taken from the one prime stream."""
    primes = [p for chunk in iter_prime_chunks(hi) for p in chunk.tolist()]
    return [p for p in primes if p >= lo]


class TestSieveRange:
    def test_first_primes(self):
        assert stream_primes(0, 30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_composite_window(self):
        assert stream_primes(30, 31) == []

    def test_million_window_matches_trial_division(self):
        got = stream_primes(10**6, 10**6 + 100)
        assert got == trial_division_primes(10**6, 10**6 + 100)

    def test_empty_range_yields_nothing(self):
        for limit in (0, 1, 2):
            assert list(iter_prime_chunks(limit)) == []

    def test_ceiling_rejected(self):
        with pytest.raises(ResourceLimitError):
            next(iter_prime_chunks(10**12))

    @settings(max_examples=30, deadline=None)
    @given(lo=st.integers(0, 10**6), span=st.integers(1, 300))
    def test_matches_naive_oracle(self, lo, span):
        got = stream_primes(lo, lo + span)
        assert got == trial_division_primes(lo, lo + span)

    def test_segment_boundary_windows(self):
        # windows straddling the 2**21 segment boundary
        for lo in (2**21 - 50, 2**21, 3 * 2**21 - 17):
            got = stream_primes(lo, lo + 100)
            assert got == trial_division_primes(lo, lo + 100)


class TestNthPrime:
    def test_small(self):
        assert psirh.nth_prime(1) == 2
        assert psirh.nth_prime(10) == 29

    def test_100000th(self):
        assert psirh.nth_prime(100000) == 1299709

    def test_errors(self):
        with pytest.raises(DomainError):
            psirh.nth_prime(0)
        with pytest.raises(ResourceLimitError):
            psirh.nth_prime(10**8)

    def test_consistent_with_sieve_stream(self):
        primes = np.concatenate(list(iter_prime_chunks(1300000)))
        for n in (1, 2, 100, 5000, 100000):
            assert psirh.nth_prime(n) == primes[n - 1]


class TestThetaStream:
    """theta(p_n) from the ordered double-double pass (stats_stream)."""

    def test_theta_at_29(self):
        pts = psirh.stats_stream(10, [10])
        assert pts[0].index == 10 and pts[0].prime == 29
        assert pts[0].theta == pytest.approx(22.59039453, abs=5e-8)

    def test_emits_default_report_indices(self):
        pts = psirh.stats_stream(1500, TABLE1_DEFAULT_INDICES)
        assert [p.index for p in pts] == [10, 1000]

    def test_extra_indices(self):
        pts = psirh.stats_stream(100, [42, 7, 1000, 10])
        assert [p.index for p in pts] == [7, 10, 42]

    def test_monotone(self):
        pts = psirh.stats_stream(10**4, range(100, 10**4 + 1, 100))
        thetas = [p.theta for p in pts]
        assert all(a < b for a, b in zip(thetas, thetas[1:]))
        assert all(p.theta < p.prime for p in pts)

    def test_against_high_precision_oracle(self):
        pts = {p.index: p for p in psirh.stats_stream(10**4, [10, 10**4])}
        with mp.workdps(50):
            for index, frozen in ((10, THETA_10), (10**4, THETA_1E4)):
                exact = mp.mpf(frozen)
                got = mp.mpf(pts[index].theta_hi) + mp.mpf(pts[index].theta_lo)
                assert abs(got - exact) / exact < 1e-15

    def test_bad_n_max(self):
        with pytest.raises(DomainError):
            psirh.stats_stream(0, [1])

    def test_ceiling(self):
        with pytest.raises(ResourceLimitError):
            psirh.stats_stream(PRIME_INDEX_CEILING + 1, [10])


class TestDoubleDouble:
    def test_chunk_sum_recovers_residual(self):
        vals = np.array([1.0, 1e-17, 1e-17, 1e-17])
        hi, lo = chunk_sum_dd(vals)
        assert hi == 1.0
        assert lo == pytest.approx(3e-17, rel=1e-10)

    def test_dd_add_exact_for_representable(self):
        hi, lo = dd_add(1.0, 0.0, 2.0**-60, 0.0)
        assert hi == 1.0 and lo == 2.0**-60


class TestThetaCache:
    def _points(self):
        return [ThetaPoint(10, 29, 22.59039453011, 1.23e-15),
                ThetaPoint(20, 71, 56.5, -4.5e-16),
                ThetaPoint(30, 113, 103.0, 0.0)]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "theta.cache"
        cache = ThetaCache(checkpoint_stride=10, points=self._points())
        psirh.cache_save(cache, path)
        loaded = psirh.cache_load(path)
        assert loaded.checkpoint_stride == 10
        assert loaded.points == self._points()

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.cache"
        path.write_text("psicache v99 stride=1\n")
        with pytest.raises(CacheVersionError):
            psirh.cache_load(path)

    def test_truncated_row_names_line(self, tmp_path):
        path = tmp_path / "trunc.cache"
        path.write_text("psicache v1 stride=1\n10 29 0x1.6p+4\n")
        with pytest.raises(CacheParseError) as exc:
            psirh.cache_load(path)
        assert exc.value.line_number == 2

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.cache"
        path.write_text("not a cache\n")
        with pytest.raises(CacheParseError):
            psirh.cache_load(path)
