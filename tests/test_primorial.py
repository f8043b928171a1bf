import math
from fractions import Fraction

import mpmath as mp
import pytest

import psirh
from psirh.champions import first_primes
from psirh.criteria import CONSTANTS, BoundCheckResult
from psirh.errors import CacheParseError, DomainError, ResourceLimitError
from psirh.primorial import (f_bound_rhs, f_bound_slope_from_constants,
                             round_half_even)


def mp_ftilde_deviation(n, dps=50):
    """Oracle: compute ftilde(N_{n+1})/ftilde(N_n) - 1 directly at high precision."""
    with mp.workdps(dps):
        primes = first_primes(n + 1)
        theta_n = mp.fsum(mp.log(p) for p in primes[:n])
        theta_n1 = theta_n + mp.log(primes[n])
        ratio = (1 + mp.mpf(1) / primes[n]) * mp.log(theta_n) / mp.log(theta_n1)
        return ratio - 1


class TestStatsStream:
    def test_index3(self):
        s = psirh.full_scan(3, [3]).stats[0]
        assert s.prime == 5
        assert s.f_value == pytest.approx(0.22, abs=0.005)

    def test_index10(self):
        s = psirh.full_scan(10, [10]).stats[0]
        assert s.psi_over_n == pytest.approx(3.8769, abs=1e-4)
        assert s.theta == pytest.approx(22.59039453, abs=5e-8)
        assert s.f_value == pytest.approx(-1.67, abs=0.01)

    def test_consistency_with_exact_arithmetic(self):
        stats = psirh.full_scan(14, range(1, 15)).stats
        for s in stats:
            n_k = math.prod(first_primes(s.index))
            exact = Fraction(psirh.dedekind_psi(n_k), n_k)
            assert abs(s.psi_over_n - exact) / float(exact) < 1e-14
            assert s.theta == pytest.approx(math.log(n_k), rel=1e-14)
            if s.index >= 2:  # f needs log log N > 0 for comparability
                f = psirh.dedekind_f(n_k).value
                g = psirh.robin_g(n_k).value
                assert abs(s.f_value - f) < 1e-10
                assert abs(s.f_value - g) < 1e-10

    def test_monotone_fields(self):
        stats = psirh.full_scan(100, range(1, 101)).stats
        for a, b in zip(stats, stats[1:]):
            assert a.theta < b.theta
            assert a.psi_ratio_log < b.psi_ratio_log

    def test_ceiling(self):
        with pytest.raises(ResourceLimitError):
            psirh.full_scan(10**8, [10])


# float.hex of (theta_hi, theta_lo, psi_ratio_log_hi, psi_ratio_log_lo), as
# computed by the fsum-based chunk sums the exact bucket sums replaced
GOLDEN_BITS = {
    10**5: ("0x1.3d02a6ebac22bp+20", "0x1.ac54a00000000p-34",
            "0x1.5cb164a6d4a08p+1", "-0x1.441e000000000p-58"),
    10**7: ("0x1.5636143850f22p+27", "0x1.13bb1a8000000p-28",
            "0x1.831a32fc16bffp+1", "0x1.98315b2000000p-53"),
}


class TestFullScanGoldenBits:
    def test_checkpoint_bits(self, stats_by_index):
        for index, want in GOLDEN_BITS.items():
            s = stats_by_index[index]
            got = (s.theta_hi, s.theta_lo, s.psi_ratio_log_hi, s.psi_ratio_log_lo)
            assert tuple(v.hex() for v in got) == want, index

    def test_bound_results(self, full_scan_result):
        assert full_scan_result.loglog_bound == BoundCheckResult(
            bound="loglogN_lower", first=2263, last=10000001, passed=True,
            worst_margin=0.0015700270492207125, witness=2347)
        assert full_scan_result.f_bound == BoundCheckResult(
            bound="f_primorial_upper", first=2263, last=10000001, passed=True,
            worst_margin=0.0015466132614552208, witness=2347)


class TestMertensRatio:
    def test_n10(self):
        assert psirh.mertens_ratio(10) == pytest.approx(1.1513, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            psirh.mertens_ratio(1)


class TestFtildeDeviation:
    def test_n10(self):
        assert 1 + psirh.ftilde_ratio_deviation(10) == pytest.approx(0.987, abs=5e-4)

    def test_deviation_form_matches_oracle(self):
        for n in (10, 100, 1000):
            delta = psirh.ftilde_ratio_deviation(n)
            oracle = float(mp_ftilde_deviation(n))
            assert delta == pytest.approx(oracle, rel=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            psirh.ftilde_ratio_deviation(1)


class TestKRatio:
    def test_table_values(self):
        assert psirh.k_ratio(10) == pytest.approx(0.938, abs=1e-3)
        assert psirh.k_ratio(1000) == pytest.approx(1.00378, abs=1e-5)

    def test_crosses_one(self):
        assert psirh.k_ratio(10) < 1 < psirh.k_ratio(1000)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            psirh.k_ratio(6)
        psirh.k_ratio(7)  # p_7 = 17 > e^e


class TestBounds:
    def test_loglog_lower_bound_short_range(self):
        res, _ = psirh.check_primorial_bounds(5000, first=2263)
        assert res.passed
        assert res.worst_margin > 0

    def test_f_bound_short_range(self):
        _, res = psirh.check_primorial_bounds(5000, first=2263)
        assert res.passed

    def test_threshold_guard(self):
        with pytest.raises(DomainError, match="p_100 = 541"):
            psirh.check_primorial_bounds(5000, first=100)

    def test_default_first_is_first_prime_above_20000(self):
        assert psirh.nth_prime(2262) < 20000 <= psirh.nth_prime(2263)
        loglog, f_bound = psirh.check_primorial_bounds(3000)
        assert (loglog.first, loglog.last) == (f_bound.first, f_bound.last) \
            == (2263, 3000)
        assert (loglog, f_bound) == psirh.check_primorial_bounds(3000, 2263)

    def test_empty_range(self):
        with pytest.raises(DomainError, match="empty"):
            psirh.check_primorial_bounds(100)

    def test_rhs_near_minus_6_89(self):
        assert f_bound_rhs(20000) == pytest.approx(-6.89, abs=0.01)

    def test_slope_constant(self):
        assert f_bound_slope_from_constants() == pytest.approx(-0.698, abs=0.001)


class TestTables:
    def test_table2_values(self):
        rows = psirh.table2([3, 10, 100, 1000])
        expect = {3: 0.22, 10: -1.67, 100: -4.24, 1000: -6.23}
        for r in rows:
            assert r["f_value"] == pytest.approx(expect[r["n"]], abs=0.01)

    def test_table2_printed_digits(self):
        rows = psirh.table2([3])
        assert rows[0]["f_value_printed"] == "0.22"

    def test_table1_small_indices_with_cache(self, tmp_path):
        cache = tmp_path / "theta.cache"
        rows = psirh.table1([10, 1000], cache_path=cache)
        assert rows[0]["theta_ratio_printed"] == "0.779"
        assert rows[1]["ftilde_ratio_printed"] == "0.9999980"
        # warm run must not change anything
        assert psirh.table1([10, 1000], cache_path=cache) == rows

    def test_table1_rebuilds_older_cache_version(self, tmp_path):
        cache = tmp_path / "theta.cache"
        cache.write_text("psicache v1 stride=1\n"
                         "10 29 0x1.69724188e9583p+4 0x0.0p+0\n")
        assert psirh.table1([10, 1000], cache_path=cache) == \
            psirh.table1([10, 1000])
        assert cache.read_text().startswith("psicache v3\n")
        assert {p.index for p in psirh.cache_load(cache).points} == \
            {10, 11, 1000, 1001}

    def test_table1_corrupt_cache_still_raises(self, tmp_path):
        cache = tmp_path / "theta.cache"
        cache.write_text("psicache v3\n"
                         "10 29 0x1.69724188e9583p+4 0x0.0p+0\n")
        with pytest.raises(CacheParseError):
            psirh.table1([10, 1000], cache_path=cache)

    def test_table1_index_guard(self):
        with pytest.raises(DomainError):
            psirh.table1([3])

    def test_round_half_even(self):
        assert round_half_even(0.98652, 3) == "0.987"
        assert round_half_even(-1.675, 2) == "-1.68"
        assert round_half_even(0.125, 2) == "0.12"  # ties to even
