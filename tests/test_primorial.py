import math
import random
import struct
import threading
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import psirh
from psirh import primorial
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

    def test_bound_results(self, bounds_result):
        assert bounds_result == (
            BoundCheckResult(
                bound="loglogN_lower", first=2263, last=10000001, passed=True,
                worst_margin=0.0015700270492207125, witness=2347),
            BoundCheckResult(
                bound="f_primorial_upper", first=2263, last=10000001,
                passed=True, worst_margin=0.0015466132614552208, witness=2347))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_same_bits_at_worker_count(self, set_workers, bounds_result,
                                       workers):
        set_workers(workers)
        res = psirh.full_scan(10**7 + 1, sorted(GOLDEN_BITS))
        for s in res.stats:
            got = (s.theta_hi, s.theta_lo, s.psi_ratio_log_hi, s.psi_ratio_log_lo)
            assert tuple(v.hex() for v in got) == GOLDEN_BITS[s.index]
        assert psirh.check_primorial_bounds(10**7 + 1, 2263) == bounds_result


class TestThetaChecks:
    @staticmethod
    def scan_chunks(monkeypatch, *chunks):
        monkeypatch.setattr(primorial, "iter_prime_chunks", lambda limit: (
            np.array(c, dtype=np.int64) for c in chunks))
        return psirh.full_scan(sum(map(len, chunks)))

    def test_monotone_across_a_join(self, monkeypatch):
        res = self.scan_chunks(monkeypatch, [2, 3, 5], [7, 11])
        assert res.theta_monotonic and res.theta_below_prime

    @pytest.mark.parametrize("first, second", [([2, 3], [1, 5]),
                                               ([2, 3, 5], [1, 7])])
    def test_violation_at_a_join(self, monkeypatch, first, second):
        # log 1 = 0: theta stalls only from one chunk's last value to the
        # next chunk's first, and grows inside each chunk.  The float
        # cumsum of log 2, log 3, log 5 ends one ulp below the exact sum
        # the next chunk starts from, so the join is also checked against
        # that start
        res = self.scan_chunks(monkeypatch, first, second)
        assert not res.theta_monotonic

    def test_violation_inside_a_chunk(self, monkeypatch):
        res = self.scan_chunks(monkeypatch, [2, 3], [5, 1, 7])
        assert not res.theta_monotonic


def stream_values(n):
    """theta(p_n) as a ThetaPoint and p_{n+1}, from one prime pass."""
    point, succ = psirh.full_scan(n + 1, [n, n + 1]).stats
    return point, succ.prime


def ftilde_deviation(n):
    return psirh.ftilde_ratio_deviation(*stream_values(n))


def k_ratio(n):
    point, p_next = stream_values(n)
    return psirh.k_ratio(point.prime, p_next)


class TestMertensRatio:
    def test_n10(self):
        s = psirh.full_scan(10, [10]).stats[0]
        assert s.mertens_ratio == pytest.approx(1.1513, abs=1e-4)


class TestFtildeDeviation:
    def test_n10(self):
        assert 1 + ftilde_deviation(10) == pytest.approx(0.987, abs=5e-4)

    def test_deviation_form_matches_oracle(self):
        for n in (10, 100, 1000):
            delta = ftilde_deviation(n)
            oracle = float(mp_ftilde_deviation(n))
            assert delta == pytest.approx(oracle, rel=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            ftilde_deviation(1)


class TestKRatio:
    def test_table_values(self):
        assert k_ratio(10) == pytest.approx(0.938, abs=1e-3)
        assert k_ratio(1000) == pytest.approx(1.00378, abs=1e-5)

    def test_crosses_one(self):
        assert k_ratio(10) < 1 < k_ratio(1000)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            k_ratio(6)
        k_ratio(7)  # p_7 = 17 > e^e

    def test_guard_is_on_the_prime(self):
        # p_6 = 13 < e^e < p_7 = 17
        with pytest.raises(DomainError, match="e\\^e"):
            psirh.k_ratio(13, 17)
        assert psirh.k_ratio(17, 19) == k_ratio(7)


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

    def test_margins_past_the_first_chunk(self):
        # the worst margins to 10^7 fall in the first chunk, where theta
        # and R start at 0; this range lies in the second, which starts
        # from the first chunk's sums
        first, last = 200000, 200500
        loglog, f_bound = psirh.check_primorial_bounds(last, first)
        stats = psirh.full_scan(last, range(first, last + 1)).stats
        m1 = min((s.loglogN - math.log(s.prime) + 0.123 / math.log(s.prime),
                  s.index) for s in stats)
        m2 = min((f_bound_rhs(s.prime) - s.f_value, s.index) for s in stats)
        for res, (margin, witness) in ((loglog, m1), (f_bound, m2)):
            assert (res.first, res.last, res.witness) == (first, last, witness)
            assert res.worst_margin == pytest.approx(margin, abs=1e-12)

    def test_threshold_guard_leaves_no_worker(self, set_workers):
        # the guard fires on the pass's first chunk, while the next
        # segments are being sieved ahead
        set_workers(2)
        before = threading.active_count()
        with pytest.raises(DomainError, match="p_5 = 11"):
            psirh.check_primorial_bounds(10**6, first=5)
        assert threading.active_count() == before

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

    def test_round_half_even_matches_decimal(self):
        """The integer rounding equals the Decimal quantize it replaced
        wherever that prints without an exponent: on ties, on signed
        zeros, on reprs with an exponent and on random doubles, at every
        decimal count the tables print."""
        rng = random.Random(16)
        xs = [-0.0, 0.0, 2.675, -2.5, 0.5, 1.5, 9.9995, 1e-05, -1e-05, 1.25e11,
              0.99999999999975, 123456789.125, 5e-324]
        for _ in range(3000):
            xs.append(rng.uniform(-20.0, 20.0))
            xs.append(round(rng.uniform(-10, 10), rng.randrange(1, 8))
                      + 5 * 10.0 ** -rng.randrange(2, 16))
            bits = struct.unpack("d", struct.pack("Q", rng.getrandbits(64)))[0]
            if math.isfinite(bits) and abs(bits) < 1e12:
                xs.append(bits)
        compared = 0
        for x in xs:
            for decimals in (2, 3, 5, 6, 7, 11, 14):
                want = str(Decimal(repr(x)).quantize(
                    Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_EVEN))
                if "E" not in want:
                    compared += 1
                    assert round_half_even(x, decimals) == want, (x, decimals)
        assert compared > 40000
