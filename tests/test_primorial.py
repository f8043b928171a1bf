import math
import os
import random
import struct
import subprocess
import sys
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import psirh
from oracles import bounds_reference
from psirh import prime_engine, primorial
from psirh.champions import first_primes
from psirh.criteria import CONSTANTS, Decision
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
        s = psirh.full_scan(3, [3])[3]
        assert s.prime == 5
        assert s.f_value == pytest.approx(0.22, abs=0.005)

    def test_index10(self):
        s = psirh.full_scan(10, [10])[10]
        assert s.psi_over_n == pytest.approx(3.8769, abs=1e-4)
        assert s.theta == pytest.approx(22.59039453, abs=5e-8)
        assert s.f_value == pytest.approx(-1.67, abs=0.01)

    def test_consistency_with_exact_arithmetic(self):
        for s in psirh.full_scan(14, range(1, 15)).values():
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
        stats = list(psirh.full_scan(100, range(1, 101)).values())
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
    def test_checkpoint_bits(self, full_scan_result):
        for index, want in GOLDEN_BITS.items():
            s = full_scan_result[index]
            got = (s.theta_hi, s.theta_lo, s.psi_ratio_log_hi, s.psi_ratio_log_lo)
            assert tuple(v.hex() for v in got) == want, index

    def test_bound_results(self, bounds_result):
        assert bounds_result == (
            Decision(
                claim="loglogN_lower", first=2263, last=10000001, passed=True,
                worst_margin=0.0015700270492207125, witness=2347),
            Decision(
                claim="f_primorial_upper", first=2263, last=10000001,
                passed=True, worst_margin=0.0015466132614552208, witness=2347))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_same_bits_at_worker_count(self, set_workers, bounds_result,
                                       workers):
        set_workers(workers)
        stats = psirh.full_scan(10**7 + 1, sorted(GOLDEN_BITS))
        assert list(stats) == sorted(GOLDEN_BITS)
        for s in stats.values():
            got = (s.theta_hi, s.theta_lo, s.psi_ratio_log_hi, s.psi_ratio_log_lo)
            assert tuple(v.hex() for v in got) == GOLDEN_BITS[s.index]
        assert psirh.check_primorial_bounds(10**7 + 1, 2263) == bounds_result


class TestThetaChecks:
    @staticmethod
    def scan_chunks(monkeypatch, *chunks):
        monkeypatch.setattr(primorial, "iter_prime_chunks", lambda limit: (
            np.array(c, dtype=np.int64) for c in chunks))
        n = sum(map(len, chunks))
        return psirh.full_scan(n, range(1, n + 1))

    def test_monotone_across_a_join(self, monkeypatch):
        stats = self.scan_chunks(monkeypatch, [2, 3, 5], [7, 11])
        assert [s.prime for s in stats.values()] == [2, 3, 5, 7, 11]

    @pytest.mark.parametrize("first, second", [([2, 3], [1, 5]),
                                               ([2, 3, 5], [1, 7])])
    def test_violation_at_a_join(self, monkeypatch, first, second):
        # log 1 = 0: theta stalls only from one chunk's last value to the
        # next chunk's first, and grows inside each chunk.  The float
        # cumsum of log 2, log 3, log 5 ends one ulp below the exact sum
        # the next chunk starts from, so the join is also checked against
        # that start
        n = len(first)
        with pytest.raises(RuntimeError,
                           match=rf"does not rise for n in "
                                 rf"\[{n + 1}, {n + len(second)}\]"):
            self.scan_chunks(monkeypatch, first, second)

    def test_violation_inside_a_chunk(self, monkeypatch):
        with pytest.raises(RuntimeError,
                           match=r"does not rise for n in \[3, 5\]"):
            self.scan_chunks(monkeypatch, [2, 3], [5, 1, 7])

    def test_theta_at_or_above_the_prime(self, monkeypatch):
        # theta rises at every step but passes p = 3 at n = 3
        with pytest.raises(RuntimeError, match=r">= p_n for n in \[2, 3\]"):
            self.scan_chunks(monkeypatch, [2], [100, 3])


def exact_pair(total):
    """The correctly rounded (hi, lo) pair of a Fraction; a zero is +0.0."""
    hi = float(total)
    return hi + 0.0, float(total - Fraction(hi)) + 0.0


class TestExactLanes:
    """The theta and R lanes of the pass are exact: at every cut, (hi, lo)
    is the correctly rounded sum of the float logs the pass made, whatever
    the chunking and the cuts."""

    @staticmethod
    def run(monkeypatch, values, sizes, cuts):
        """The pass over values in chunks of the given sizes: the float log p
        and log1p(1/p) it made, and its PrimorialStats at the cuts."""
        chunks = np.split(np.array(values, dtype=np.int64), np.cumsum(sizes)[:-1])
        monkeypatch.setattr(primorial, "iter_prime_chunks",
                            lambda limit: iter(chunks))
        logs, rls, stats = [], [], []
        for _, _, lg, rl, _, _, _, at_cuts in primorial._pass(len(values), cuts):
            logs += lg.tolist()
            rls += rl.tolist()
            stats += at_cuts
        return logs, rls, stats

    @pytest.mark.parametrize("seed", range(40))
    def test_correctly_rounded_at_every_cut(self, monkeypatch, seed):
        rnd = random.Random(seed)
        n = rnd.randint(50, 300)
        # values up to 2**62: the R lane runs from log 1.5 down to ulps of
        # 2**-114, wider than the 106 bits a (hi, lo) pair holds
        values = [rnd.randint(2, 2 ** rnd.randint(2, 62)) for _ in range(n)]
        common = rnd.sample(range(1, n + 1), 8)
        bits = []
        for _ in range(2):  # the same values, regrouped and cut elsewhere
            edges = sorted(rnd.sample(range(1, n), rnd.randint(0, 5)))
            cuts = sorted({*common, *rnd.sample(range(1, n + 1), 10)})
            logs, rls, stats = self.run(monkeypatch, values,
                                        np.diff([0, *edges, n]), cuts)
            assert [s.index for s in stats] == cuts
            for s in stats:
                theta = sum(map(Fraction, logs[:s.index]), Fraction(0))
                r = sum(map(Fraction, rls[:s.index]), Fraction(0))
                assert s.prime == values[s.index - 1]
                assert same_bits((s.theta_hi, s.theta_lo), exact_pair(theta))
                assert same_bits((s.psi_ratio_log_hi, s.psi_ratio_log_lo),
                                 exact_pair(r))
            bits.append({s.index: tuple(v.hex() for v in (
                s.theta_hi, s.theta_lo, s.psi_ratio_log_hi, s.psi_ratio_log_lo))
                for s in stats if s.index in common})
        assert bits[0] == bits[1]


def stream_chunks(monkeypatch, values, sizes):
    """Serve the pass the given values, in chunks of the given sizes."""
    chunks = np.split(np.asarray(values, dtype=np.int64), np.cumsum(sizes)[:-1])
    monkeypatch.setattr(primorial, "iter_prime_chunks",
                        lambda limit: iter(chunks))


def hexes(values):
    return [float(v).hex() for v in values]


class TestBlocks:
    """The pass works a block of at most _BLOCK primes at a time.  The
    float prefix sums are one cumsum per chunk, carried across its blocks,
    so the rows, checkpoints and bound results have the same bits at any
    _BLOCK; a fault names the block it is in."""

    SIZES = (700, 1, 900, 1399)  # 3,000 primes, past p_2347, in four chunks

    @staticmethod
    def outputs(last, cuts):
        """The theta and R prefix sums of the pass to last, read by a
        consumer that then overwrites every row; the checkpoint bits at
        the cuts; and both bound results over [2263, last]."""
        sums = ([], [])
        for _, *rows, _, theta_cum, r_cum, _ in primorial._pass(last):
            sums[0].extend(hexes(theta_cum))
            sums[1].extend(hexes(r_cum))
            for row in (*rows, theta_cum, r_cum):
                row[:] = math.nan
        stats = psirh.full_scan(last, cuts).values()
        points = [hexes((s.theta_hi, s.theta_lo, s.psi_ratio_log_hi,
                         s.psi_ratio_log_lo)) for s in stats]
        return sums, points, psirh.check_primorial_bounds(last, 2263)

    @staticmethod
    def chunk_sums(chunks):
        """The prefix sums as whole chunks give them: the float cumsum of
        the chunk's lane, plus the correctly rounded sum before it."""
        sums, before = ([], []), ([], [])
        for chunk in chunks:
            pf = np.asarray(chunk, dtype=float)
            for lane, out, prev in zip((np.log(pf), np.log1p(1.0 / pf)),
                                       sums, before):
                out.extend(hexes(np.cumsum(lane) + math.fsum(prev)))
                prev.extend(lane.tolist())
        return sums

    @pytest.mark.parametrize("block", [1, 7])
    def test_same_bits_at_any_block(self, monkeypatch, block):
        values = np.array(first_primes(3000))
        stream_chunks(monkeypatch, values, self.SIZES)
        want = self.outputs(3000, range(1, 3001))
        assert want[0] == self.chunk_sums(
            np.split(values, np.cumsum(self.SIZES)[:-1]))
        assert want[2][0].witness == 2347
        monkeypatch.setattr(primorial, "_BLOCK", block)
        assert self.outputs(3000, range(1, 3001)) == want

    def test_same_bits_across_the_first_segment_join(self, monkeypatch):
        # p_155611 is the last prime of the first 2^21-value segment
        cuts = sorted({*range(1, 300001, 4093), 155611, 155612, 300000})
        want = self.outputs(300000, cuts)
        assert want[0] == self.chunk_sums(prime_engine.iter_prime_chunks(300000))
        monkeypatch.setattr(primorial, "_BLOCK", 4096)
        assert self.outputs(300000, cuts) == want

    @pytest.mark.parametrize("block", [1, 7, None])
    @pytest.mark.parametrize("at, value, fault", [
        (4, 1, "does not rise"), (20, 1, "does not rise"),
        (16, 1, "does not rise"), (33, 3, ">= p_n")])
    def test_a_fault_names_its_block(self, monkeypatch, block, at, value,
                                     fault):
        # log 1 = 0 stalls theta at n = at; 3 after the 32nd prime puts
        # theta(p_33) far above 3
        values = np.array(first_primes(40))
        values[at - 1] = value
        sizes = (15, 25)  # chunks [1, 15] and [16, 40]
        block = block or primorial._BLOCK
        monkeypatch.setattr(primorial, "_BLOCK", block)
        stream_chunks(monkeypatch, values, sizes)
        chunk_first = 1 if at <= 15 else 16
        lo = chunk_first + (at - chunk_first) // block * block
        hi = min(lo + block - 1, 15 if at <= 15 else 40)
        with pytest.raises(RuntimeError,
                           match=rf"{fault} for n in \[{lo}, {hi}\]"):
            psirh.full_scan(40)

    def test_one_workspace(self, monkeypatch):
        stream_chunks(monkeypatch, np.array(first_primes(200000)), [200000])
        blocks = []
        for _, *rows, _, theta_cum, r_cum, _ in primorial._pass(200000):
            rows += [theta_cum, r_cum]
            assert max(map(len, rows)) <= primorial._BLOCK
            blocks.append(rows)
        assert len(blocks) == -(-200000 // primorial._BLOCK)
        for rows in blocks:
            assert all(map(np.shares_memory, rows, blocks[0]))

    def test_a_short_pass_holds_its_length(self):
        (_, *rows, _, theta_cum, r_cum, _), = primorial._pass(2263)
        rows += [theta_cum, r_cum]
        assert [len(row) for row in rows] == [2263] * 5
        # five rows, and one column for the carries
        assert rows[0].base.shape == (5, 2264)


def same_bits(got, want):
    return [v.hex() for v in got] == [v.hex() for v in want]


def stream_values(n):
    """theta(p_n) as a ThetaPoint and p_{n+1}, from one prime pass."""
    point, succ = psirh.full_scan(n + 1, [n, n + 1]).values()
    return point, succ.prime


def ftilde_deviation(n):
    return psirh.ftilde_ratio_deviation(*stream_values(n))


def k_ratio(n):
    point, p_next = stream_values(n)
    return psirh.k_ratio(point.prime, p_next)


class TestMertensRatio:
    def test_n10(self):
        s = psirh.full_scan(10, [10])[10]
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
        stats = psirh.full_scan(last, range(first, last + 1)).values()
        m1 = min((s.loglogN - math.log(s.prime) + 0.123 / math.log(s.prime),
                  s.index) for s in stats)
        m2 = min((f_bound_rhs(s.prime) - s.f_value, s.index) for s in stats)
        for res, (margin, witness) in ((loglog, m1), (f_bound, m2)):
            assert (res.first, res.last, res.witness) == (first, last, witness)
            assert res.worst_margin == pytest.approx(margin, abs=1e-12)

    def test_threshold_guard_before_the_pass(self, monkeypatch):
        def no_pass(*args):
            raise AssertionError("the pass started")
        monkeypatch.setattr(primorial, "_pass", no_pass)
        for first, p in ((100, 541), (2262, 19997)):
            with pytest.raises(DomainError) as info:
                psirh.check_primorial_bounds(10**7, first=first)
            assert str(info.value).endswith(f"p_{first} = {p}")
        # p_2263 = 20011, the first index the bounds are claimed for
        with pytest.raises(AssertionError, match="the pass started"):
            psirh.check_primorial_bounds(10**7, first=2263)

    def test_threshold_guard_leaves_no_worker(self):
        # through the command, in a fresh process with two workers: the
        # guard fails before the pass, so no segment is sieved ahead, no
        # thread starts and none is alive at exit
        code = (
            "import threading\n"
            "from psirh import cli, prime_engine\n"
            "prime_engine.WORKERS = 2\n"
            "started = []\n"
            "start = threading.Thread.start\n"
            "threading.Thread.start = lambda t: started.append(t) or start(t)\n"
            "code = cli.main(['bounds', '--lo', '5', '--hi', '1000000',\n"
            "                 '--sigma-hi', '100'])\n"
            "print(code, len(started), threading.active_count())\n")
        env = dict(os.environ, PYTHONPATH=str(Path(psirh.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.stdout, proc.stderr) == (
            "2 0 1\n", "psirh: domain error: bound is only claimed for "
            "p_n >= 20000; p_5 = 11\n")

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


def decision_bits(decisions):
    return [(d.claim, d.first, d.last, d.passed, d.cases_checked,
             d.worst_margin.hex(), d.witness, d.failures) for d in decisions]


class TestSkippedBlocks:
    """check_primorial_bounds computes the margins only on blocks whose run
    bounds do not clear the least margins found; its decisions equal, to
    the bit, those of computing every margin (bounds_reference)."""

    @pytest.mark.parametrize("first, last", [(2263, 2263), (2263, 10**5),
                                             (5000, 300000)])
    def test_matches_every_index(self, first, last):
        assert decision_bits(psirh.check_primorial_bounds(last, first)) == \
            decision_bits(bounds_reference(last, first))

    @pytest.mark.parametrize("slope, offset, witnesses", [
        (-0.6985, 0.123, (2931549, 2954369)),
        (-0.699, 0.0, (108703, 2954369))])
    def test_least_margins_planted_late(self, monkeypatch, slope, offset,
                                        witnesses):
        monkeypatch.setattr(primorial, "F_BOUND_SLOPE", slope)
        monkeypatch.setattr(primorial, "LOGLOG_BOUND_OFFSET", offset)
        want = bounds_reference(3 * 10**6, 100000)
        assert tuple(d.witness for d in want) == witnesses
        assert decision_bits(psirh.check_primorial_bounds(3 * 10**6, 100000)) \
            == decision_bits(want)

    def test_a_dip_inside_a_run(self, monkeypatch):
        # three blocks of monotone rows whose margins rise slowly with the
        # index, except where log p jumps by 0.004 at offset 300 of the
        # second block while loglog N and R wait 20 indices: both least
        # margins are at the wait's last index, inside a run
        size = primorial._BLOCK
        i = np.arange(3 * size, dtype=float)
        logp = 10.0 + 1e-7 * i
        dip = size + 300
        logp[dip:] += 0.004
        llgn = (logp - primorial.LOGLOG_BOUND_OFFSET / logp
                + 0.01 + 1e-3 * i / size)
        llgn[dip:dip + 20] = llgn[dip - 1]
        exp_r = (primorial.F_BOUND_SLOPE * logp + primorial.F_BOUND_OFFSET / logp
                 + CONSTANTS.e_gamma * llgn - 0.02 - 1e-3 * i / size)
        exp_r[dip:dip + 20] = exp_r[dip - 1]
        theta_cum, r_cum = np.exp(llgn), np.log(exp_r)
        for row in (logp, theta_cum, r_cum):
            assert (np.diff(row) >= 0).all()

        def rows(last):
            for lo in range(0, last, size):
                block = slice(lo, lo + size)
                yield (lo + 1, np.exp(logp[block]), logp[block].copy(), None,
                       None, theta_cum[block].copy(), r_cum[block].copy(), [])

        monkeypatch.setattr(primorial, "_pass", rows)
        want = bounds_reference(3 * size, 2263)
        assert tuple(d.witness for d in want) == (dip + 20, dip + 20)
        assert decision_bits(psirh.check_primorial_bounds(3 * size, 2263)) \
            == decision_bits(want)

    def test_blocks_computed(self, monkeypatch):
        # both least margins are at index 2347, in the first block: of the
        # 46 blocks to 3 * 10^6 the margins are computed on 4
        calls = []
        lower = primorial._lower
        monkeypatch.setattr(primorial, "_lower", lambda worst, m, first:
                            calls.append(first) or lower(worst, m, first))
        loglog, f_bound = psirh.check_primorial_bounds(3 * 10**6)
        assert (loglog.witness, f_bound.witness) == (2347, 2347)
        assert len(calls) == 2 * 4

    def test_log_p_rises(self):
        # the premises of the skip: np.log of consecutive primes strictly
        # increases, and the theta and R prefix sums never fall in a block
        last = -math.inf
        for chunk in prime_engine.iter_prime_chunks(10**6):
            logs = np.log(chunk.astype(float))
            assert logs[0] > last and (logs[1:] > logs[:-1]).all()
            last = logs[-1]

    def test_prefix_sums_never_fall_in_a_block(self):
        for _, _, _, _, _, theta_cum, r_cum, _ in primorial._pass(10**6):
            for row in (theta_cum, r_cum):
                assert (row[1:] >= row[:-1]).all()


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
        assert set(psirh.cache_load(cache)) == \
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
