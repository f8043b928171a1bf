import threading

import mpmath as mp
import numpy as np
import pytest

import psirh
from psirh import criteria
from psirh.arith import multiplicative_range
from psirh.criteria import (CONSTANTS, CriterionKind, check_sigma_upper_bound,
                            mp_e_gamma, mp_zeta2, scan_exceptions)
from psirh.errors import DomainError, ResourceLimitError

SET_A = (2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 20, 24, 30, 36, 48, 60, 72, 84,
         120, 180, 240, 360, 720, 840, 2520, 5040)
SET_B = (2, 3, 4, 5, 6, 8, 10, 12, 18, 30)


class TestConstants:
    def test_against_high_precision(self):
        with mp.workdps(30):
            assert CONSTANTS.gamma == float(mp.euler)
            assert CONSTANTS.e_gamma == float(mp_e_gamma())
            assert CONSTANTS.zeta2 == float(mp_zeta2())
            assert CONSTANTS.e_gamma_over_zeta2 == float(mp_e_gamma() / mp_zeta2())


class TestRobinG:
    def test_at_5040(self):
        cv = psirh.robin_g(5040)
        assert cv.value == pytest.approx(0.0213, abs=2e-4)
        assert cv.value > 0

    def test_past_5040(self):
        assert psirh.robin_g(10080).value == pytest.approx(-0.0561, abs=2e-4)

    def test_n2_sign_forced(self):
        cv = psirh.robin_g(2)
        assert cv.threshold < 0
        assert cv.value > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            psirh.robin_g(1)

    def test_value_is_ratio_minus_threshold(self):
        cv = psirh.robin_g(360)
        assert cv.value == pytest.approx(cv.ratio - cv.threshold, abs=1e-12)


class TestDedekindF:
    def test_at_30(self):
        assert psirh.dedekind_f(30).value == pytest.approx(0.2197, abs=2e-4)

    def test_at_31(self):
        assert psirh.dedekind_f(31).value == pytest.approx(-1.1651, abs=2e-4)

    def test_equals_g_on_squarefree(self):
        for n in (2, 6, 30, 210, 2310, 4199):
            f = psirh.dedekind_f(n)
            g = psirh.robin_g(n)
            assert f.value == g.value

    def test_f_below_g_generally(self):
        for n in range(2, 2000):
            assert psirh.dedekind_f(n).value <= psirh.robin_g(n).value + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            psirh.dedekind_f(0)


class TestScanExceptions:
    def test_set_b_prefix(self):
        rep = scan_exceptions(CriterionKind.DEDEKIND_F, 2, 10**4)
        assert rep.exceptions == SET_B
        assert rep.largest == 30

    def test_set_a_prefix(self):
        rep = scan_exceptions(CriterionKind.ROBIN_G, 2, 10**4)
        assert rep.exceptions == SET_A
        assert rep.largest == 5040

    def test_empty_above_30(self):
        rep = scan_exceptions(CriterionKind.DEDEKIND_F, 31, 10**4)
        assert rep.exceptions == ()
        assert rep.largest is None

    def test_b_subset_of_a(self):
        b = scan_exceptions(CriterionKind.DEDEKIND_F, 2, 10**4)
        a = scan_exceptions(CriterionKind.ROBIN_G, 2, 10**4)
        assert set(b.exceptions) <= set(a.exceptions)

    def test_chunk_size_invariance(self, monkeypatch):
        reps = []
        for cs in (64, 999, 10**4, 1 << 20):
            monkeypatch.setattr(criteria, "DEFAULT_CHUNK", cs)
            reps.append(scan_exceptions(CriterionKind.ROBIN_G, 2, 10**4))
        assert all(r == reps[0] for r in reps[1:])

    def test_range_validation(self):
        with pytest.raises(DomainError):
            scan_exceptions(CriterionKind.ROBIN_G, 1, 100)
        with pytest.raises(DomainError):
            scan_exceptions(CriterionKind.ROBIN_G, 10, 10)
        with pytest.raises(ResourceLimitError):
            scan_exceptions(CriterionKind.ROBIN_G, 2, 10**9)


class TestSigmaUpperBound:
    def test_paper_constant_fails_at_12(self):
        res = check_sigma_upper_bound(3, 100, c=0.6482)
        assert not res.passed
        assert res.witness == 12
        assert res.worst_margin == pytest.approx(-1.4995e-5, rel=1e-3)

    def test_bumped_constant_passes(self):
        res = check_sigma_upper_bound(3, 10**4, c=0.6483)
        assert res.passed
        assert res.witness == 12
        assert res.worst_margin == pytest.approx(9.4866e-5, rel=1e-3)

    @pytest.mark.parametrize("c", [0.6483, 0.6482])
    def test_margin_is_exact_at_witness(self, c):
        res = check_sigma_upper_bound(3, 10**4, c=c)
        assert res.witness == 12
        with mp.workdps(50):
            llg = mp.log(mp.log(12))
            exact = mp_e_gamma() * llg + mp.mpf(c) / llg - mp.mpf(28) / 12
            assert res.worst_margin == float(exact)

    def test_paper_constant_holds_excluding_12(self):
        res = check_sigma_upper_bound(13, 10**4, c=0.6482)
        assert res.passed

    def test_lo_validation(self):
        with pytest.raises(DomainError):
            check_sigma_upper_bound(2, 100)


def walk(fn=criteria._chunk_values, lo=2, hi=1000):
    return criteria._chunks(fn, lo, hi, CriterionKind.DEDEKIND_F)


class TestChunkPipeline:
    @pytest.fixture(autouse=True)
    def chunks_of_7(self, monkeypatch):
        monkeypatch.setattr(criteria, "DEFAULT_CHUNK", 7)

    def test_close_mid_walk_stops_every_worker(self, set_workers):
        set_workers(2)
        before = threading.active_count()
        chunks = walk()
        assert [next(chunks)[0], next(chunks)[0]] == [2, 9]
        assert threading.active_count() > before
        chunks.close()
        assert threading.active_count() == before

    def test_worker_error_keeps_its_type(self, set_workers):
        set_workers(2)

        class Boom(Exception):
            pass

        callers = set()

        def fn(lo, hi, kind):
            callers.add(threading.get_ident())
            if lo >= 100:
                raise Boom(lo)
            return np.zeros(hi - lo)

        before = threading.active_count()
        seen = []
        with pytest.raises(Boom):
            for c_lo, _ in walk(fn):
                seen.append(c_lo)
        assert seen == list(range(2, 100, 7))
        assert threading.get_ident() not in callers
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers, hi", [(1, 1000), (2, 9)])
    def test_serial_walk_starts_no_thread(self, monkeypatch, set_workers,
                                          workers, hi):
        # one worker, or a range of one chunk, stays on the serial loop
        set_workers(workers)

        def refuse(self):
            raise AssertionError("thread started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert [c for c, _ in walk(hi=hi)] == list(range(2, hi, 7))


def same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64),
                                                  b.view(np.int64))


class TestChunkArithmetic:
    @pytest.mark.parametrize("seed", range(6))
    def test_in_place_matches_written_out(self, seed):
        # the buffered chunk arithmetic against the plain expressions
        rng = np.random.default_rng(seed)
        lo = int(rng.integers(3, 10**8 - 5000))
        hi = lo + int(rng.integers(1, 5000))
        n = np.arange(lo, hi, dtype=np.float64)
        llg = np.log(np.log(n))
        for kind in CriterionKind:
            ratios = multiplicative_range(
                lo, hi, kind is CriterionKind.ROBIN_G) / n
            assert same_bits(criteria._chunk_ratios(lo, hi, kind), ratios)
            assert same_bits(criteria._chunk_values(lo, hi, kind),
                             ratios - CONSTANTS.e_gamma * llg)
        c = float(rng.uniform(0.1, 1.0))
        assert same_bits(criteria._sigma_margin(lo, ratios, c),
                         CONSTANTS.e_gamma * llg + c / llg - ratios)
