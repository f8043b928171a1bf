import functools
import math
import sys

import mpmath as mp
import numpy as np
import pytest

import psirh
from psirh import champions, criteria, prime_engine
from psirh.arith import psi_table, sigma_table
from psirh.champions import first_primes, read_bfile
from psirh.cli import OEIS_S_LIMIT
from psirh.criteria import CriterionKind
from psirh.errors import BFileParseError, ResourceLimitError

import oracles
from oracles import (SIGMA_BOUND_CS, mp_value, prop1_walk, prop2_walk,
                     record_reference)

# OEIS A004394, every term up to 10^6
A004394_TO_1E6 = [1, 2, 4, 6, 12, 24, 36, 48, 60, 120, 180, 240, 360, 720,
                  840, 1260, 1680, 2520, 5040, 10080, 15120, 25200, 27720,
                  55440, 110880, 166320, 277200, 332640, 554400, 665280,
                  720720]


def psi_champions(limit):
    """Every 2 <= n <= limit with no m < n of larger psi(m)/m, by the
    whole-table loop: the brute-force oracle for generate_s_sequence."""
    return record_reference(psi_table(limit), 2, keep_ties=True)


def s_values(limit):
    return [c.value for c in psirh.generate_s_sequence(limit)]


# the ceiling of champions.ratio_records, and so of a scan's hi - 1
RECORD_CEILING = {CriterionKind.DEDEKIND_F: champions.S_SEQUENCE_CEILING,
                  CriterionKind.ROBIN_G: champions.SUPERABUNDANT_CEILING}

PAPER_S_LISTING = [2, 4, 6, 12, 18, 24, 30, 60, 90, 120, 150, 180, 210, 420,
                   630, 840, 1050, 1260, 1470, 1680, 1890, 2100, 2310, 4620,
                   6930, 9240]


class TestFirstPrimes:
    def test_matches_the_reference_sieve(self):
        # every k <= 1200, k < 6 in _nth_prime_value_bound's fixed branch
        reference = oracles.sieve_reference(10**4).tolist()  # p_1229 = 9973
        assert {prime_engine._nth_prime_value_bound(k) for k in range(6)} == {15}
        for k in range(1201):
            assert first_primes(k) == reference[:k], k
        # the most a ladder takes, first_primes(limit.bit_length() + 1), at
        # the ceilings 10^30 and 10^300
        for limit, k in ((champions.SUPERABUNDANT_CEILING, 101),
                         (champions.S_SEQUENCE_CEILING, 998)):
            assert limit.bit_length() + 1 == k
            primes = first_primes(k)
            assert primes == reference[:k]
            assert all(type(p) is int for p in primes)


class TestSSequence:
    def test_listing_up_to_1e4(self):
        assert [c.value for c in psirh.generate_s_sequence(10**4)] == PAPER_S_LISTING

    def test_listing_is_prefix_at_1e5(self):
        vals = [c.value for c in psirh.generate_s_sequence(10**5)]
        assert vals[:26] == PAPER_S_LISTING

    def test_tiny_limit(self):
        assert [c.value for c in psirh.generate_s_sequence(5)] == [2, 4]
        assert psirh.generate_s_sequence(1) == []

    def test_structure(self):
        for c in psirh.generate_s_sequence(10**5):
            n_k = math.prod(first_primes(c.primorial_index))
            assert c.value == c.multiplier * n_k
            # multiplier is p_k-smooth
            if c.multiplier > 1:
                p_k = max(p for p, _ in psirh.factorize(n_k).factors)
                assert max(p for p, _ in psirh.factorize(c.multiplier).factors) <= p_k

    def test_ratio_log_depends_only_on_index(self):
        by_k = {}
        for c in psirh.generate_s_sequence(10**5):
            by_k.setdefault(c.primorial_index, set()).add(c.psi_ratio_log)
        assert all(len(v) == 1 for v in by_k.values())

    def test_ratio_log_value(self):
        c = next(c for c in psirh.generate_s_sequence(100) if c.primorial_index == 3)
        expect = sum(math.log1p(1 / p) for p in (2, 3, 5))
        assert c.psi_ratio_log == pytest.approx(expect, rel=1e-15)

    def test_matches_brute_force_scan(self):
        limit = 10**4
        assert psi_champions(limit) == s_values(limit)

    def test_ceiling(self):
        assert champions.S_SEQUENCE_CEILING >= OEIS_S_LIMIT
        for limit in (champions.S_SEQUENCE_CEILING + 1, 10**3000):
            with pytest.raises(ResourceLimitError):
                psirh.generate_s_sequence(limit)
            with pytest.raises(ResourceLimitError):
                champions.ratio_records(CriterionKind.DEDEKIND_F, limit)


class TestPsiChampion:
    # ties with the running maximum keep membership: 4 and 24 tie the
    # ratio of 2 and 6, while the larger ratio of 30 excludes 36
    def test_members(self):
        for limit in (24, 2310):
            assert s_values(limit) == psi_champions(limit)
            assert limit in s_values(limit)

    def test_non_member(self):
        assert s_values(36) == psi_champions(36)
        assert 36 not in s_values(36)


class TestSuperabundant:
    def test_up_to_100(self):
        res = psirh.generate_superabundant(100)
        assert [r[0] for r in res.records] == [1, 2, 4, 6, 12, 24, 36, 48, 60]

    def test_30_not_superabundant(self):
        res = psirh.generate_superabundant(30)
        assert 30 not in [r[0] for r in res.records]

    def test_record_ratios_strictly_increase(self):
        res = psirh.generate_superabundant(10**4)
        recs = res.records
        for (n1, s1), (n2, s2) in zip(recs, recs[1:]):
            assert s1 * n2 < s2 * n1

    def test_a004394_to_1e6(self):
        res = psirh.generate_superabundant(10**6)
        assert [n for n, _ in res.records] == A004394_TO_1E6

    def test_tie_is_not_a_record(self):
        # 360360 ties the ratio of the record 332640 and is not in A004394
        assert 360360 * psirh.sigma(332640) == 332640 * psirh.sigma(360360)
        assert 360360 not in [n for n, _ in
                              psirh.generate_superabundant(10**6).records]

    def test_tiny_limits(self):
        for limit in (-1, 0):
            assert psirh.generate_superabundant(limit).records == ()
        assert psirh.generate_superabundant(1).records == ((1, 1),)
        assert psirh.generate_superabundant(3).records == ((1, 1), (2, 3))

    def test_ceiling(self):
        for limit in (10**30 + 1, 10**40):
            with pytest.raises(ResourceLimitError):
                psirh.generate_superabundant(limit)
            with pytest.raises(ResourceLimitError):
                champions.ratio_records(CriterionKind.ROBIN_G, limit)


def exponents(n):
    """The exponents of n, smallest prime first, or None when its primes
    are not 2, 3, 5, ... in a row."""
    factors = psirh.factorize(n).factors
    if [p for p, _ in factors] != first_primes(len(factors)):
        return None
    return [a for _, a in factors]


def is_hardy_ramanujan(n):
    exps = exponents(n)
    return exps is not None and exps == sorted(exps, reverse=True)


class TestHardyRamanujan:
    def test_matches_brute_force_to_1e5(self):
        limit = 10**5
        got = champions._hardy_ramanujan(limit, first_primes(18))
        assert sorted(n for n, _ in got) == \
            [n for n in range(1, limit + 1) if is_hardy_ramanujan(n)]
        assert all(s == psirh.sigma(n) for n, s in got)

    def test_counts(self):
        # A025487: 803 terms up to 10^8
        assert len(champions._hardy_ramanujan(10**8, first_primes(28))) == 803


@pytest.fixture(scope="module")
def sa_1e20():
    return psirh.generate_superabundant(10**20).records


class TestSuperabundantTo1e20:
    def test_sigma_from_factorization(self, sa_1e20):
        assert len(sa_1e20) == 123
        assert all(s == psirh.sigma(n) for n, s in sa_1e20)
        for (n1, s1), (n2, s2) in zip(sa_1e20, sa_1e20[1:]):
            assert n1 < n2 and s1 * n2 < s2 * n1

    def test_largest_prime_exponent_is_one(self, sa_1e20):
        # Alaoglu & Erdos: only 4 and 36 end on a square
        ends = {n for n, _ in sa_1e20 if n > 1 and exponents(n)[-1] != 1}
        assert ends == {4, 36}

    def test_robin_holds_above_5040(self, sa_1e20):
        above = [n for n, _ in sa_1e20 if n > 5040]
        assert above[-1] > 2**53
        for n in above:
            assert psirh.robin_g(n).value < 0, n


class TestPsiMultipleIdentity:
    def test_spot_cases(self):
        assert psirh.dedekind_psi(12) == 2 * psirh.dedekind_psi(6)
        assert psirh.dedekind_psi(180) == 6 * psirh.dedekind_psi(30) == 432

    def test_no_failures(self):
        chk = psirh.psi_multiple_identity_check(8)
        assert chk.failures == ()
        assert chk.cases_checked > 0
        assert (chk.claim, chk.first, chk.last, chk.passed) == \
            ("psi_multiple_identity", 1, 8, True)

    def test_ceiling(self):
        with pytest.raises(ResourceLimitError):
            psirh.psi_multiple_identity_check(15)


class TestProp1:
    def test_passes_to_1e4(self):
        chk = psirh.verify_prop1(10**4)
        assert chk.failures == ()
        assert chk.cases_checked > 0

    def test_spot_f60_below_f30(self):
        assert psirh.dedekind_f(60).value < psirh.dedekind_f(30).value

    def test_small_limit_instantiates_low_k_only(self):
        chk = psirh.verify_prop1(30)
        assert chk.failures == ()
        # k=1 gives l=2 (4); k=2 gives l=2,3,4 (12,18,24); nothing else fits
        assert chk.cases_checked == 4


class TestProp2:
    def test_passes_to_1e4(self):
        chk = psirh.verify_prop2(10**4)
        assert chk.failures == ()
        assert chk.cases_checked > 0

    def test_every_m_between_30_and_60(self):
        f30 = psirh.dedekind_f(30).value
        for m in range(31, 60):
            assert psirh.dedekind_f(m).value < f30

    def test_degenerate_limit(self):
        chk = psirh.verify_prop2(12)
        assert chk.failures == ()
        assert chk.cases_checked == 1  # only m=3 inside the k=1 window


def prop2_reference(limit):
    """The per-m float loop the Proposition 2 walk used before it shared the
    scan prefilter: (cases_checked, failures), the oracle of prop2_walk at
    small limits (it holds a psi table of the whole range)."""
    primes = first_primes(int(limit).bit_length() + 1)
    psi = psi_table(max(limit, 2)).tolist()
    e_gamma = criteria.CONSTANTS.e_gamma

    cases = 0
    failures = []
    prim = 1
    for k, p in enumerate(primes, start=1):
        prim *= p
        if prim > limit:
            break
        f_prim = psirh.dedekind_f(prim).value
        next_prim = prim * primes[k]
        l = 1
        while (l + 1) * prim < min(next_prim, limit):
            for m in range(l * prim + 1, (l + 1) * prim):
                cases += 1
                diff = psi[m] / m - e_gamma * math.log(math.log(m)) - f_prim
                if abs(diff) < 1e-9:
                    with mp.workdps(30):
                        diff = float(mp_value(m, psi[m])
                                     - mp_value(prim, psi[prim]))
                if diff >= 0:
                    failures.append((k, l, m))
            l += 1
    return cases, tuple(failures)


@pytest.fixture
def every_m_a_candidate(monkeypatch):
    """A prefilter whose every value lies above f(N_k) - _CANDIDATE_BAND."""
    monkeypatch.setattr(criteria, "_chunk_values",
                        lambda lo, hi, kind: np.full(hi - lo, np.inf))


class TestDecisionPath:
    """The propositions are decided by their proof; the walks of
    tests/oracles.py check them numerically, and their counts check the
    closed forms."""

    def test_prop2_matches_reference_loop(self):
        for limit in [*range(2, 3001), 10**4]:
            walked = prop2_walk(limit)
            assert walked == prop2_reference(limit), limit
            assert psirh.verify_prop2(limit) == psirh.Decision(
                "prop2", 2, limit - 1, True, walked[0]), limit

    def test_prop1_matches_the_walk(self):
        for limit in [*range(2, 3001), 10**4, 10**6]:
            cases, failures = prop1_walk(limit)
            assert failures == ()
            assert psirh.verify_prop1(limit) == psirh.Decision(
                "prop1", 2, limit - 1, True, cases), limit

    def test_prop2_every_m_a_candidate(self, every_m_a_candidate):
        cases, failures = prop2_walk(2000)
        assert failures == ()
        assert cases == prop2_reference(2000)[0] > 0

    def test_failures_name_k_l_m(self, every_m_a_candidate, monkeypatch):
        monkeypatch.setattr(oracles, "f_at_least", lambda m, ref: True)
        cases, failures = prop2_walk(1000)
        assert len(failures) == cases
        for k, l, m in failures:
            n_k = math.prod(first_primes(k))
            assert l * n_k < m < (l + 1) * n_k

    def test_tie_counts_as_failure(self):
        for k in range(1, 8):
            n_k = math.prod(first_primes(k))
            assert oracles.f_at_least(n_k, n_k)
        assert not oracles.f_at_least(60, 30)
        assert oracles.f_at_least(30, 60)


DRIVER_LIMIT = 3000


@pytest.fixture(params=[1, 2, 7, 64])
def chunk_size(request, monkeypatch):
    """Every range walk in chunks of this length.  At 1 and 2 the ties
    (2, 4) and (6, 24) straddle a chunk boundary, and at 7 so does (6, 24)."""
    monkeypatch.setattr(criteria, "DEFAULT_CHUNK", request.param)
    return request.param


@pytest.fixture
def every_n_a_record_candidate(monkeypatch):
    """Float ratios that rule nothing out, so the exact path decides all."""
    monkeypatch.setattr(criteria, "_chunk_ratios",
                        lambda lo, hi, kind: np.full(hi - lo, np.inf))


def check_record_scans(limit):
    assert s_values(limit) == psi_champions(limit)
    sig = sigma_table(limit)
    assert psirh.generate_superabundant(limit).records == tuple(
        (n, int(sig[n])) for n in record_reference(sig, 1, keep_ties=False))


@functools.cache
def scan_reference(kind, hi):
    """The per-n decisions of every 2 <= n < hi: (the criterion values of
    the exceptions, escalation count)."""
    values = [criteria._criterion(n, kind) for n in range(2, hi)]
    return (tuple(v for v in values if v.value >= 0),
            sum(v.precision_escalated for v in values))


def check_scans(hi):
    for kind in CriterionKind:
        rep = criteria.scan_exceptions(kind, 2, hi)
        assert (rep.values, rep.escalations) == scan_reference(kind, hi)
        assert rep.exceptions == tuple(v.n for v in rep.values)


SIGMA_BOUND_LOS = (3, 4, 6, 7, 11, 12, 13, 2520, 2521)


def check_sigma_bound(hi, los=SIGMA_BOUND_LOS, cs=SIGMA_BOUND_CS):
    """The witness is the first whole-table argmin of the float margin, and
    the margin reported is the 30-digit mpmath one there: the brute force
    over every n of the range, at every c."""
    sig = sigma_table(hi - 1)
    for lo in los:
        n = np.arange(lo, hi, dtype=np.float64)
        llg = np.log(np.log(n))
        for c in cs:
            margin = criteria.CONSTANTS.e_gamma * llg + c / llg - sig[lo:] / n
            witness = lo + int(np.argmin(margin))
            exact = -float(mp_value(witness, int(sig[witness]), c))
            res = criteria.check_sigma_upper_bound(lo, hi, c)
            assert (res.witness, res.worst_margin, res.passed) == \
                (witness, exact, exact > 0), (lo, c)


def check_prop2(limit):
    assert prop2_walk(limit) == prop2_reference(limit)


def check_every_caller(limit):
    check_record_scans(limit)
    check_prop2(limit)
    check_scans(limit)
    # the default c walks a short head and 1e6 all of [lo, limit); the
    # whole lo x c grid runs at every chunk size in TestChunkDriver
    check_sigma_bound(limit, los=(3, 13),
                      cs=(criteria.DEFAULT_SIGMA_BOUND_C, 1e6))


class TestChunkDriver:
    def test_record_scans_chunk_invariant(self, chunk_size):
        check_record_scans(DRIVER_LIMIT)

    def test_prop2_chunk_invariant(self, chunk_size):
        check_prop2(DRIVER_LIMIT)

    def test_scans_chunk_invariant(self, chunk_size):
        check_scans(DRIVER_LIMIT)

    def test_sigma_bound_chunk_invariant(self, chunk_size):
        check_sigma_bound(DRIVER_LIMIT)

    def test_sigma_bound_past_720720(self):
        # the last superabundant number below 10^6, and the head after it
        check_sigma_bound(10**6 + 1, los=(720720, 720721))

    def test_every_caller_reads_the_chunk_size(self, chunk_size,
                                               monkeypatch):
        spans = []
        for name in ("_chunk_values", "_chunk_ratios"):
            fn = getattr(criteria, name)
            monkeypatch.setattr(
                criteria, name, lambda lo, hi, *rest, fn=fn:
                spans.append((lo, hi)) or fn(lo, hi, *rest))
        callers = (
            lambda: prop2_walk(DRIVER_LIMIT),
            # the sigma bound walks only its head, here [2521, 3000)
            lambda: criteria.check_sigma_upper_bound(2521, DRIVER_LIMIT))
        for caller in callers:
            spans.clear()
            caller()
            assert max(hi - lo for lo, hi in spans) == chunk_size
        # past n0 = 7 the first superabundant number is 12: the head is
        # [3, 12) even at the scan ceiling, and the bound of each of its
        # chunks clears the margin at 12, so none is computed
        spans.clear()
        criteria.check_sigma_upper_bound(3, 10**8)
        assert spans == []
        # at c = 1e6 the head is all of [3, 3000); B falls across it, and
        # only the last chunk's bound lies below the margin found there
        spans.clear()
        criteria.check_sigma_upper_bound(3, DRIVER_LIMIT, 1e6)
        last = 3 + (DRIVER_LIMIT - 4) // chunk_size * chunk_size
        assert spans == [(last, DRIVER_LIMIT)]
        # a scan sieves its prefix in the stdlib, and the record sequences
        # are built by structure: none walks a range
        for caller in (
                lambda limit: criteria.scan_exceptions(CriterionKind.ROBIN_G,
                                                       2, limit),
                psirh.generate_s_sequence, psirh.generate_superabundant):
            spans.clear()
            caller(DRIVER_LIMIT)
            assert spans == []

    @pytest.mark.parametrize("c, witness, chunks", [
        (1e6, 99999900, 1), (50.0, 73513440, 102)])
    def test_sigma_head_walks_only_the_open_chunks(self, monkeypatch, c,
                                                  witness, chunks):
        # n0 lies past the scan ceiling: the head is all of [3, 10^8), 382
        # chunks of 2^18, and branch and bound computes only these
        spans = []
        fn = criteria._chunk_ratios
        monkeypatch.setattr(criteria, "_chunk_ratios", lambda lo, hi, k:
                            spans.append((lo, hi)) or fn(lo, hi, k))
        res = criteria.check_sigma_upper_bound(3, 10**8, c)
        assert (res.witness, res.passed, len(spans)) == (witness, True, chunks)
        assert any(lo <= witness < hi for lo, hi in spans)

    @pytest.mark.parametrize("kind", CriterionKind)
    def test_scans_walk_only_the_open_chunks(self, sieved, kind,
                                             shared_superabundant):
        # the record windows leave open only the windows' span, [2, 47) for
        # f and [2, 5583) for g, at 10^8 and at the records' ceiling, and no
        # n of [10^7, 1.5 * 10^7) or of [10^20, 10^20 + 10): the sieve is
        # called for that span alone
        end = {CriterionKind.DEDEKIND_F: 47, CriterionKind.ROBIN_G: 5583}[kind]
        for hi in (10**8, RECORD_CEILING[kind]):
            sieved.clear()
            criteria.scan_exceptions(kind, 2, hi)
            assert sieved == [(2, end)]
        for lo, hi in ((10**7, 15 * 10**6), (10**20, 10**20 + 10)):
            sieved.clear()
            assert criteria.scan_exceptions(kind, lo, hi).exceptions == ()
            assert sieved == []

    def test_exact_path_alone(self, every_n_a_record_candidate):
        check_record_scans(DRIVER_LIMIT)

    def test_float_maximum_carries_across_chunks(self, chunk_size,
                                                 monkeypatch):
        # no running float maximum is left to carry: neither record
        # sequence computes a chunk or an exact ratio, at any chunk size
        calls = []
        for name in ("_chunk_values", "_chunk_ratios", "sigma",
                     "dedekind_psi"):
            fn = getattr(criteria, name)
            monkeypatch.setattr(criteria, name, lambda *args, fn=fn, name=name:
                                calls.append(name) or fn(*args))
        s_values(DRIVER_LIMIT)
        records = psirh.generate_superabundant(DRIVER_LIMIT).records
        assert calls == []
        assert records[-1] == (2520, psirh.sigma(2520))


class TestWorkerCount:
    # no range walk reads prime_engine.WORKERS (the prime stream is its
    # one reader), so each caller is checked once per chunk size, at a
    # WORKERS that would put a walk that read it on three threads
    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_every_caller_matches_reference(self, monkeypatch, set_workers,
                                            size):
        set_workers(4)
        monkeypatch.setattr(criteria, "DEFAULT_CHUNK", size)
        check_every_caller(DRIVER_LIMIT)

    def test_more_workers_than_cores_with_fast_switching(self, monkeypatch,
                                                         set_workers):
        set_workers(4)
        monkeypatch.setattr(criteria, "DEFAULT_CHUNK", 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            check_record_scans(DRIVER_LIMIT)
            check_scans(DRIVER_LIMIT)
        finally:
            sys.setswitchinterval(interval)


class TestSuperabundantOverlap:
    def test_about_half_of_s_not_superabundant(self):
        limit = 10**5
        s_vals = {c.value for c in psirh.generate_s_sequence(limit)}
        sa = {r[0] for r in psirh.generate_superabundant(limit).records}
        overlap = len(s_vals & sa) / len(s_vals)
        # the observation is qualitative; just report-style sanity range
        assert 0.2 < overlap < 0.8


class TestBFileReader:
    def test_basic(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("# comment\n1 2\n2 4\n\n3 6\n")
        assert read_bfile(path) == [(1, 2), (2, 4), (3, 6)]

    def test_big_values(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text(f"1 {10**50}\n")
        assert read_bfile(path) == [(1, 10**50)]

    @pytest.mark.parametrize("text, line", [
        ("1 2\n2 4\n4 8\n", 3),        # gap
        ("1 2\n2 4\n2 4\n", 3),        # duplicate
        ("# c\n2 4\n1 2\n3 6\n", 3),  # swap
    ])
    def test_non_consecutive_index_names_line(self, tmp_path, text, line):
        path = tmp_path / "b.txt"
        path.write_text(text)
        with pytest.raises(BFileParseError) as exc:
            read_bfile(path)
        assert exc.value.line_number == line

    def test_offset_zero_accepted(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 1\n1 2\n")
        assert read_bfile(path) == [(0, 1), (1, 2)]

    def test_malformed_names_line(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1 2\nbogus line here\n")
        with pytest.raises(BFileParseError) as exc:
            read_bfile(path)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("field", [
        "1_2",       # int() reads 12
        "\u0664",    # ARABIC-INDIC DIGIT FOUR: int() reads 4
        "+4", "--4", "4.0", "0x4"])
    def test_only_ascii_decimal_integers(self, tmp_path, field):
        path = tmp_path / "b.txt"
        path.write_text(f"1 2\n2 4\n3 6\n4 {field}\n", encoding="utf-8")
        with pytest.raises(BFileParseError) as exc:
            read_bfile(path)
        assert exc.value.line_number == 4

    @pytest.mark.parametrize("data, line", [
        (b"1 2\n2 4\n3 \xff\n", 3),       # in a data line
        (b"1 2\n# caf\xe9\n2 4\n", 2)])  # in a comment
    def test_undecodable_byte_names_line(self, tmp_path, data, line):
        path = tmp_path / "b.txt"
        path.write_bytes(data)
        with pytest.raises(BFileParseError, match="not UTF-8") as exc:
            read_bfile(path)
        assert exc.value.line_number == line

    def test_negative_values_accepted(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("-1 -7\n0 0\n1 007\n")
        assert read_bfile(path) == [(-1, -7), (0, 0), (1, 7)]
