import math

import mpmath as mp
import numpy as np
import pytest

import psirh
from psirh import criteria
from psirh.arith import psi_table, sigma_table
from psirh.champions import (Proposition, first_primes, psi_champion_scan,
                             read_bfile)
from psirh.criteria import CriterionKind
from psirh.errors import BFileParseError, DomainError, ResourceLimitError

PAPER_S_LISTING = [2, 4, 6, 12, 18, 24, 30, 60, 90, 120, 150, 180, 210, 420,
                   630, 840, 1050, 1260, 1470, 1680, 1890, 2100, 2310, 4620,
                   6930, 9240]


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
        vals = [c.value for c in psirh.generate_s_sequence(limit)]
        assert psi_champion_scan(limit) == vals


class TestPsiChampion:
    def test_members(self):
        assert 24 in psi_champion_scan(24)
        assert 2310 in psi_champion_scan(2310)

    def test_non_member(self):
        assert 36 not in psi_champion_scan(36)

    def test_errors(self):
        with pytest.raises(DomainError):
            psi_champion_scan(1)
        with pytest.raises(ResourceLimitError):
            psi_champion_scan(10**8 + 1)


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
        for (_, n1, d1), (_, n2, d2) in zip(recs, recs[1:]):
            assert n1 * d2 < n2 * d1

    def test_ceiling(self):
        for limit in (10**8 + 1, 10**9):
            with pytest.raises(ResourceLimitError):
                psirh.generate_superabundant(limit)


class TestPsiMultipleIdentity:
    def test_spot_cases(self):
        assert psirh.dedekind_psi(12) == 2 * psirh.dedekind_psi(6)
        assert psirh.dedekind_psi(180) == 6 * psirh.dedekind_psi(30) == 432

    def test_no_failures(self):
        chk = psirh.psi_multiple_identity_check(8)
        assert chk.failures == ()
        assert chk.cases_checked > 0
        assert chk.proposition is Proposition.PSI_MULTIPLE_IDENTITY

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
    """The per-m float loop verify_prop2 used before it shared the scan
    prefilter: (cases_checked, failures)."""
    primes = first_primes(int(limit).bit_length() + 1)
    psi = psi_table(max(limit, 2)).tolist()
    e_gamma = criteria.CONSTANTS.e_gamma

    def f_mp(n):
        ratio = mp.mpf(psi[n]) / n
        return ratio - criteria.mp_e_gamma() * mp.log(mp.log(n))

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
                        diff = float(f_mp(m) - f_mp(prim))
                if diff >= 0:
                    failures.append((k, l, m))
            l += 1
    return cases, tuple(failures)


@pytest.fixture
def every_m_a_candidate(monkeypatch):
    """A prefilter whose every value lies above f(N_k) - _CANDIDATE_BAND."""
    monkeypatch.setattr(criteria, "_chunk_values",
                        lambda lo, hi, kind, base: np.full(hi - lo, np.inf))


class TestDecisionPath:
    def test_prop2_matches_reference_loop(self):
        for limit in [*range(2, 3001), 10**4]:
            chk = psirh.verify_prop2(limit)
            assert (chk.cases_checked, chk.failures) == \
                prop2_reference(limit), limit

    def test_prop2_every_m_a_candidate(self, every_m_a_candidate):
        chk = psirh.verify_prop2(2000)
        assert chk.failures == ()
        assert chk.cases_checked == prop2_reference(2000)[0] > 0

    def test_failures_name_k_l_m(self, every_m_a_candidate, monkeypatch):
        monkeypatch.setattr(psirh.champions, "_f_at_least", lambda m, ref: True)
        chk = psirh.verify_prop2(1000)
        assert len(chk.failures) == chk.cases_checked
        for k, l, m in chk.failures:
            n_k = math.prod(first_primes(k))
            assert l * n_k < m < (l + 1) * n_k

    def test_tie_counts_as_failure(self):
        for k in range(1, 8):
            n_k = math.prod(first_primes(k))
            assert criteria._f_at_least(n_k, n_k)
        assert not criteria._f_at_least(60, 30)
        assert criteria._f_at_least(30, 60)


def record_reference(table, start, keep_ties):
    """The whole-table record loop the record scans used before they walked
    chunks: every n >= start whose table[n]/n beats (or, when keep_ties,
    equals) the best earlier ratio, by exact cross-multiplication."""
    values = table.tolist()
    best_num, best_den = 0, 1
    out = []
    for n in range(start, len(values)):
        lhs = values[n] * best_den
        rhs = best_num * n
        if lhs > rhs:
            best_num, best_den = values[n], n
            out.append(n)
        elif keep_ties and lhs == rhs:
            out.append(n)
    return out


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
                        lambda lo, hi, kind, base: np.full(hi - lo, np.inf))


def check_record_scans(limit):
    assert psi_champion_scan(limit) == \
        record_reference(psi_table(limit), 2, keep_ties=True)
    sig = sigma_table(limit)
    assert psirh.generate_superabundant(limit).records == tuple(
        (n, int(sig[n]), n)
        for n in record_reference(sig, 1, keep_ties=False))


class TestChunkDriver:
    def test_record_scans_chunk_invariant(self, chunk_size):
        check_record_scans(DRIVER_LIMIT)

    def test_prop2_chunk_invariant(self, chunk_size):
        chk = psirh.verify_prop2(DRIVER_LIMIT)
        assert (chk.cases_checked, chk.failures) == \
            prop2_reference(DRIVER_LIMIT)

    def test_exact_path_alone(self, every_n_a_record_candidate):
        check_record_scans(DRIVER_LIMIT)

    def test_float_maximum_carries_across_chunks(self, chunk_size,
                                                 monkeypatch):
        # below 3000 no float ratio ties the running maximum unless the
        # exact ratio does, so only the record holders reach the exact path
        for kind, scan in ((CriterionKind.DEDEKIND_F, psi_champion_scan),
                           (CriterionKind.ROBIN_G, lambda limit: [
                               r[0] for r in
                               psirh.generate_superabundant(limit).records])):
            exact = []
            fn = criteria._RATIO_FN[kind]
            monkeypatch.setitem(criteria._RATIO_FN, kind,
                                lambda n, fn=fn: exact.append(n) or fn(n))
            records = scan(DRIVER_LIMIT)
            assert exact == records


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
