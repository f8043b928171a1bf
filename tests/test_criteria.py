import bisect
import functools
import itertools
import math
import random
import threading
import warnings
from decimal import Decimal

import mpmath as mp
import numpy as np
import pytest

import psirh
import psirh.cli
from psirh import champions, criteria, prime_engine
from psirh.arith import dedekind_psi, multiplicative_range, sigma
from psirh.criteria import (CONSTANTS, DEFAULT_SIGMA_BOUND_C, CriterionKind,
                            check_sigma_upper_bound, scan_exceptions)
from psirh.errors import DomainError, ResourceLimitError

from oracles import SIGMA_BOUND_CS, mp_e_gamma, mp_value
from thread_checks import close_mid_stream, walk_on_the_callers_thread

SET_A = (2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 20, 24, 30, 36, 48, 60, 72, 84,
         120, 180, 240, 360, 720, 840, 2520, 5040)
SET_B = (2, 3, 4, 5, 6, 8, 10, 12, 18, 30)


class TestConstants:
    def test_against_high_precision(self):
        with mp.workdps(30):
            zeta2 = mp.pi ** 2 / 6
            assert CONSTANTS.gamma == float(mp.euler)
            assert CONSTANTS.e_gamma == float(mp_e_gamma())
            assert CONSTANTS.zeta2 == float(zeta2)
            assert CONSTANTS.e_gamma_over_zeta2 == float(mp_e_gamma() / zeta2)

    def test_e_gamma_digits(self):
        # the 30-digit evaluator's e^gamma, against exp(euler) at 60 digits
        digits = criteria.E_GAMMA_DIGITS
        assert len(digits) > 40
        with mp.workdps(60):
            assert abs(mp.mpf(digits) - mp_e_gamma()) < mp.mpf(10) ** -49
        # and within 1e-140, far inside the bound at the 120-digit cap
        with mp.workdps(160):
            assert abs(mp.mpf(digits) - mp_e_gamma()) < mp.mpf(10) ** -140


class TestExactValue:
    """The decimal evaluator rounds to the float that a 30-digit mpmath
    oracle (oracles.mp_value, no psirh arithmetic) rounds to."""

    @pytest.mark.parametrize("fn", [dedekind_psi, sigma])
    def test_matches_mpmath(self, fn):
        # every n below 6000, and a seeded sample up to 10^12
        rng = random.Random(32)
        for n in [*range(3, 6000), *(rng.randrange(6000, 10**12)
                                     for _ in range(200))]:
            numer = fn(n)
            assert (float(criteria._exact_value(n, numer))
                    == float(mp_value(n, numer))), n

    def test_within_the_stated_bound(self):
        # the bound of the _exact_value docstring, against 60 digits, from
        # n = 2 (L < 0) to 2^53 - 1, at c = 0 and at every c of the sigma
        # bound's brute force
        rng = random.Random(53)
        for n in [2, 3, 4, 12, 5040, 2**53 - 1,
                  *(rng.randrange(5, 10**12) for _ in range(100))]:
            for fn in (dedekind_psi, sigma):
                numer = fn(n)
                with mp.workdps(60):
                    r, llg = mp.mpf(numer) / n, abs(mp.log(mp.log(n)))
                    for c in (0.0, *SIGMA_BOUND_CS):
                        got = mp.mpf(str(criteria._exact_value(n, numer, c)))
                        err = abs(got - mp_value(n, numer, c, dps=60))
                        bound = 1e-29 * (
                            r + 1 + 3 * llg if not c else
                            2 * r + 1 + 4 * llg + (2 + 1 / llg) * abs(c) / llg)
                        assert err <= bound, (n, c)

    @pytest.mark.parametrize("dps", [60, 120])
    def test_within_the_stated_bound_when_retried(self, dps):
        # the same bound at the retry precisions, 10^(1 - dps) in place of
        # 1e-29, against dps + 30 digits
        rng = random.Random(dps)
        for n in [2, 3, 12, 5040, 2**53 - 1,
                  *(rng.randrange(5, 10**12) for _ in range(20))]:
            for fn in (dedekind_psi, sigma):
                numer = fn(n)
                with mp.workdps(dps + 30):
                    r, llg = mp.mpf(numer) / n, abs(mp.log(mp.log(n)))
                    for c in (0.0, *SIGMA_BOUND_CS):
                        got = mp.mpf(str(criteria._exact_value(n, numer, c,
                                                               dps)))
                        err = abs(got - mp_value(n, numer, c, dps=dps + 30))
                        bound = mp.mpf(10) ** (1 - dps) * (
                            r + 1 + 3 * llg if not c else
                            2 * r + 1 + 4 * llg + (2 + 1 / llg) * abs(c) / llg)
                        assert err <= bound, (n, c)

    @staticmethod
    def bound_at(n, c, dps):
        """The error bound _decided_value states at n, c and dps digits."""
        r, llg = sigma(n) / n, abs(math.log(math.log(n)))
        return 10.0 ** (1 - dps) * (
            2 * r + 1 + 4 * llg + (2 + 1 / llg) * c / llg
            if c else r + 1 + 3 * llg)

    # the criterion value of 31, escalated whatever its float value (with
    # ESCALATION_BAND set to inf), and the sigma margin at its witness 12
    REFUSAL_CASES = ((31, 0.0, lambda: psirh.dedekind_f(31)),
                     (12, DEFAULT_SIGMA_BOUND_C,
                      lambda: check_sigma_upper_bound(3, 1000)))

    def test_a_value_within_the_bound_is_refused(self, monkeypatch, capsys):
        # no real value comes near the bound, so one is injected, on each
        # side of it and of each sign, at every precision: within it, it is
        # retried at 60 and 120 digits and raises at the cap
        monkeypatch.setattr(criteria, "ESCALATION_BAND", math.inf)
        for n, c, run in self.REFUSAL_CASES:
            for scale in (0.0, 0.99, -0.99, 1.01, -1.01):
                calls = []
                monkeypatch.setattr(
                    criteria, "_exact_value", lambda n, numer, c, dps:
                    calls.append(dps) or Decimal(self.bound_at(n, c, dps)
                                                 * scale))
                if abs(scale) > 1:
                    run()  # the sign is trusted
                    assert calls == [30]
                    continue
                with pytest.raises(ResourceLimitError,
                                   match=f"^n={n}: the 120-digit value .* "
                                         f"sign is undecided$"):
                    run()
                assert calls == [30, 60, 120]
                assert criteria.ESCALATION_DPS_CAP == 120
        # through the command line, a resource-limit exit naming n
        monkeypatch.setattr(criteria, "_exact_value",
                            lambda *args: Decimal(0))
        code = psirh.cli.main(["scan", "--criterion", "f", "--hi", "100"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith("psirh: resource limit: n=")

    @pytest.mark.parametrize("decided_at", [60, 120])
    def test_a_value_decided_on_retry_is_trusted(self, monkeypatch,
                                                 decided_at):
        # within the bound at each precision below decided_at (half of it,
        # injected), and at decided_at the real value, or one just past
        # that precision's bound: that value is the one used
        monkeypatch.setattr(criteria, "ESCALATION_BAND", math.inf)
        exact = criteria._exact_value
        for (n, c, run), tight in itertools.product(self.REFUSAL_CASES,
                                                    (False, True)):
            calls = []

            def retried(n, numer, c, dps):
                calls.append(dps)
                if dps < decided_at:
                    return Decimal(self.bound_at(n, c, dps) / 2)
                if tight:
                    return Decimal(self.bound_at(n, c, dps) * 1.01)
                return exact(n, numer, c, dps)

            monkeypatch.setattr(criteria, "_exact_value", retried)
            got = run()
            assert calls == [d for d in (30, 60, 120) if d <= decided_at]
            want = float(retried(n, sigma(n) if c else dedekind_psi(n), c,
                                 decided_at))
            assert (got.value if not c else -got.worst_margin) == want

    @pytest.mark.parametrize("c", SIGMA_BOUND_CS)
    def test_sigma_margin_matches_mpmath(self, c):
        # at every witness the brute force of test_champions can name
        for w in [*range(3, 3000), 5040, 55440, 720720]:
            assert (float(criteria._exact_value(w, sigma(w), c))
                    == float(mp_value(w, sigma(w), c))), w


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

    @pytest.mark.parametrize("band", [1e-9, 0.05, 0.5])
    @pytest.mark.parametrize("kind, end", [(CriterionKind.DEDEKIND_F, 47),
                                           (CriterionKind.ROBIN_G, 5583)])
    def test_candidates_give_the_n_by_n_report(self, monkeypatch, kind, end,
                                               band):
        # whatever the escalation band, _criterion decides just the n of
        # the prefix [2, end) it would escalate or report, and the report
        # is the one deciding every n of it gives
        monkeypatch.setattr(criteria, "ESCALATION_BAND", band)
        every = [criteria._criterion(n, kind) for n in range(2, end)]
        decided = []
        decide = criteria._criterion
        monkeypatch.setattr(criteria, "_criterion", lambda n, k:
                            decided.append(n) or decide(n, k))
        rep = scan_exceptions(kind, 2, 10**4)
        assert decided == [cv.n for cv in every
                           if cv.precision_escalated or cv.value >= 0]
        assert (rep.values, rep.escalations) == (
            tuple(cv for cv in every if cv.value >= 0),
            sum(cv.precision_escalated for cv in every))
        assert rep.escalations > 0 if band > 1e-9 else rep.escalations == 0

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
        # one past the record ceilings, 10^300 for f and 10^30 for g
        with pytest.raises(ResourceLimitError):
            scan_exceptions(CriterionKind.DEDEKIND_F, 2, 10**300 + 2)
        with pytest.raises(ResourceLimitError):
            scan_exceptions(CriterionKind.ROBIN_G, 2, 10**30 + 2)


# the kernel's values, before any test wraps criteria._chunk_values
CHUNK_VALUES = criteria._chunk_values


@functools.cache
def range_values(kind, lo, hi):
    """The float values of every n in [lo, hi) from one kernel call; a
    value does not depend on the chunk it is computed in
    (TestChunkArithmetic)."""
    return CHUNK_VALUES(lo, hi, kind)


class TestSkipRule:
    """Every n the ratio records skip holds no value above
    -_CANDIDATE_BAND, and the report is the one the float values of every
    n give, each candidate decided by _criterion."""

    @staticmethod
    def check(monkeypatch, sieved, kind, lo, hi, size):
        monkeypatch.setattr(criteria, "DEFAULT_CHUNK", size)
        rep = scan_exceptions(kind, lo, hi)
        # one run of consecutive n from lo, from one sieve call at most,
        # whatever the chunk size
        assert len(sieved) <= 1
        walked = [n for a, b in sieved for n in range(a, b)]
        assert walked == list(range(lo, lo + len(walked)))
        skipped = np.ones(hi - lo, dtype=bool)
        skipped[:len(walked)] = False
        assert skipped.any()
        values = range_values(kind, lo, hi)
        assert values[skipped].max() <= -criteria._CANDIDATE_BAND
        found = [criteria._criterion(lo + int(off), kind)
                 for off in np.nonzero(values > -criteria._CANDIDATE_BAND)[0]]
        assert (rep.values, rep.escalations) == (
            tuple(cv for cv in found if cv.value >= 0),
            sum(cv.precision_escalated for cv in found))
        return walked

    @pytest.mark.parametrize("size", [64, 999, 1 << 16])
    @pytest.mark.parametrize("kind, largest", [
        (CriterionKind.DEDEKIND_F, 30), (CriterionKind.ROBIN_G, 5040)])
    def test_skipped_chunks_are_clean(self, monkeypatch, sieved, kind, largest,
                                      size):
        walked = self.check(monkeypatch, sieved, kind, 2, 2 * 10**6, size)
        assert largest in walked

    @pytest.mark.parametrize("kind", CriterionKind)
    def test_seeded_window_below_the_ceiling(self, monkeypatch, sieved, kind):
        rng = np.random.default_rng(25)
        lo = int(rng.integers(10**7, 10**8 - 5 * 10**6))
        self.check(monkeypatch, sieved, kind, lo, lo + 5 * 10**6, 1 << 18)


def walked_n(monkeypatch, kind, lo, hi):
    """The n whose numerators scan_exceptions(kind, lo, hi) takes from
    arith's sieve, in order; each is given the numerator -n, whose value
    -1 - threshold(n) is below -0.3, so no n is a candidate, and no table
    is built."""
    walked = []
    monkeypatch.setattr(criteria, "multiplicative_ints", lambda a, b, s:
                        walked.extend(range(a, b)) or [-n for n in range(a, b)])
    scan_exceptions(kind, lo, hi)
    return walked


class TestRecordWindows:
    """Each ratio record r leaves open the window [r, min(r', x_r)): past
    x_r the exact threshold clears ratio(r) + _CANDIDATE_BAND.  A scan walks
    [lo, X), X the end of the last non-empty window."""

    @pytest.mark.parametrize("kind", CriterionKind)
    def test_loglog_root_above_the_exact_root(self, kind,
                                              shared_superabundant):
        # every record up to the ceiling of champions.ratio_records
        records = champions.ratio_records(kind, {
            CriterionKind.DEDEKIND_F: champions.S_SEQUENCE_CEILING,
            CriterionKind.ROBIN_G: champions.SUPERABUNDANT_CEILING}[kind])
        assert len(records) == {CriterionKind.DEDEKIND_F: 129,
                                CriterionKind.ROBIN_G: 191}[kind]
        with mp.workdps(40):
            for r, numer in records:
                # the level whose root closes the window of r
                level = ((numer / r * (1 + 1e-12) + criteria._CANDIDATE_BAND)
                         / CONSTANTS.e_gamma)
                assert criteria._loglog_root(level) > mp.exp(mp.exp(level)), r

    @pytest.mark.parametrize("kind", CriterionKind)
    def test_windows_to_1e8(self, monkeypatch, kind):
        # each ceil(x_r) below the next record lies no later than where the
        # per-chunk inequality of the walk the windows replaced first held,
        # and the exact threshold there clears the record's ratio by the
        # band; the scan walks [2, X), X the end of the last open window
        records = champions.ratio_records(kind, 10**8 - 1)
        nexts = [n for n, _ in records[1:]] + [10**8]
        windows = []
        for (r, numer), nxt in zip(records, nexts):
            start = max(r, 2)
            ceiling = numer / r * (1 + 1e-12) + criteria._CANDIDATE_BAND
            x_r = math.ceil(criteria._loglog_root(ceiling / CONSTANTS.e_gamma))
            if start < min(nxt, x_r):
                windows.append((start, min(nxt, x_r)))
            if x_r >= nxt:
                continue
            old = start + bisect.bisect_left(
                range(start, nxt), True,
                key=lambda n: ceiling < criteria.threshold(n) * (1 - 1e-12))
            assert x_r <= old, r
            with mp.workdps(30):
                assert (mp_e_gamma() * mp.log(mp.log(x_r))
                        > mp.mpf(numer) / r + criteria._CANDIDATE_BAND), r
        walked = walked_n(monkeypatch, kind, 2, 10**8)
        assert walked == list(range(2, windows[-1][1]))
        assert (len(windows), sum(b - a for a, b in windows), len(walked),
                windows[-1]) == {
            CriterionKind.DEDEKIND_F: (3, 37, 45, (30, 47)),
            CriterionKind.ROBIN_G: (16, 1699, 5581, (5040, 5583))}[kind]

    def test_the_band_keeps_a_near_miss_open(self, monkeypatch):
        # a record whose ratio lies half the band below the exact threshold
        # at m: m could be a candidate, so the walk runs past m
        r, m = 10**7, 10**7 + 1000
        with mp.workdps(30):
            numer = int(mp.floor(r * (mp_e_gamma() * mp.log(mp.log(m))
                                      - criteria._CANDIDATE_BAND / 2)))
        monkeypatch.setattr(champions, "ratio_records",
                            lambda kind, limit: ((r, numer),))
        assert walked_n(monkeypatch, CriterionKind.DEDEKIND_F, r, m + 1) \
            == list(range(r, m + 1))

    @pytest.mark.parametrize("kind, hi, largest", [
        (CriterionKind.DEDEKIND_F, 40, 30), (CriterionKind.ROBIN_G, 5100, 5040)])
    def test_the_walk_ends_at_hi_inside_the_last_window(self, sieved, kind,
                                                        hi, largest):
        # hi lies inside the last window, [30, 47) for f, [5040, 5583) for g
        assert scan_exceptions(kind, 2, hi).largest == largest
        assert sieved == [(2, hi)]


@pytest.fixture
def computed(monkeypatch):
    """The (lo, hi) of each sigma head chunk whose ratios are computed."""
    spans = []
    fn = criteria._chunk_ratios
    monkeypatch.setattr(criteria, "_chunk_ratios", lambda lo, hi, k:
                        spans.append((lo, hi)) or fn(lo, hi, k))
    return spans


class TestSigmaUpperBound:
    def test_empty_head_computes_no_chunk(self, computed):
        # at the default c, n0 = 7 and 12 is superabundant: the head
        # [12, 12) is empty and the superabundant numbers decide the range
        res = check_sigma_upper_bound(12, 100)
        assert (res.passed, res.witness) == (True, 12)
        assert computed == []

    def test_range_past_the_kernel_raises_before_any_chunk(self, computed):
        with pytest.raises(ResourceLimitError, match="ceiling"):
            check_sigma_upper_bound(3, 2**53 + 1)
        assert computed == []

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

    def test_no_superabundant_number_below_n0(self):
        # at c = 2, B falls until n0 = 18: the margin at 6 is no lower
        # bound for [6, 12), and the least margin below 12 lies at 10
        assert criteria._loglog_root(math.sqrt(2.0 / CONSTANTS.e_gamma)) \
            == pytest.approx(17.9, abs=0.1)
        res = check_sigma_upper_bound(3, 12, c=2.0)
        assert res.witness == 10

    @pytest.mark.parametrize("c", [1e6, 1e300])
    def test_n0_past_every_float(self, c):
        assert criteria._loglog_root(math.sqrt(c / CONSTANTS.e_gamma)) \
            == math.inf
        res = check_sigma_upper_bound(3, 100, c=c)
        assert res.passed

    def test_c_near_the_float_maximum_warns_nothing(self):
        # c / log log n is inf for small n; the margin there is inf, quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = check_sigma_upper_bound(3, 1000, 1.7e308)
        assert (res.passed, res.witness, res.worst_margin) == \
            (True, 999, 8.7968957316259156e+307)

    @pytest.mark.parametrize("size", [1, 2, 7, 1 << 18])
    def test_ties_go_to_the_first_n(self, monkeypatch, size):
        # below 13 every margin is inf at this c: the witness is lo
        monkeypatch.setattr(criteria, "DEFAULT_CHUNK", size)
        for lo in (3, 5):
            assert check_sigma_upper_bound(lo, 13, 1.7e308).witness == lo

    def test_stop_keeps_its_slack(self, monkeypatch, computed):
        # On [7, 13) at a c near -0.06 the head is [7, 12), its chunks of 1
        # all bounded with sigma(6)/6, and the margin at 12 is the least.
        # c puts the bound of [8, 9) half the slack above that margin: the
        # chunk is still walked, as a float error that size could hide a
        # margin below the one found.
        monkeypatch.setattr(criteria, "DEFAULT_CHUNK", 1)

        def gap(c):
            """The bound of [8, 9) less the margin at 12."""
            n = np.array([8.0, 12.0])
            bound, at_12 = criteria._sigma_margin(n, np.array([2.0, 28 / 12]), c)
            return bound - at_12

        slope = 1 / math.log(math.log(8)) - 1 / math.log(math.log(12))
        c = -gap(0.0) / slope
        c += (1e-11 * (1 + abs(c)) / 2 - gap(c)) / slope
        assert 0 < gap(c) < 1e-11 * (1 + abs(c))
        assert check_sigma_upper_bound(7, 13, c).witness == 12
        assert computed == [(7, 8), (8, 9)]

    def test_lo_validation(self):
        with pytest.raises(DomainError):
            check_sigma_upper_bound(2, 100)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_c_must_be_finite(self, c):
        with pytest.raises(DomainError, match="finite"):
            check_sigma_upper_bound(3, 100, c=c)


class TestChunkPipeline:
    """The sigma head, the one range walk left, computes each chunk in its
    caller's thread, whatever the worker count: it starts no thread, and a
    kernel's error reaches the caller as it is.  The prime stream, which
    sieves ahead on pool threads, stops them all when closed mid-walk."""

    @pytest.fixture(autouse=True)
    def chunks_of_7(self, monkeypatch):
        monkeypatch.setattr(criteria, "DEFAULT_CHUNK", 7)

    def test_close_mid_walk_stops_every_worker(self, set_workers):
        # 300,000 primes end in the third of three segments: with three
        # workers the first read finds the other two sieving ahead
        set_workers(3)
        assert int(close_mid_stream(300_000, reads=1)[0]) == 2

    def test_worker_error_keeps_its_type(self, monkeypatch, set_workers):
        # at c = 50 the head is all of [3, 1000), and its chunks are walked
        # from the top, where B is least: the third one computed raises
        set_workers(2)

        class Boom(Exception):
            pass

        fn = criteria._chunk_ratios
        callers, seen = set(), []

        def ratios(lo, hi, kind):
            callers.add(threading.get_ident())
            if len(seen) == 2:
                raise Boom(lo)
            seen.append(lo)
            return fn(lo, hi, kind)

        monkeypatch.setattr(criteria, "_chunk_ratios", ratios)
        before = threading.active_count()
        with pytest.raises(Boom, match="^983$"):
            check_sigma_upper_bound(3, 1000, 50.0)
        assert seen == [997, 990]
        assert callers == {threading.get_ident()}
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers, hi", [(1, 1000), (2, 9), (2, 1000),
                                             (3, 1000)])
    def test_serial_walk_starts_no_thread(self, monkeypatch, set_workers,
                                          computed, workers, hi):
        set_workers(workers)
        passed, _ = walk_on_the_callers_thread(
            monkeypatch, lambda: check_sigma_upper_bound(3, hi, 50.0).passed)
        assert passed
        # [3, 9) is one chunk; to 1000 the walk stops after 24 of 142
        assert [lo for lo, _ in computed] == (
            [3] if hi == 9 else list(range(997, 835, -7)))


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
        assert same_bits(criteria._sigma_margin(n, ratios, c),
                         CONSTANTS.e_gamma * llg + c / llg - ratios)
