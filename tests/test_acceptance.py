"""End-to-end acceptance gate.

One test per acceptance criterion; each prints a single PASS/FAIL line on the
real terminal (bypassing capture) before asserting, so a full run always shows
the ten-line scorecard.
"""

import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

import psirh
from psirh import criteria
from psirh.criteria import CONSTANTS, CriterionKind, check_sigma_upper_bound
from psirh.prime_engine import cache_save
from psirh.primorial import f_bound_rhs, f_bound_slope_from_constants
from psirh.report import RenderedReport

from oracles import record_reference

SET_B = (2, 3, 4, 5, 6, 8, 10, 12, 18, 30)
SET_A = (2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 20, 24, 30, 36, 48, 60, 72, 84,
         120, 180, 240, 360, 720, 840, 2520, 5040)
S_LISTING = (2, 4, 6, 12, 18, 24, 30, 60, 90, 120, 150, 180, 210, 420, 630,
             840, 1050, 1260, 1470, 1680, 1890, 2100, 2310, 4620, 6930, 9240)

# printed table-of-ratios targets: index -> (value, decimals) per row
TABLE1_TARGETS = {
    10: (("0.779", 3), ("0.987", 3), ("0.938", 3)),
    10**3: (("0.986", 3), ("0.9999980", 7), ("1.00378", 5)),
    10**5: (("0.99905", 5), ("0.99999999921", 11), ("1.000447", 6)),
    10**7: (("0.999958", 6), ("0.99999999999975", 14), ("1.0000423", 7)),
}
TABLE2_TARGETS = {3: 0.22, 10: -1.67, 100: -4.24, 1000: -6.23,
                  10**4: -8.06, 10**5: -9.83}

THETA_1E4 = "104392.2020158497838342601966716164077742"


@pytest.fixture
def announce(capsys):
    def _announce(num, label, ok):
        with capsys.disabled():
            print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}")
    return _announce


def test_01_exception_set_b(announce):
    t0 = time.perf_counter()
    rep = psirh.scan_exceptions(CriterionKind.DEDEKIND_F, 2, 10**6)
    elapsed = time.perf_counter() - t0
    ok = rep.exceptions == SET_B and elapsed <= 60
    announce(1, "f-criterion exceptions on [2, 10^6)", ok)
    assert rep.exceptions == SET_B
    assert rep.largest == 30
    assert elapsed <= 60, f"scan took {elapsed:.1f}s"


def test_02_exception_set_a(announce):
    t0 = time.perf_counter()
    rep = psirh.scan_exceptions(CriterionKind.ROBIN_G, 2, 10**5)
    elapsed = time.perf_counter() - t0
    ok = rep.exceptions == SET_A and elapsed <= 10
    announce(2, "g-criterion exceptions on [2, 10^5)", ok)
    assert len(SET_A) == 27
    assert rep.exceptions == SET_A
    assert rep.largest == 5040
    assert elapsed <= 10, f"scan took {elapsed:.1f}s"


def test_03_s_sequence(announce):
    structural = [c.value for c in psirh.generate_s_sequence(10**5)]
    brute = record_reference(psirh.arith.psi_table(10**5), 2, keep_ties=True)
    listing_ok = (tuple(structural[:26]) == S_LISTING
                  and [c.value for c in psirh.generate_s_sequence(10**4)]
                  == list(S_LISTING))
    ok = listing_ok and structural == brute
    announce(3, "psi-champion sequence matches listing and brute force", ok)
    assert tuple(structural[:26]) == S_LISTING
    assert structural == brute


def test_04_f_primorial_table(announce):
    t0 = time.perf_counter()
    rows = psirh.table2(sorted(TABLE2_TARGETS))
    elapsed = time.perf_counter() - t0
    deltas = {r["n"]: abs(r["f_value"] - TABLE2_TARGETS[r["n"]]) for r in rows}
    ok = max(deltas.values()) <= 0.01 and elapsed <= 5
    announce(4, "f(N_n) checkpoints within +/-0.01", ok)
    for n, d in deltas.items():
        assert d <= 0.01, f"f(N_{n}) off by {d:.4f}"
    assert elapsed <= 5, f"table took {elapsed:.1f}s"


def test_05_ratio_table(announce, full_scan_result, full_scan_elapsed,
                        tmp_path):
    cache = tmp_path / "theta.cache"
    # each PrimorialStats is a ThetaPoint
    cache_save(full_scan_result, cache)
    t0 = time.perf_counter()
    rows = psirh.table1(sorted(TABLE1_TARGETS), cache_path=cache)
    warm_elapsed = time.perf_counter() - t0

    failures = []
    for row in rows:
        targets = TABLE1_TARGETS[row["n"]]
        values = (row["theta_ratio"], row["ftilde_ratio"], row["k_ratio"])
        for (printed, decimals), got in zip(targets, values):
            if abs(got - float(printed)) > 10.0**-decimals:
                failures.append((row["n"], printed, got))
    ftilde_1e7 = next(r["ftilde_ratio"] for r in rows if r["n"] == 10**7)
    tight = abs(ftilde_1e7 - 0.99999999999975) <= 5e-14
    ok = (not failures and tight
          and full_scan_elapsed <= 300 and warm_elapsed <= 10)
    announce(5, "theta/successor/k ratio table to printed precision", ok)
    assert not failures, failures
    assert tight, f"ftilde(1e7) = {ftilde_1e7!r}"
    assert full_scan_elapsed <= 300, \
        f"cold pass took {full_scan_elapsed:.0f}s"
    assert warm_elapsed <= 10, f"warm table took {warm_elapsed:.1f}s"


def test_06_primorial_bounds(announce, bounds_result):
    lb, fb = bounds_result
    rhs = f_bound_rhs(20000)
    slope = f_bound_slope_from_constants()
    ok = (lb.passed and fb.passed
          and abs(rhs - (-6.89)) <= 0.01 and abs(slope - (-0.698)) <= 0.001)
    announce(6, "loglog and f(N_n) bounds over p_n in [20000, p_1e7]", ok)
    assert lb.passed, lb
    assert fb.passed, fb
    assert abs(rhs - (-6.89)) <= 0.01, rhs
    assert abs(slope - (-0.698)) <= 0.001, slope


def test_07_sigma_upper_bound(announce):
    good = check_sigma_upper_bound(3, 10**6, c=0.6483)
    bad = check_sigma_upper_bound(3, 10**6, c=0.6482)
    ok = (good.passed and good.witness == 12
          and not bad.passed and bad.witness == 12)
    announce(7, "sigma bound holds at c=0.6483, fails at c=0.6482 (n=12)", ok)
    assert good.passed and good.witness == 12, good
    assert not bad.passed and bad.witness == 12, bad


def test_08_propositions(announce):
    p1 = psirh.verify_prop1(10**6)
    p2 = psirh.verify_prop2(10**4)
    ident = psirh.psi_multiple_identity_check(14)
    ok = all(not chk.failures and chk.cases_checked > 0
             for chk in (p1, p2, ident))
    announce(8, "structural propositions with zero failures", ok)
    for chk in (p1, p2, ident):
        assert chk.failures == (), chk
        assert chk.cases_checked > 0


def _scan_report_csv(monkeypatch, chunk_size):
    monkeypatch.setattr(criteria, "DEFAULT_CHUNK", chunk_size)
    rep = psirh.scan_exceptions(CriterionKind.ROBIN_G, 2, 10**5)
    rows = [{"n": cv.n, "value": cv.value} for cv in rep.values]
    return RenderedReport(command="scan", parameters={"chunk": "varied"},
                          columns=["n", "value"], rows=rows).to_csv()


def test_09_property_suites(announce, full_scan_result, monkeypatch):
    rng = random.Random(20260823)
    mult_ok = True
    for _ in range(10**4):
        m, n = rng.randint(2, 10**5), rng.randint(2, 10**5)
        if math.gcd(m, n) != 1:
            continue
        for fn in (psirh.dedekind_psi, psirh.sigma, psirh.num_divisors):
            if fn(m * n) != fn(m) * fn(n):
                mult_ok = False

    from psirh.arith import psi_table, sigma_table
    psi = psi_table(10**5)
    sig = sigma_table(10**5)
    dominance_ok = all(psi[n] <= sig[n]
                       and (psi[n] == sig[n]) == psirh.is_squarefree(n)
                       for n in range(1, 10**5 + 1))

    fg_ok = True
    for n in range(2, 10**5 + 1):
        if psirh.is_squarefree(n):
            if abs(psirh.dedekind_f(n).value - psirh.robin_g(n).value) > 1e-10:
                fg_ok = False
                break

    # the fixture's pass raises at a chunk where theta(p_n) >= p_n or
    # theta does not rise, so a pass that reached its last index passed
    theta_ok = 10**7 + 1 in full_scan_result

    s = full_scan_result[10**4]
    with mp.workdps(50):
        rel = abs((mp.mpf(s.theta_hi) + mp.mpf(s.theta_lo)) / mp.mpf(THETA_1E4) - 1)
    theta_oracle_ok = rel < 1e-15

    psi_log_ok = True
    for st in psirh.full_scan(14, range(2, 15)).values():
        n_k = _primorial(st.index)
        exact = Fraction(psirh.dedekind_psi(n_k), n_k)
        if abs(st.psi_over_n / float(exact) - 1) > 1e-14:
            psi_log_ok = False

    csvs = {_scan_report_csv(monkeypatch, cs) for cs in (999, 4096, 1 << 20)}
    determinism_ok = len(csvs) == 1

    ok = (mult_ok and dominance_ok and fg_ok and theta_ok
          and theta_oracle_ok and psi_log_ok and determinism_ok)
    announce(9, "invariant property suites", ok)
    assert mult_ok, "multiplicativity failed"
    assert dominance_ok, "psi <= sigma / squarefree equality failed"
    assert fg_ok, "f != g on a squarefree n"
    assert theta_ok, "theta(p_n) < p_n or monotonicity violated"
    assert theta_oracle_ok, f"theta(p_1e4) rel err {float(rel):.2e}"
    assert psi_log_ok, "log-space psi(N_n)/N_n drifted from exact"
    assert determinism_ok, "scan report depends on chunk size"


def _primorial(k):
    from psirh.champions import first_primes
    return math.prod(first_primes(k))


def test_10_mertens_convergence(announce, full_scan_result):
    limit = CONSTANTS.e_gamma_over_zeta2
    devs = [abs(full_scan_result[10**k].mertens_ratio - limit)
            for k in range(1, 8)]
    decreasing = all(a > b for a, b in zip(devs, devs[1:]))
    ok = decreasing and devs[-1] < 0.01
    announce(10, "Mertens-ratio convergence over decade indices", ok)
    assert decreasing, devs
    assert devs[-1] < 0.01, devs[-1]
