"""Brute-force oracles shared by the test modules."""

import math

import mpmath as mp
import numpy as np

from psirh import arith, champions, criteria, primorial
from psirh.arith import dedekind_psi
from psirh.criteria import CONSTANTS, CriterionKind, Decision

# the default c (n0 = 7), the paper's, two with n0 = 3, n0 = 18 and 209,
# n0 near e^200 and n0 past every float
SIGMA_BOUND_CS = (0.6483, 0.6482, 0.0, -1.0, 2.0, 5.0, 50.0, 1e6)


def mp_e_gamma():
    """e^gamma at mpmath's working precision."""
    return mp.exp(mp.euler)


def mp_value(n, numer, c=0.0, dps=30):
    """numer/n - e^gamma L - c / L, L = log log n, at dps digits in mpmath:
    the oracle of criteria._exact_value (c = 0), and with c the negated
    sigma-bound margin, from no psirh arithmetic."""
    with mp.workdps(dps):
        llg = mp.log(mp.log(n))
        return mp.mpf(numer) / n - mp_e_gamma() * llg - mp.mpf(c) / llg


def bounds_reference(last, first):
    """Both primorial bounds over [first, last] with their margins computed
    at every index of primorial._pass, read at call time with the module's
    constants: the oracle of primorial.check_primorial_bounds, which skips
    runs that cannot hold a least margin."""
    def lower(worst, margins, at):  # the first least margin, if lower
        i = int(margins.argmin())
        return (float(margins[i]), at + i) if margins[i] < worst[0] else worst

    worst_m1 = worst_m2 = (math.inf, 0)
    for c_first, pf, logs, _, _, theta_cum, r_cum, _ in primorial._pass(last):
        start = max(first - c_first, 0)
        if start >= len(pf):
            continue
        logp, llgn = logs[start:], theta_cum[start:]
        f, m = r_cum[start:], pf[start:]
        np.log(llgn, out=llgn)
        np.divide(primorial.LOGLOG_BOUND_OFFSET, logp, out=m)
        np.subtract(logp, m, out=m)
        np.subtract(llgn, m, out=m)
        worst_m1 = lower(worst_m1, m, c_first + start)
        np.exp(f, out=f)
        llgn *= CONSTANTS.e_gamma
        f -= llgn
        np.multiply(logp, primorial.F_BOUND_SLOPE, out=m)
        np.divide(primorial.F_BOUND_OFFSET, logp, out=llgn)
        m += llgn
        m -= f
        worst_m2 = lower(worst_m2, m, c_first + start)
    return tuple(Decision(name, first, last, margin > 0, worst_margin=margin,
                          witness=witness)
                 for name, (margin, witness) in (("loglogN_lower", worst_m1),
                                                 ("f_primorial_upper", worst_m2)))


def pattern_reference(want_sigma):
    """arith._pattern by six gcd passes over the whole period: part[r] =
    gcd(r, _PERIOD), and the exponent of each pattern prime p in it from
    gcd(part, p^cap)."""
    part = np.gcd(np.arange(arith._PERIOD, dtype=np.int64), arith._PERIOD)
    values = np.ones(arith._PERIOD, dtype=np.int64)
    for p, cap in arith._PATTERN.items():
        pe = np.gcd(part, p**cap)  # p^e, e the exponent of p in part
        values *= (pe * p - 1) // (p - 1) if want_sigma else pe + pe // p
    return values, part


def record_reference(table, start, keep_ties):
    """The whole-table exact record loop: every n >= start whose table[n]/n
    beats (or, when keep_ties, equals) the best ratio at start <= m < n, by
    exact cross-multiplication.  With a psi table, start 2 and ties kept,
    these are the psi-champions S; with a sigma table, start 1 and no ties,
    the superabundant numbers."""
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


def sieve_reference(limit):
    """The primes <= limit as an int64 array, by one byte-per-integer sieve
    of Eratosthenes over [0, limit]: the reference for the segmented sieve
    and the shared prime list it grows."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def f_at_least(m, ref):
    """f(m) >= f(ref), decided on the 30-digit mpmath values (an exact mpf
    comparison), so a tie counts against m."""
    return (mp_value(m, dedekind_psi(m))
            >= mp_value(ref, dedekind_psi(ref)))


def prop1_walk(limit):
    """Proposition 1 checked case by case, (cases_checked, failures): each
    f(l N_k) against f(N_k), a float value below f(N_k) - _CANDIDATE_BAND
    trusted and every other decided by f_at_least."""
    cases = 0
    failures = []
    for k, _, prim, p_next in champions._primorials(limit):
        band_floor = criteria.dedekind_f(prim).value - criteria._CANDIDATE_BAND
        for l in range(2, p_next):
            value = l * prim
            if value >= min(prim * p_next, limit):
                break
            cases += 1
            if (criteria.dedekind_f(value).value > band_floor
                    and f_at_least(value, prim)):
                failures.append((k, l))
    return cases, tuple(failures)


def prop2_walk(limit):
    """Proposition 2 checked m by m, the numeric check of the lemma behind
    it and so of the kernel: (cases_checked, failures), each failure
    (k, l, m).  The m of one k fill the window N_k < m < L*N_k, multiples of
    N_k excluded, counted as they are walked; the window is cut into
    chunks of criteria.DEFAULT_CHUNK, walked one at a time, its float
    values come from the bulk kernel (criteria._chunk_values), and every
    value above f(N_k) - _CANDIDATE_BAND is decided by f_at_least."""
    cases = 0
    failures = []
    for k, _, prim, p_next in champions._primorials(limit):
        big_l = (min(prim * p_next, limit) - 1) // prim
        band_floor = criteria.dedekind_f(prim).value - criteria._CANDIDATE_BAND
        end = big_l * prim
        for c_lo in range(prim + 1, end, criteria.DEFAULT_CHUNK):
            values = criteria._chunk_values(
                c_lo, min(c_lo + criteria.DEFAULT_CHUNK, end),
                CriterionKind.DEDEKIND_F)
            multiples = values[-c_lo % prim::prim]
            cases += len(values) - len(multiples)
            multiples[:] = -np.inf
            for off in np.nonzero(values > band_floor)[0]:
                m = c_lo + int(off)
                if f_at_least(m, prim):
                    failures.append((k, m // prim, m))
    return cases, tuple(failures)
