"""Log-space analysis at primorials: theta ratios, f(N_n), Mertens limit,
successor-ratio deviations, and the explicit bounds for p_n >= 20000.

N_n is never materialized (N_100000 has half a million digits); everything
lives on log N_n = theta(p_n) and R_n = sum log(1 + 1/p_i), both carried as
compensated (hi, lo) pairs along a single ordered prime stream.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from typing import Iterable, Optional, Sequence

import numpy as np

from .criteria import CONSTANTS, BoundCheckResult
from .errors import CacheVersionError, DomainError, ResourceLimitError
from . import prime_engine
from .prime_engine import (PRIME_INDEX_CEILING, ThetaCache, ThetaPoint,
                           cache_load, cache_save, chunk_sum_dd, dd_add,
                           iter_prime_chunks, nth_prime,
                           _nth_prime_value_bound)

BOUND_PRIME_THRESHOLD = 20000
F_BOUND_SLOPE = -0.698
F_BOUND_OFFSET = 0.220
LOGLOG_BOUND_OFFSET = 0.123

TABLE1_DEFAULT_INDICES = (10, 10**3, 10**5, 10**7)
TABLE2_DEFAULT_INDICES = (3, 10, 10**2, 10**3, 10**4, 10**5)

# Decimal places of the published table cells, per index:
# (theta ratio, f-tilde successor ratio, k ratio).
_TABLE1_DECIMALS = {10: (3, 3, 3), 10**3: (3, 7, 5),
                    10**5: (5, 11, 6), 10**7: (6, 14, 7)}
_TABLE2_DECIMALS = 2


def _dd_log(hi: float, lo: float) -> float:
    return math.log(hi) + math.log1p(lo / hi)


def _dd_exp(hi: float, lo: float) -> float:
    return math.exp(hi) * (1.0 + lo)


@dataclass(frozen=True)
class PrimorialStats:
    index: int
    prime: int
    theta_hi: float
    theta_lo: float
    psi_ratio_log_hi: float
    psi_ratio_log_lo: float

    @property
    def theta(self) -> float:
        """log N_n."""
        return self.theta_hi + self.theta_lo

    @property
    def psi_ratio_log(self) -> float:
        """R_n = log(psi(N_n)/N_n)."""
        return self.psi_ratio_log_hi + self.psi_ratio_log_lo

    @property
    def loglogN(self) -> float:
        return _dd_log(self.theta_hi, self.theta_lo)

    @property
    def psi_over_n(self) -> float:
        return _dd_exp(self.psi_ratio_log_hi, self.psi_ratio_log_lo)

    @property
    def f_value(self) -> float:
        # squarefree primorial, so this is also g(N_n)
        return self.psi_over_n - CONSTANTS.e_gamma * self.loglogN

    @property
    def mertens_ratio(self) -> float:
        return self.psi_over_n / math.log(self.prime)

    def theta_point(self) -> ThetaPoint:
        return ThetaPoint(index=self.index, prime=self.prime,
                          theta_hi=self.theta_hi, theta_lo=self.theta_lo)


@dataclass
class FullScanResult:
    n_max: int
    stats: list[PrimorialStats]
    theta_monotonic: bool
    theta_below_prime: bool
    first_theta_violation: Optional[int]
    loglog_bound: Optional[BoundCheckResult]
    f_bound: Optional[BoundCheckResult]


def full_scan(n_max: int, report_indices: Iterable[int] = (),
              bounds_first: Optional[int] = None) -> FullScanResult:
    """Single ordered pass over the first n_max primes.

    Emits PrimorialStats at each requested index, verifies theta monotonicity
    and theta(p_n) < p_n per element, and, unless bounds_first is None,
    tracks the worst margins of the two explicit bounds over the indices
    [bounds_first, n_max] (check_primorial_bounds validates that range).
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if n_max > PRIME_INDEX_CEILING:
        raise ResourceLimitError(
            f"n_max={n_max} exceeds configured index ceiling {PRIME_INDEX_CEILING}")
    checkpoints = sorted({i for i in report_indices if 1 <= i <= n_max})

    theta_hi, theta_lo = 0.0, 0.0
    r_hi, r_lo = 0.0, 0.0
    count = 0
    ci = 0
    stats: list[PrimorialStats] = []
    monotonic = True
    below_prime = True
    first_violation: Optional[int] = None
    worst_m1 = math.inf
    worst_m1_witness = 0
    worst_m2 = math.inf
    worst_m2_witness = 0

    bound = min(_nth_prime_value_bound(n_max), prime_engine.PRIME_VALUE_CEILING)
    for chunk in iter_prime_chunks(bound):
        if count >= n_max:
            break
        if count + len(chunk) > n_max:
            chunk = chunk[: n_max - count]
        pf = chunk.astype(np.float64)
        logs = np.log(pf)
        rl = np.log1p(1.0 / pf)

        theta_cum = (theta_hi + theta_lo) + np.cumsum(logs)
        if below_prime:
            bad = np.nonzero(theta_cum >= pf)[0]
            if bad.size:
                below_prime = False
                first_violation = count + int(bad[0]) + 1
        if monotonic and np.any(np.diff(theta_cum) <= 0):
            monotonic = False

        if bounds_first is not None and count + len(chunk) >= bounds_first:
            start = max(bounds_first - count - 1, 0)
            r_cum = (r_hi + r_lo) + np.cumsum(rl)
            logp = logs[start:]
            llgN = np.log(theta_cum[start:])
            m1 = llgN - (logp - LOGLOG_BOUND_OFFSET / logp)
            f = np.exp(r_cum[start:]) - CONSTANTS.e_gamma * llgN
            m2 = (F_BOUND_SLOPE * logp + F_BOUND_OFFSET / logp) - f
            i1 = int(np.argmin(m1))
            if m1[i1] < worst_m1:
                worst_m1 = float(m1[i1])
                worst_m1_witness = count + start + i1 + 1
            i2 = int(np.argmin(m2))
            if m2[i2] < worst_m2:
                worst_m2 = float(m2[i2])
                worst_m2_witness = count + start + i2 + 1

        pos = 0
        while ci < len(checkpoints) and checkpoints[ci] <= count + len(chunk):
            cut = checkpoints[ci] - count
            h, l = chunk_sum_dd(logs[pos:cut])
            theta_hi, theta_lo = dd_add(theta_hi, theta_lo, h, l)
            h, l = chunk_sum_dd(rl[pos:cut])
            r_hi, r_lo = dd_add(r_hi, r_lo, h, l)
            stats.append(PrimorialStats(index=checkpoints[ci],
                                        prime=int(chunk[cut - 1]),
                                        theta_hi=theta_hi, theta_lo=theta_lo,
                                        psi_ratio_log_hi=r_hi,
                                        psi_ratio_log_lo=r_lo))
            pos = cut
            ci += 1
        if pos < len(logs):
            h, l = chunk_sum_dd(logs[pos:])
            theta_hi, theta_lo = dd_add(theta_hi, theta_lo, h, l)
            h, l = chunk_sum_dd(rl[pos:])
            r_hi, r_lo = dd_add(r_hi, r_lo, h, l)
        count += len(chunk)

    loglog_bound = None
    f_bound = None
    if bounds_first is not None and count >= bounds_first:
        loglog_bound = BoundCheckResult(
            bound="loglogN_lower", first=bounds_first, last=count,
            passed=worst_m1 > 0, worst_margin=worst_m1,
            witness=worst_m1_witness)
        f_bound = BoundCheckResult(
            bound="f_primorial_upper", first=bounds_first, last=count,
            passed=worst_m2 > 0, worst_margin=worst_m2,
            witness=worst_m2_witness)
    return FullScanResult(n_max=count, stats=stats, theta_monotonic=monotonic,
                          theta_below_prime=below_prime,
                          first_theta_violation=first_violation,
                          loglog_bound=loglog_bound, f_bound=f_bound)


def mertens_ratio(n: int, stats: Optional[PrimorialStats] = None) -> float:
    """exp(R_n) / log p_n, tending to e^gamma / zeta(2)."""
    if n < 2:
        raise DomainError("mertens ratio defined for n >= 2")
    if stats is None:
        stats = full_scan(n, [n]).stats[0]
    return stats.mertens_ratio


def ftilde_ratio_deviation(n: int,
                           theta_n: Optional[ThetaPoint] = None,
                           p_next: Optional[int] = None) -> float:
    """delta such that ftilde(N_{n+1})/ftilde(N_n) = 1 + delta.

    Computed in deviation form: with L = log theta(p_n), a = 1/p_{n+1} and
    D = log1p(log p_{n+1} / theta(p_n)),  delta = (a*L - D) / (L + D).
    Never formed as a quotient of two near-equal values, so the deviation
    keeps full relative precision down to 1e-14.
    """
    if n < 2:
        raise DomainError("deviation defined for n >= 2 (needs log log N_n > 0)")
    if n + 1 > PRIME_INDEX_CEILING:
        raise ResourceLimitError(f"n+1={n + 1} exceeds index ceiling")
    if theta_n is None or p_next is None:
        sts = full_scan(n + 1, [n, n + 1]).stats
        theta_n = sts[0].theta_point()
        p_next = sts[1].prime
    theta = theta_n.theta_hi + theta_n.theta_lo
    big_l = _dd_log(theta_n.theta_hi, theta_n.theta_lo)
    a = 1.0 / p_next
    d = math.log1p(math.log(p_next) / theta)
    return (a * big_l - d) / (big_l + d)


def k_ratio(n: int, p_n: Optional[int] = None,
            p_next: Optional[int] = None) -> float:
    """k_n log k_n / (p_{n+1} log p_{n+1}) with k_n = p_n + sqrt(p_n)/2 * logloglog p_n."""
    if n < 7:
        raise DomainError("k ratio needs p_n > e^e, i.e. n >= 7")
    if p_n is None:
        p_n = nth_prime(n)
    if p_next is None:
        p_next = nth_prime(n + 1)
    log3 = math.log(math.log(math.log(p_n)))
    k = p_n + 0.5 * math.sqrt(p_n) * log3
    return k * math.log(k) / (p_next * math.log(p_next))


def check_primorial_bounds(
        last: int, first: Optional[int] = None
) -> tuple[BoundCheckResult, BoundCheckResult]:
    """Both explicit bounds over the indices [first, last], from one pass:
    log log N_n > log p_n - 0.123/log p_n and
    f(N_n) < -0.698 log p_n + 0.220/log p_n.

    They are claimed only for p_n >= 20000; first defaults to the first such
    index, and a range that starts below it or is empty is rejected.
    """
    if first is None:
        # one more than the number of primes below the threshold
        first = 1 + sum(len(chunk) for chunk in
                        iter_prime_chunks(BOUND_PRIME_THRESHOLD))
    if last < first:
        raise DomainError(f"empty index range [{first}, {last}]")
    if last > PRIME_INDEX_CEILING:
        raise ResourceLimitError(f"last={last} exceeds index ceiling")
    p_first = nth_prime(first)
    if p_first < BOUND_PRIME_THRESHOLD:
        raise DomainError(
            f"bound is only claimed for p_n >= {BOUND_PRIME_THRESHOLD}; "
            f"p_{first} = {p_first}")
    res = full_scan(last, bounds_first=first)
    return res.loglog_bound, res.f_bound


def f_bound_rhs(p: float) -> float:
    """Right side of the f(N_n) bound at prime size p (about -6.89 at 20000)."""
    logp = math.log(p)
    return F_BOUND_SLOPE * logp + F_BOUND_OFFSET / logp


def f_bound_slope_from_constants() -> float:
    """e^gamma (1/zeta(2) - 1), about -0.698."""
    return CONSTANTS.e_gamma * (1.0 / CONSTANTS.zeta2 - 1.0)


# ---------------------------------------------------------------------------
# tables

def round_half_even(x: float, decimals: int) -> str:
    q = Decimal(1).scaleb(-decimals)
    return str(Decimal(repr(float(x))).quantize(q, rounding=ROUND_HALF_EVEN))


def _theta_points_for(indices: Sequence[int],
                      cache_path=None) -> dict[int, ThetaPoint]:
    """Theta points at the given indices, served from the on-disk cache when
    it already covers them, re-sieving (and refreshing the cache) otherwise.
    A cache in another format version counts as a miss and is rewritten; a
    corrupt one raises CacheParseError."""
    need = sorted(set(indices))
    cached = {}
    if cache_path is not None and os.path.exists(cache_path):
        try:
            cached = cache_load(cache_path).by_index()
        except CacheVersionError:
            pass  # another format version: rebuild the file
        if all(i in cached for i in need):
            return {i: cached[i] for i in need}
    points = {s.index: s.theta_point()
              for s in full_scan(max(need), need).stats}
    if cache_path is not None:
        merged = dict(cached)
        merged.update(points)
        cache_save(ThetaCache(points=sorted(merged.values(),
                                            key=lambda p: p.index)),
                   cache_path)
    return points


def table1(indices: Sequence[int] = TABLE1_DEFAULT_INDICES,
           cache_path=None, digits: int = 6) -> list[dict]:
    """Rows of the theta-ratio / successor-ratio / k-ratio table."""
    need = sorted({i for i in indices} | {i + 1 for i in indices})
    if max(need) > PRIME_INDEX_CEILING:
        raise ResourceLimitError(f"index {max(need)} exceeds ceiling")
    if min(indices) < 7:
        raise DomainError("table indices must be >= 7 (k ratio domain)")
    pts = _theta_points_for(need, cache_path)
    rows = []
    for n in indices:
        pt, pt_next = pts[n], pts[n + 1]
        theta_ratio = (pt.theta_hi + pt.theta_lo) / pt.prime
        ftilde = 1.0 + ftilde_ratio_deviation(n, theta_n=pt, p_next=pt_next.prime)
        kr = k_ratio(n, p_n=pt.prime, p_next=pt_next.prime)
        d1, d2, d3 = _TABLE1_DECIMALS.get(n, (digits, digits, digits))
        rows.append({
            "n": n,
            "p_n": pt.prime,
            "theta_ratio": theta_ratio,
            "theta_ratio_printed": round_half_even(theta_ratio, d1),
            "ftilde_ratio": ftilde,
            "ftilde_ratio_printed": round_half_even(ftilde, d2),
            "k_ratio": kr,
            "k_ratio_printed": round_half_even(kr, d3),
        })
    return rows


def table2(indices: Sequence[int] = TABLE2_DEFAULT_INDICES,
           digits: int = _TABLE2_DECIMALS) -> list[dict]:
    """Rows of f(N_n) = g(N_n) versus the number of primes in the primorial."""
    need = sorted(set(indices))
    if max(need) > PRIME_INDEX_CEILING:
        raise ResourceLimitError(f"index {max(need)} exceeds ceiling")
    if min(need) < 2:
        raise DomainError("table indices must be >= 2")
    stats = {s.index: s for s in full_scan(max(need), need).stats}
    rows = []
    for n in indices:
        s = stats[n]
        rows.append({
            "n": n,
            "p_n": s.prime,
            "f_value": s.f_value,
            "f_value_printed": round_half_even(s.f_value, digits),
            "psi_over_n": s.psi_over_n,
            "loglogN": s.loglogN,
        })
    return rows
