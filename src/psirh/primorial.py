"""Log-space analysis at primorials: theta ratios, f(N_n), Mertens limit,
successor-ratio deviations, and the explicit bounds for p_n >= 20000.

N_n is never materialized (N_100000 has half a million digits); everything
lives on log N_n = theta(p_n) and R_n = sum log(1 + 1/p_i), both carried as
compensated (hi, lo) pairs along a single ordered prime stream.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Iterator, Sequence

from .constants import CONSTANTS, BoundCheckResult, Record
from .errors import CacheVersionError, DomainError, ResourceLimitError
from . import prime_engine
from .prime_engine import (PRIME_INDEX_CEILING, ThetaCache, ThetaPoint,
                           cache_load, cache_save, chunk_sum_dd, dd_add,
                           iter_prime_chunks, _nth_prime_value_bound)
from .prime_engine import nth_prime  # noqa: F401 (wrapped by perfbench/spans.py)

# numpy is imported by _pass and check_primorial_bounds, which make arrays.

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
_TABLE1_OTHER_DECIMALS = (6, 6, 6)  # at any other index
_TABLE2_DECIMALS = 2


def _dd_log(hi: float, lo: float) -> float:
    return math.log(hi) + math.log1p(lo / hi)


def _dd_exp(hi: float, lo: float) -> float:
    return math.exp(hi) * (1.0 + lo)


class PrimorialStats(ThetaPoint):
    """The checkpoint at N_n: theta(p_n) = log N_n, and R_n =
    log(psi(N_n)/N_n), each as a (hi, lo) pair."""
    __slots__ = {"psi_ratio_log_hi": "float", "psi_ratio_log_lo": "float"}

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
        """exp(R_n) / log p_n, tending to e^gamma / zeta(2)."""
        return self.psi_over_n / math.log(self.prime)


class FullScanResult(Record):
    __slots__ = {"n_max": "int", "stats": "list[PrimorialStats]",
                 "theta_monotonic": "bool", "theta_below_prime": "bool",
                 "first_theta_violation": "int | None"}


def _lower(worst: tuple[float, int], margins, first: int) -> tuple[float, int]:
    """worst, or (margin, index) of the first least margin if lower;
    margins[i] belongs to index first + i."""
    i = int(margins.argmin())
    return (float(margins[i]), first + i) if margins[i] < worst[0] else worst


def check_n_max(n_max: int) -> None:
    """Reject an n_max that full_scan would reject, before any pass runs."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if n_max > PRIME_INDEX_CEILING:
        raise ResourceLimitError(
            f"n_max={n_max} exceeds configured index ceiling {PRIME_INDEX_CEILING}")


def _pass(n_max: int, cuts: Sequence[int] = ()) -> Iterator[tuple]:
    """The one ordered pass over the first n_max primes, a chunk at a time:
    yields (first, primes, logs, rl, theta_start, theta_cum, r_start, stats),
    the chunk's first index, its primes, log p and log1p(1/p) as floats,
    theta before the chunk and its prefix sums on it, R before the chunk,
    and the PrimorialStats at the sorted cuts in it.  The (hi, lo) theta and
    R lanes add each chunk exactly, split at the cuts; nothing else sums
    them.  The arrays are rows of one buffer that the next chunk overwrites:
    fresh ones, still held by the caller, cost bounds 2.5x the page faults.
    """
    import numpy as np
    theta_hi = theta_lo = r_hi = r_lo = 0.0
    count = ci = 0
    bound = min(_nth_prime_value_bound(n_max), prime_engine.PRIME_VALUE_CEILING)
    buf = np.empty((4, 0))
    for chunk in iter_prime_chunks(bound):
        if count >= n_max:
            break
        chunk = chunk[: n_max - count]
        if buf.shape[1] < len(chunk):
            buf = np.empty((4, len(chunk)))
        pf, logs, rl, theta_cum = buf[:, :len(chunk)]
        pf[:] = chunk
        np.log(pf, out=logs)
        np.divide(1.0, pf, out=rl)
        np.log1p(rl, out=rl)
        theta_start, r_start = theta_hi + theta_lo, r_hi + r_lo
        np.cumsum(logs, out=theta_cum)
        theta_cum += theta_start
        stats = []
        pos = 0
        while pos < len(chunk):  # up to the next cut or the chunk's end
            at_cut = ci < len(cuts) and cuts[ci] <= count + len(chunk)
            end = cuts[ci] - count if at_cut else len(chunk)
            h, l = chunk_sum_dd(logs[pos:end])
            theta_hi, theta_lo = dd_add(theta_hi, theta_lo, h, l)
            h, l = chunk_sum_dd(rl[pos:end])
            r_hi, r_lo = dd_add(r_hi, r_lo, h, l)
            if at_cut:
                stats.append(PrimorialStats(cuts[ci], int(chunk[end - 1]),
                                            theta_hi, theta_lo, r_hi, r_lo))
                ci += 1
            pos = end
        yield count + 1, pf, logs, rl, theta_start, theta_cum, r_start, stats
        count += len(chunk)


def full_scan(n_max: int, report_indices: Iterable[int] = ()) -> FullScanResult:
    """PrimorialStats at each requested index, from one pass (_pass) over
    the first n_max primes that also checks theta rises at every prime
    (across chunk joins too) and stays below it."""
    check_n_max(n_max)
    cuts = sorted({i for i in report_indices if 1 <= i <= n_max})
    stats: list[PrimorialStats] = []
    count = 0
    monotonic = below_prime = True
    first_violation: int | None = None
    last_theta = -math.inf  # the previous chunk's last float theta
    for first, pf, _, _, theta_start, theta_cum, _, at_cuts in _pass(n_max, cuts):
        stats += at_cuts
        count = first + len(pf) - 1
        if below_prime:
            bad = (theta_cum >= pf).nonzero()[0]
            if bad.size:
                below_prime = False
                first_violation = first + int(bad[0])
        if monotonic and len(theta_cum):
            # the first step must rise above both the float theta the chunk
            # starts from and the previous chunk's last float value
            monotonic = bool(theta_cum[0] > max(theta_start, last_theta)
                             and (theta_cum[1:] > theta_cum[:-1]).all())
            last_theta = theta_cum[-1]
    return FullScanResult(n_max=count, stats=stats, theta_monotonic=monotonic,
                          theta_below_prime=below_prime,
                          first_theta_violation=first_violation)


def ftilde_ratio_deviation(theta_n: ThetaPoint, p_next: int) -> float:
    """delta such that ftilde(N_{n+1})/ftilde(N_n) = 1 + delta, from
    theta(p_n) and p_{n+1} (n = theta_n.index).

    Computed in deviation form: with L = log theta(p_n), a = 1/p_{n+1} and
    D = log1p(log p_{n+1} / theta(p_n)),  delta = (a*L - D) / (L + D).
    Never formed as a quotient of two near-equal values, so the deviation
    keeps full relative precision down to 1e-14.
    """
    if theta_n.index < 2:
        raise DomainError("deviation defined for n >= 2 (needs log log N_n > 0)")
    big_l = _dd_log(theta_n.theta_hi, theta_n.theta_lo)
    a = 1.0 / p_next
    d = math.log1p(math.log(p_next) / theta_n.theta)
    return (a * big_l - d) / (big_l + d)


def k_ratio(p_n: int, p_next: int) -> float:
    """k_n log k_n / (p_{n+1} log p_{n+1}) with k_n = p_n + sqrt(p_n)/2 * logloglog p_n."""
    if p_n <= math.exp(math.e):
        raise DomainError("k ratio needs p_n > e^e, i.e. n >= 7")
    log3 = math.log(math.log(math.log(p_n)))
    k = p_n + 0.5 * math.sqrt(p_n) * log3
    return k * math.log(k) / (p_next * math.log(p_next))


def check_primorial_bounds(last: int, first: int | None = None
                           ) -> tuple[BoundCheckResult, BoundCheckResult]:
    """Both explicit bounds over the indices [first, last], in one pass:
    log log N_n > log p_n - 0.123/log p_n and
    f(N_n) < -0.698 log p_n + 0.220/log p_n.

    They are claimed only for p_n >= 20000; first defaults to the first such
    index, and a range that starts below it or is empty is rejected.
    """
    import numpy as np
    if first is None:
        # one more than the number of primes below the threshold
        first = 1 + len(prime_engine._simple_sieve(BOUND_PRIME_THRESHOLD - 1))
    if last < first:
        raise DomainError(f"empty index range [{first}, {last}]")
    if last > PRIME_INDEX_CEILING:
        raise ResourceLimitError(f"last={last} exceeds index ceiling")
    if first < 1:
        raise DomainError("prime index must be >= 1")
    count = 0
    worst_m1 = worst_m2 = (math.inf, 0)  # (margin, witness index)
    for c_first, pf, logs, rl, _, theta_cum, r_start, _ in _pass(last):
        count = c_first + len(pf) - 1
        if count < first:
            continue
        start = max(first - c_first, 0)
        # p_first < 20000 means first <= 2262: always in the first chunk
        if pf[start] < BOUND_PRIME_THRESHOLD:
            raise DomainError(
                f"bound is only claimed for p_n >= {BOUND_PRIME_THRESHOLD}; "
                f"p_{first} = {int(pf[start])}")
        # the two margins in place, each op rounded as in the formulas
        logp = logs[start:]
        llgn = np.log(theta_cum[start:])
        m = np.divide(LOGLOG_BOUND_OFFSET, logp)
        np.subtract(logp, m, out=m)
        np.subtract(llgn, m, out=m)  # loglog N - (log p - c / log p)
        worst_m1 = _lower(worst_m1, m, c_first + start)
        f = np.cumsum(rl)[start:]
        f += r_start
        np.exp(f, out=f)
        llgn *= CONSTANTS.e_gamma
        f -= llgn  # f(N_n) = exp(R_n) - e^gamma loglog N
        np.multiply(logp, F_BOUND_SLOPE, out=m)
        np.divide(F_BOUND_OFFSET, logp, out=llgn)
        m += llgn
        m -= f
        worst_m2 = _lower(worst_m2, m, c_first + start)
    return tuple(BoundCheckResult(name, first, count, margin > 0, margin, witness)
                 for name, (margin, witness) in (("loglogN_lower", worst_m1),
                                                 ("f_primorial_upper", worst_m2)))


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
    """str(Decimal(repr(x)).quantize(10^-decimals, ROUND_HALF_EVEN)) for
    finite x and decimals >= 1, wherever that needs no exponent: -1.675
    gives -1.68.  Integer arithmetic, so the tables load no decimal."""
    mantissa, _, exp = repr(float(x)).partition("e")
    whole, _, frac = mantissa.lstrip("-").partition(".")
    shift = decimals - len(frac) + int(exp or 0)  # x 10^decimals = q 10^shift
    # int rounding to a negative digit count is exact and half to even
    q = round(int(whole + frac) * 10 ** max(shift, 0), min(shift, 0))
    digits = str(q // 10 ** max(-shift, 0)).rjust(decimals + 1, "0")
    sign = "-" if mantissa[0] == "-" else ""
    return f"{sign}{digits[:-decimals]}.{digits[-decimals:]}"


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
    points = {s.index: s for s in full_scan(max(need), need).stats}
    if cache_path is not None:
        merged = dict(cached)
        merged.update(points)
        cache_save(ThetaCache(points=sorted(merged.values(),
                                            key=lambda p: p.index)),
                   cache_path)
    return points


def table1(indices: Sequence[int] = TABLE1_DEFAULT_INDICES,
           cache_path=None) -> list[dict]:
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
        theta_ratio = pt.theta / pt.prime
        ftilde = 1.0 + ftilde_ratio_deviation(pt, pt_next.prime)
        kr = k_ratio(pt.prime, pt_next.prime)
        d1, d2, d3 = _TABLE1_DECIMALS.get(n, _TABLE1_OTHER_DECIMALS)
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


def table2(indices: Sequence[int] = TABLE2_DEFAULT_INDICES) -> list[dict]:
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
            "f_value_printed": round_half_even(s.f_value, _TABLE2_DECIMALS),
            "psi_over_n": s.psi_over_n,
            "loglogN": s.loglogN,
        })
    return rows
