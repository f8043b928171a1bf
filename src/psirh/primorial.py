"""Log-space analysis at primorials: theta ratios, f(N_n), Mertens limit,
successor-ratio deviations, and the explicit bounds for p_n >= 20000.

N_n is never materialized (N_100000 has half a million digits); everything
lives on log N_n = theta(p_n) and R_n = sum log(1 + 1/p_i), both summed
exactly along a single ordered prime stream into (hi, lo) checkpoints.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Iterator, Sequence

from .constants import CONSTANTS, Decision
from .errors import CacheVersionError, DomainError
from . import prime_engine
from .prime_engine import (ThetaPoint, cache_load, cache_save, check_n_max,
                           chunk_sum_dd, dd_pair, iter_prime_chunks)
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


def _lower(worst: tuple[float, int], margins, first: int) -> tuple[float, int]:
    """worst, or (margin, index) of the first least margin if lower;
    margins[i] belongs to index first + i."""
    i = int(margins.argmin())
    return (float(margins[i]), first + i) if margins[i] < worst[0] else worst


# The most primes in a block of the pass, so its one workspace is 2.6 MB
# however long a stream chunk is: bounds --hi 10000001 peaks near 40 MB on
# 2 vCPUs.  2^15 measured the same peak RSS and more wall time.
_BLOCK = 1 << 16


def _pass(n_max: int, cuts: Sequence[int] = ()) -> Iterator[tuple]:
    """The one ordered pass over the first n_max primes, a block of at most
    _BLOCK primes of a stream chunk at a time: yields (first, primes, logs,
    rl, theta_start, theta_cum, r_cum, stats), the block's first index, its
    primes, log p and log1p(1/p) as floats, theta before the chunk, the
    prefix sums of theta and of R on the block, and the PrimorialStats at
    the sorted cuts in it.  The theta and R lanes are exact int totals
    (chunk_sum_dd), so a checkpoint (dd_pair) is correctly rounded however
    the stream is chunked, blocked and cut.  The prefix sums are one float
    cumsum per chunk, carried across its blocks, plus the chunk's float
    start: their bits do not depend on _BLOCK.  The arrays are rows of one
    workspace that the next block overwrites; the carries are taken before
    the yield, so a consumer may overwrite the rows but must not keep them.
    """
    import numpy as np
    theta = r = 0
    count = ci = 0
    buf = np.empty((5, 1))
    for chunk in iter_prime_chunks(n_max):
        if buf.shape[1] <= min(_BLOCK, len(chunk)):
            buf = np.empty((5, min(_BLOCK, len(chunk)) + 1))
        theta_start, r_start = dd_pair(theta)[0], dd_pair(r)[0]
        buf[1:3, 0] = 0.0  # column 0: the chunk's theta and R cumsums so far
        for lo in range(0, len(chunk), _BLOCK):
            piece = chunk[lo:lo + _BLOCK]
            rows = buf[:, :len(piece) + 1]
            pf, logs, rl, theta_cum, r_cum = rows[:, 1:]
            pf[:] = piece
            np.log(pf, out=logs)
            np.divide(1.0, pf, out=rl)
            np.log1p(rl, out=rl)
            # 1-d and out of place, so numpy lets the sieve threads run
            np.cumsum(rows[1], out=rows[3])  # carry, fl(carry + x_0), ...
            np.cumsum(rows[2], out=rows[4])
            rows[1:3, 0] = rows[3:, -1]  # the next block's carries
            theta_cum += theta_start
            r_cum += r_start
            stats = []
            pos = 0
            while pos < len(piece):  # up to the next cut or the block's end
                at_cut = ci < len(cuts) and cuts[ci] <= count + len(piece)
                end = cuts[ci] - count if at_cut else len(piece)
                theta += chunk_sum_dd(logs[pos:end])
                r += chunk_sum_dd(rl[pos:end])
                if at_cut:
                    stats.append(PrimorialStats(cuts[ci], int(piece[end - 1]),
                                                *dd_pair(theta), *dd_pair(r)))
                    ci += 1
                pos = end
            yield count + 1, pf, logs, rl, theta_start, theta_cum, r_cum, stats
            count += len(piece)


def full_scan(n_max: int, report_indices: Iterable[int] = ()
              ) -> dict[int, PrimorialStats]:
    """PrimorialStats at each requested index, by index, from one pass
    (_pass) over the first n_max primes that also checks theta rises at
    every prime (across block and chunk joins too) and stays below it; a
    block where it does not raises RuntimeError naming the block's index
    range."""
    check_n_max(n_max)
    cuts = sorted({i for i in report_indices if 1 <= i <= n_max})
    stats: dict[int, PrimorialStats] = {}
    last_theta = -math.inf  # the previous block's last float theta
    for first, pf, _, _, theta_start, theta_cum, _, at_cuts in _pass(n_max, cuts):
        # the first step must rise above both the float theta the chunk
        # starts from and the previous block's last float value
        rises = (theta_cum[0] > max(theta_start, last_theta)
                 and (theta_cum[1:] > theta_cum[:-1]).all())
        if not rises or not (theta_cum < pf).all():
            raise RuntimeError(
                f"theta(p_n) {'>= p_n' if rises else 'does not rise'} "
                f"for n in [{first}, {first + len(pf) - 1}]")
        last_theta = theta_cum[-1]
        stats.update((s.index, s) for s in at_cuts)
    return stats


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
                           ) -> tuple[Decision, Decision]:
    """Both explicit bounds over the indices [first, last], in one pass:
    log log N_n > log p_n - 0.123/log p_n and
    f(N_n) < -0.698 log p_n + 0.220/log p_n.

    They are claimed only for p_n >= 20000; first defaults to the first such
    index.  The range is checked before the pass starts: one that is empty,
    passes the index ceiling or starts below that index is rejected.
    """
    import numpy as np
    below = prime_engine._simple_sieve(BOUND_PRIME_THRESHOLD - 1)
    if first is None:
        first = len(below) + 1
    if last < first:
        raise DomainError(f"empty index range [{first}, {last}]")
    check_n_max(last)
    if first < 1:
        raise DomainError("prime index must be >= 1")
    if first <= len(below):
        raise DomainError(
            f"bound is only claimed for p_n >= {BOUND_PRIME_THRESHOLD}; "
            f"p_{first} = {int(below[first - 1])}")
    worst_m1 = worst_m2 = (math.inf, 0)  # (margin, witness index)
    for c_first, pf, logs, _, _, theta_cum, r_cum, _ in _pass(last):
        start = max(first - c_first, 0)
        if start >= len(pf):
            continue
        # the two margins in the block's rows, each op rounded as in the
        # formulas: theta_cum becomes loglog N, r_cum f and pf the margin
        logp, llgn = logs[start:], theta_cum[start:]
        f, m = r_cum[start:], pf[start:]
        np.log(llgn, out=llgn)
        np.divide(LOGLOG_BOUND_OFFSET, logp, out=m)
        np.subtract(logp, m, out=m)
        np.subtract(llgn, m, out=m)  # loglog N - (log p - c / log p)
        worst_m1 = _lower(worst_m1, m, c_first + start)
        np.exp(f, out=f)
        llgn *= CONSTANTS.e_gamma
        f -= llgn  # f(N_n) = exp(R_n) - e^gamma loglog N
        np.multiply(logp, F_BOUND_SLOPE, out=m)
        np.divide(F_BOUND_OFFSET, logp, out=llgn)
        m += llgn
        m -= f
        worst_m2 = _lower(worst_m2, m, c_first + start)
    return tuple(Decision(name, first, last, margin > 0, worst_margin=margin,
                          witness=witness)
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
            cached = cache_load(cache_path)
        except CacheVersionError:
            pass  # another format version: rebuild the file
        if all(i in cached for i in need):
            return {i: cached[i] for i in need}
    points = full_scan(max(need), need)
    if cache_path is not None:
        cache_save({**cached, **points}, cache_path)
    return points


def table1(indices: Sequence[int] = TABLE1_DEFAULT_INDICES,
           cache_path=None) -> list[dict]:
    """Rows of the theta-ratio / successor-ratio / k-ratio table."""
    need = sorted({i for i in indices} | {i + 1 for i in indices})
    check_n_max(max(need))
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
    check_n_max(max(need))
    if min(need) < 2:
        raise DomainError("table indices must be >= 2")
    stats = full_scan(max(need), need)
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
