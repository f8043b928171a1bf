"""Robin's function g(n), its Dedekind-psi refinement f(n), and range scans.

g(n) = sigma(n)/n - e^gamma * log log n
f(n) = psi(n)/n   - e^gamma * log log n

Membership of n in an exception set is a sign decision, so the ratio comes
from the exact integer function value, the threshold is evaluated with one
rounding per step (log n, then log of that, then multiply), and any value
within the 1e-9 escalation band is re-evaluated at 30 significant digits
with mpmath before its sign is trusted.  The same 30-digit evaluator gives
the sigma-bound margin at its witness and settles the proposition cases
the float pass leaves within _CANDIDATE_BAND.

Robin's unconditional bound sigma(n)/n <= e^gamma L + c / L, L = log log n,
is checked by structure: its right side does not decrease from n0(c) on
(n0 = 7 at the default c), and between consecutive superabundant numbers
s <= n < s' the ratio sigma(n)/n is at most sigma(s)/s.  So past the first
superabundant number s* >= max(lo, n0) the least margin lies at a
superabundant number, and only the head [lo, s*) is walked n by n.

The scans use the same records (N_k for psi, superabundant for sigma): a
scan walks only the prefix [lo, X) they leave open (X = 47 for f, 5583 for
g), and they settle everything past X.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import prime_engine
from .arith import KERNEL_CEILING, dedekind_psi, multiplicative_range, sigma
from .constants import (CONSTANTS, DEFAULT_SIGMA_BOUND_C, BoundCheckResult,
                        Record)
from .errors import DomainError, ResourceLimitError
from .prime_engine import _simple_sieve  # noqa: F401 (wrapped by perfbench/spans.py)

ESCALATION_BAND = 1e-9
ESCALATION_DPS = 30
# Float chunk scans round the ratio once and the threshold once per step;
# anything this close to the threshold gets the exact treatment.
_CANDIDATE_BAND = 1e-6

# The sigma bound's ceiling alone, a budget measured there (the whole
# command, on a 2-core Xeon): bounds --lo 2263 --hi 2263 --sigma-hi takes
# 0.13-0.20 s in 34 MB at the default c, which walks only [3, 12); a c
# whose n0 lies past it (--c 1e6) walks all of it, 5.2-5.9 s in 52 MB.
SCAN_CEILING = 10**8
# A range walk holds WORKERS + 1 = 3 live chunks on two cores (README).
# Only Proposition 2 and the sigma head at a large c still walk far.  On a
# 2-core Xeon, two workers against one: verify_prop2(10^8) 3.9-4.4 s in
# 47 MB against 3.6-5.1 s in 37 MB; the sigma head to 10^8 at c = 1e6
# 5.0-5.4 s in 51 MB against 5.5-6.9 s in 40 MB.  2^19 chunks ran both walks
# a sixth faster, in 18 MB more.
DEFAULT_CHUNK = 1 << 18


# mpmath is imported where a 30-digit value is needed: a command that makes
# no such decision never pays for loading it.
def mp_e_gamma():
    import mpmath as mp
    return mp.exp(mp.euler)


class CriterionKind(enum.Enum):
    ROBIN_G = "g"
    DEDEKIND_F = "f"


class CriterionValue(Record):
    __slots__ = {"n": "int", "kind": "CriterionKind", "ratio": "float",
                 "threshold": "float", "value": "float",
                 "precision_escalated": "bool"}


class ExceptionReport(Record):
    __slots__ = {"kind": "CriterionKind", "lo": "int", "hi": "int",
                 "exceptions": "tuple[int, ...]",
                 "values": "tuple[CriterionValue, ...]: the decided value "
                           "of each exception",
                 "largest": "int | None", "escalations": "int"}


def threshold(n: int) -> float:
    # single rounding per step, no fused rearrangement
    return CONSTANTS.e_gamma * math.log(math.log(n))


def _exact_value(n: int, numer: int):
    """numer/n - e^gamma log log n to ESCALATION_DPS significant digits.

    The one evaluator behind every sign decision the float pass leaves
    open: the escalated criterion value, the sigma-bound margin at its
    witness and the proposition tie-breaks.  The mpf keeps its 30 digits
    after the context closes; callers that combine it with more arithmetic
    do so under mp.workdps(ESCALATION_DPS) and round to float once.
    """
    import mpmath as mp
    with mp.workdps(ESCALATION_DPS):
        return mp.mpf(numer) / n - mp_e_gamma() * mp.log(mp.log(n))


def _f_at_least(m: int, ref: int) -> bool:
    """f(m) >= f(ref), decided on the 30-digit values (an exact mpf
    comparison), so a tie counts against m."""
    return (_exact_value(m, dedekind_psi(m))
            >= _exact_value(ref, dedekind_psi(ref)))


def _criterion(n: int, kind: CriterionKind) -> CriterionValue:
    if n <= 1:
        raise DomainError(f"log log n undefined for n={n}")
    numer = (sigma if kind is CriterionKind.ROBIN_G else dedekind_psi)(n)
    ratio = numer / n
    thr = threshold(n)
    value = ratio - thr
    escalated = abs(value) < ESCALATION_BAND
    if escalated:
        value = float(_exact_value(n, numer))
    return CriterionValue(n=n, kind=kind, ratio=ratio, threshold=thr,
                          value=value, precision_escalated=escalated)


def robin_g(n: int) -> CriterionValue:
    return _criterion(n, CriterionKind.ROBIN_G)


def dedekind_f(n: int) -> CriterionValue:
    return _criterion(n, CriterionKind.DEDEKIND_F)


# ---------------------------------------------------------------------------
# chunked float ratio scan

def _chunk_ratios(lo: int, hi: int, kind: CriterionKind) -> np.ndarray:
    """Float psi(n)/n or sigma(n)/n for n in [lo, hi): the exact kernel
    value divided by n, so each ratio is correctly rounded and does not
    depend on chunk boundaries."""
    exact = multiplicative_range(lo, hi, kind is CriterionKind.ROBIN_G)
    n = np.arange(lo, hi, dtype=np.float64)
    return np.divide(exact, n, out=n)


def _loglog(n: np.ndarray) -> np.ndarray:
    """log log n, one rounding per step, computed in n's float64 buffer."""
    np.log(n, out=n)
    return np.log(n, out=n)


def _chunk_values(lo: int, hi: int, kind: CriterionKind) -> np.ndarray:
    """The ratios minus e^gamma log log n, rounded as written."""
    values = _chunk_ratios(lo, hi, kind)
    thr = _loglog(np.arange(lo, hi, dtype=np.float64))
    thr *= CONSTANTS.e_gamma
    values -= thr
    return values


def _sigma_margin(n: np.ndarray, ratios: np.ndarray, c: float) -> np.ndarray:
    """e^gamma llg + c / llg - ratios, llg = log log n computed in n's
    float64 buffer: the one margin of the sigma bound's head walk and of
    its superabundant numbers, rounded as written."""
    llg = _loglog(n)
    margin = CONSTANTS.e_gamma * llg
    with np.errstate(over="ignore"):  # a c near the float maximum: inf
        margin += np.divide(c, llg, out=llg)
    margin -= ratios
    return margin


def _loglog_root(level: float) -> float:
    """A real x past which log log n > level: e^(e^level) raised by 1e-12
    relative, above the roundings of its two exps (under 2e-13 relative,
    log x being below 710), or inf when that overflows."""
    try:
        return math.exp(math.exp(level)) * (1 + 1e-12)
    except OverflowError:
        return math.inf


def _chunks(fn, lo: int, hi: int, kind: CriterionKind):
    """Yield (c_lo, fn(c_lo, c_hi, kind)) for the consecutive chunks
    [c_lo, c_hi) of [lo, hi) in order, cut from lo in steps of
    DEFAULT_CHUNK (read at call time), fn being _chunk_values or
    _chunk_ratios: the one walk of every range caller, in O(chunk) memory,
    each chunk's kernel fetching its own base primes.  A non-empty range
    past arith.KERNEL_CEILING raises at the call, before any chunk is cut.

    Only fn runs ahead, on WORKERS threads of prime_engine._ordered (the
    caller mostly waits on them, so walks keep every core); mpmath and
    factorize stay in the caller's thread.  Each chunk's values depend only
    on its bounds, so results do not depend on the worker count.
    """
    if lo < hi and hi > KERNEL_CEILING:
        raise ResourceLimitError(f"range [{lo}, {hi}) passes the exact "
                                 f"kernel's ceiling {KERNEL_CEILING}")
    jobs = [(c_lo, min(c_lo + DEFAULT_CHUNK, hi), kind)
            for c_lo in range(lo, hi, DEFAULT_CHUNK)]
    return prime_engine._ordered(fn, jobs, prime_engine.WORKERS)


def scan_exceptions(kind: CriterionKind, lo: int, hi: int) -> ExceptionReport:
    """All n in [lo, hi) with criterion value >= 0, by float prefilter plus
    exact confirmation of every near-threshold candidate on the prefix
    [lo, X) the ratio records leave open, up to the records' ceilings.

    Lemma.  For n <= x, ratio(n) <= ratio(s), s the last strict ratio
    record <= x: the largest ratio on [1, x] is first reached at a record.

    Each record r up to hi - 1 (champions.ratio_records) leaves open the
    window [r, min(r', x_r)), r' the next record or hi, x_r = _loglog_root(
    (ratio(r) (1 + 1e-12) + _CANDIDATE_BAND) / e^gamma).  X is the end of
    the last non-empty window, at most hi.  Why no n outside the windows
    (past X, or in a gap below it) is an exception or a candidate.  For
    records r <= n < r' and n >= x_r, the exact threshold(n) exceeds the
    exact ratio(r) + _CANDIDATE_BAND, as the 1e-12 slacks of x_r and its
    level cover their roundings, and that is at least ratio(n) + the band
    by the lemma: past 2^53, where n is no float, this rests on exact
    values alone.  Below it the kernel's float ratio and np.log's threshold
    are each within a few ulps of exact, far inside the slack, so no float
    value there is above -_CANDIDATE_BAND: nothing is escalated, and the
    report is that of a walk of every chunk.  The least margin at a record
    past 10^6, 1.36 for f and 0.141 for g, is far above the slack.
    """
    if lo < 2 or hi <= lo:
        raise DomainError(f"need 2 <= lo < hi, got lo={lo} hi={hi}")
    from . import champions  # not at import time: champions imports criteria
    records = champions.ratio_records(kind, hi - 1)
    x_end = lo
    for (r, numer), nxt in zip(records, [n for n, _ in records[1:]] + [hi]):
        x_r = _loglog_root((numer / r * (1 + 1e-12) + _CANDIDATE_BAND)
                           / CONSTANTS.e_gamma)
        if x_r > r:
            x_end = math.ceil(min(nxt, x_r))
    found = []
    escalations = 0
    for c_lo, values in _chunks(_chunk_values, lo, x_end, kind):
        for off in np.nonzero(values > -_CANDIDATE_BAND)[0]:
            cv = _criterion(c_lo + int(off), kind)
            if cv.precision_escalated:
                escalations += 1
            if cv.value >= 0:
                found.append(cv)
    exceptions = tuple(cv.n for cv in found)
    return ExceptionReport(kind=kind, lo=lo, hi=hi, exceptions=exceptions,
                           values=tuple(found),
                           largest=max(exceptions, default=None),
                           escalations=escalations)


def check_sigma_bound_args(lo: int, hi: int, c: float) -> None:
    """Reject what check_sigma_upper_bound would reject, before any pass."""
    if lo < 3:
        raise DomainError("bound is stated for n >= 3")
    if hi <= lo:
        raise DomainError(f"empty range: hi={hi} <= lo={lo}")
    if not math.isfinite(c):
        raise DomainError(f"c must be finite, got {c}")
    if hi > SCAN_CEILING:
        raise ResourceLimitError(f"hi={hi} exceeds scan ceiling {SCAN_CEILING}")


def check_sigma_upper_bound(lo: int, hi: int, c: float = DEFAULT_SIGMA_BOUND_C
                            ) -> BoundCheckResult:
    """Verify sigma(n)/n <= B(n) = e^gamma L + c / L, L = log log n, on
    [lo, hi) (Robin 1984), by structure and a short head walk.

    Lemma.  dB/dL = e^gamma - c / L^2, so B does not decrease once
    L >= L0 = sqrt(max(c, 0) / e^gamma), that is for n >= n0(c), the
    least integer >= max(_loglog_root(L0), 3): 7 at the default c = 0.6483,
    3 for every c <= 0.  For consecutive superabundant numbers s <= n < s',
    sigma(n)/n <= sigma(s)/s: the largest ratio up to n is first reached at
    a superabundant number, and s is the last one up to n.  So for s >= n0
    the margin B(n) - sigma(n)/n on [s, s') is least at s.

    Let s* be the first superabundant number >= max(lo, n0).  The float
    margin is walked, chunk by chunk, only on the head [lo, s*), and past
    it taken at each superabundant number in [s*, hi); with no such number
    below hi (a large c puts n0 past the range) the head is all of [lo, hi).
    Both parts use _sigma_margin, so each margin taken is the float a walk
    of the whole range takes at that n, and the witness is the first n of
    least float margin among them (the same n as that walk's on every case
    the tests compare).  The margin reported, and the pass/fail decision,
    come from mpmath at the witness.
    """
    check_sigma_bound_args(lo, hi, c)
    from . import champions  # not at import time: champions imports criteria
    start = max(lo, _loglog_root(math.sqrt(max(c, 0.0) / CONSTANTS.e_gamma)))
    sa = [r for r in champions.ratio_records(CriterionKind.ROBIN_G, hi - 1)
          if r[0] >= start]

    def margins():
        """(the n of each margin, the margins), in increasing n."""
        for c_lo, ratios in _chunks(_chunk_ratios, lo, sa[0][0] if sa else hi,
                                    CriterionKind.ROBIN_G):
            n = np.arange(c_lo, c_lo + len(ratios), dtype=np.float64)
            yield range(c_lo, c_lo + len(ratios)), _sigma_margin(n, ratios, c)
        if sa:
            ns, sigmas = zip(*sa)
            n = np.array(ns, dtype=np.float64)
            ratios = np.array(sigmas, dtype=np.float64) / n
            yield ns, _sigma_margin(n, ratios, c)

    worst = math.inf
    witness = lo
    for ns, margin in margins():
        i = int(np.argmin(margin))
        if margin[i] < worst:
            worst = float(margin[i])
            witness = ns[i]
    import mpmath as mp
    with mp.workdps(ESCALATION_DPS):
        exact = float(mp.mpf(c) / mp.log(mp.log(witness))
                      - _exact_value(witness, sigma(witness)))
    return BoundCheckResult(bound="sigma_upper", first=lo, last=hi - 1,
                            passed=exact > 0, worst_margin=exact,
                            witness=witness)
