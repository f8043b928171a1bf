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
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .arith import dedekind_psi, multiplicative_range, sigma
from .constants import (CONSTANTS, DEFAULT_SIGMA_BOUND_C,  # noqa: F401
                        BoundCheckResult, Constants, Record)
from .errors import DomainError, ResourceLimitError
from .prime_engine import _ordered
from .prime_engine import _simple_sieve  # noqa: F401 (wrapped by perfbench/spans.py)

ESCALATION_BAND = 1e-9
ESCALATION_DPS = 30
# Float chunk scans round the ratio once and the threshold once per step;
# anything this close to the threshold gets the exact treatment.
_CANDIDATE_BAND = 1e-6

# A budget, measured at the ceiling (the whole command, on a 2-core Xeon): a
# scan takes 3.3-4.1 s in 46 MB, bounds --sigma-hi 3.4-4.2 s in 53-56 MB.
SCAN_CEILING = 10**8
# A range walk keeps at most prime_engine.WORKERS chunks computing plus the
# one its caller holds, so WORKERS + 1 = 3 live chunks of 2^18 on two cores
# stay below the single 2^20 chunk of a serial walk.  2^19 chunks ran the
# range scans up to a quarter faster but raised their peak RSS by 11-21 MB.
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


def _loglog(lo: int, hi: int) -> np.ndarray:
    """log log n for n in [lo, hi), one rounding per step, in one buffer."""
    llg = np.arange(lo, hi, dtype=np.float64)
    np.log(llg, out=llg)
    return np.log(llg, out=llg)


def _chunk_values(lo: int, hi: int, kind: CriterionKind) -> np.ndarray:
    """The ratios minus e^gamma log log n, rounded as written."""
    values = _chunk_ratios(lo, hi, kind)
    thr = _loglog(lo, hi)
    thr *= CONSTANTS.e_gamma
    values -= thr
    return values


def _sigma_margin(lo: int, ratios: np.ndarray, c: float) -> np.ndarray:
    """e^gamma llg + c / llg - ratios, llg = log log n from n = lo."""
    llg = _loglog(lo, lo + len(ratios))
    margin = CONSTANTS.e_gamma * llg
    margin += np.divide(c, llg, out=llg)
    margin -= ratios
    return margin


def _chunks(fn, lo: int, hi: int, kind: CriterionKind):
    """Yield (c_lo, fn(c_lo, c_hi, kind)) for the consecutive chunks
    [c_lo, c_hi) of [lo, hi) in order, fn being _chunk_values or
    _chunk_ratios.  The one walk of every range caller: memory stays
    O(chunk) whatever the range, and each chunk's kernel fetches its own
    base primes.  The chunk length is DEFAULT_CHUNK, read at call time.

    Only fn runs ahead on prime_engine._ordered's workers; mpmath and
    factorize stay in the caller's thread.  Each chunk's values depend only
    on its bounds, so results do not depend on the worker count.
    """
    return _ordered(fn, [(c_lo, min(c_lo + DEFAULT_CHUNK, hi), kind)
                         for c_lo in range(lo, hi, DEFAULT_CHUNK)])


def scan_exceptions(kind: CriterionKind, lo: int, hi: int) -> ExceptionReport:
    """All n in [lo, hi) with criterion value >= 0, by float prefilter plus
    exact confirmation of every near-threshold candidate."""
    if lo < 2 or hi <= lo:
        raise DomainError(f"need 2 <= lo < hi, got lo={lo} hi={hi}")
    if hi > SCAN_CEILING:
        raise ResourceLimitError(f"hi={hi} exceeds scan ceiling {SCAN_CEILING}")
    found = []
    escalations = 0
    for c_lo, values in _chunks(_chunk_values, lo, hi, kind):
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
    """Verify sigma(n)/n <= e^gamma log log n + c / log log n on [lo, hi).

    The float pass finds the witness with the smallest margin; the margin
    reported, and the pass/fail decision, come from mpmath at the witness.
    """
    check_sigma_bound_args(lo, hi, c)
    worst = math.inf
    witness = lo
    for c_lo, ratios in _chunks(_chunk_ratios, lo, hi, CriterionKind.ROBIN_G):
        margin = _sigma_margin(c_lo, ratios, c)
        i = int(np.argmin(margin))
        if margin[i] < worst:
            worst = float(margin[i])
            witness = c_lo + i
    import mpmath as mp
    with mp.workdps(ESCALATION_DPS):
        exact = float(mp.mpf(c) / mp.log(mp.log(witness))
                      - _exact_value(witness, sigma(witness)))
    return BoundCheckResult(bound="sigma_upper", first=lo, last=hi - 1,
                            passed=exact > 0, worst_margin=exact,
                            witness=witness)
