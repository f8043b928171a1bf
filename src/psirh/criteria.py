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
from dataclasses import dataclass
from typing import Callable, Optional

import mpmath as mp
import numpy as np

from .arith import dedekind_psi, multiplicative_range, sigma
from .errors import DomainError, ResourceLimitError
from .prime_engine import _simple_sieve

ESCALATION_BAND = 1e-9
ESCALATION_DPS = 30
# Float chunk scans round the ratio once and the threshold once per step;
# anything this close to the threshold gets the exact treatment.
_CANDIDATE_BAND = 1e-6

SCAN_CEILING = 10**8
DEFAULT_CHUNK = 1 << 20

DEFAULT_SIGMA_BOUND_C = 0.6483  # 0.6482 as printed fails at n = 12


@dataclass(frozen=True)
class Constants:
    gamma: float = 0.57721566490153286061
    e_gamma: float = 1.78107241799019798524
    zeta2: float = 1.64493406684822643647
    e_gamma_over_zeta2: float = 1.08276219326092458012


CONSTANTS = Constants()


def mp_e_gamma():
    return mp.exp(mp.euler)


def mp_zeta2():
    return mp.pi ** 2 / 6


class CriterionKind(enum.Enum):
    ROBIN_G = "g"
    DEDEKIND_F = "f"


_RATIO_FN: dict[CriterionKind, Callable[[int], int]] = {
    CriterionKind.ROBIN_G: sigma,
    CriterionKind.DEDEKIND_F: dedekind_psi,
}


@dataclass(frozen=True)
class CriterionValue:
    n: int
    kind: CriterionKind
    ratio: float
    threshold: float
    value: float
    precision_escalated: bool


@dataclass(frozen=True)
class ExceptionReport:
    kind: CriterionKind
    lo: int
    hi: int
    exceptions: tuple[int, ...]
    largest: Optional[int]
    escalations: int


@dataclass(frozen=True)
class BoundCheckResult:
    bound: str
    first: int
    last: int
    passed: bool
    worst_margin: float
    witness: int


def threshold(n: int) -> float:
    # single rounding per step, no fused rearrangement
    return CONSTANTS.e_gamma * math.log(math.log(n))


def _exact_value(n: int, numer: int) -> mp.mpf:
    """numer/n - e^gamma log log n to ESCALATION_DPS significant digits.

    The one evaluator behind every sign decision the float pass leaves
    open: the escalated criterion value, the sigma-bound margin at its
    witness and the proposition tie-breaks.  The mpf keeps its 30 digits
    after the context closes; callers that combine it with more arithmetic
    do so under mp.workdps(ESCALATION_DPS) and round to float once.
    """
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
    numer = _RATIO_FN[kind](n)
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

def _chunk_ratios(lo: int, hi: int, kind: CriterionKind,
                  base_primes: list[int]) -> np.ndarray:
    """Float psi(n)/n or sigma(n)/n for n in [lo, hi): the exact kernel
    value divided by n, so each ratio is correctly rounded and does not
    depend on chunk boundaries."""
    exact = multiplicative_range(lo, hi, kind is CriterionKind.ROBIN_G,
                                 base_primes)
    return exact / np.arange(lo, hi, dtype=np.float64)


def _chunk_values(lo: int, hi: int, kind: CriterionKind,
                  base_primes: list[int]) -> np.ndarray:
    n = np.arange(lo, hi, dtype=np.float64)
    thr = CONSTANTS.e_gamma * np.log(np.log(n))
    return _chunk_ratios(lo, hi, kind, base_primes) - thr


def _chunks(fn, lo: int, hi: int, kind: CriterionKind,
            chunk_size: Optional[int] = None):
    """Yield (c_lo, fn(c_lo, c_hi, kind, base_primes)) for the consecutive
    chunks [c_lo, c_hi) of [lo, hi), fn being _chunk_values or
    _chunk_ratios.  The one walk of every range caller: the base primes are
    sieved once, and memory stays O(chunk) whatever the range.  The chunk
    length is chunk_size, or DEFAULT_CHUNK read at call time."""
    size = DEFAULT_CHUNK if chunk_size is None else chunk_size
    base_primes = _simple_sieve(math.isqrt(hi - 1) + 1).tolist()
    for c_lo in range(lo, hi, size):
        yield c_lo, fn(c_lo, min(c_lo + size, hi), kind, base_primes)


def scan_exceptions(kind: CriterionKind, lo: int, hi: int,
                    chunk_size: int = DEFAULT_CHUNK) -> ExceptionReport:
    """All n in [lo, hi) with criterion value >= 0, by float prefilter plus
    exact confirmation of every near-threshold candidate."""
    if lo < 2 or hi <= lo:
        raise DomainError(f"need 2 <= lo < hi, got lo={lo} hi={hi}")
    if hi > SCAN_CEILING:
        raise ResourceLimitError(f"hi={hi} exceeds scan ceiling {SCAN_CEILING}")
    exceptions = []
    escalations = 0
    for c_lo, values in _chunks(_chunk_values, lo, hi, kind, chunk_size):
        for off in np.nonzero(values > -_CANDIDATE_BAND)[0]:
            cv = _criterion(c_lo + int(off), kind)
            if cv.precision_escalated:
                escalations += 1
            if cv.value >= 0:
                exceptions.append(cv.n)
    return ExceptionReport(kind=kind, lo=lo, hi=hi,
                           exceptions=tuple(exceptions),
                           largest=max(exceptions) if exceptions else None,
                           escalations=escalations)


def check_sigma_upper_bound(lo: int, hi: int,
                            c: float = DEFAULT_SIGMA_BOUND_C,
                            chunk_size: int = DEFAULT_CHUNK) -> BoundCheckResult:
    """Verify sigma(n)/n <= e^gamma log log n + c / log log n on [lo, hi).

    The float pass finds the witness with the smallest margin; the margin
    reported, and the pass/fail decision, come from mpmath at the witness.
    """
    if lo < 3:
        raise DomainError("bound is stated for n >= 3")
    if hi <= lo:
        raise DomainError(f"empty range: hi={hi} <= lo={lo}")
    if hi > SCAN_CEILING:
        raise ResourceLimitError(f"hi={hi} exceeds scan ceiling {SCAN_CEILING}")
    worst = math.inf
    witness = lo
    for c_lo, ratios in _chunks(_chunk_ratios, lo, hi, CriterionKind.ROBIN_G,
                                chunk_size):
        llg = np.log(np.log(np.arange(c_lo, c_lo + len(ratios),
                                      dtype=np.float64)))
        margin = CONSTANTS.e_gamma * llg + c / llg - ratios
        i = int(np.argmin(margin))
        if margin[i] < worst:
            worst = float(margin[i])
            witness = c_lo + i
    with mp.workdps(ESCALATION_DPS):
        exact = float(mp.mpf(c) / mp.log(mp.log(witness))
                      - _exact_value(witness, sigma(witness)))
    return BoundCheckResult(bound="sigma_upper", first=lo, last=hi - 1,
                            passed=exact > 0, worst_margin=exact,
                            witness=witness)
