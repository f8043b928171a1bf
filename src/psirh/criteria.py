"""Robin's function g(n), its Dedekind-psi refinement f(n), and range scans.

g(n) = sigma(n)/n - e^gamma * log log n
f(n) = psi(n)/n   - e^gamma * log log n

Membership of n in an exception set is a sign decision, so the ratio comes
from the exact integer function value, the threshold is evaluated with one
rounding per step (log n, then log of that, then multiply), and any value
within the 1e-9 escalation band is re-evaluated at 30 significant digits
in the stdlib's decimal, whose correctly rounded ln and four operations
give that value a stated error bound (_exact_value), before its sign is
trusted; a value within that bound of 0 is evaluated again at 60 and then
120 digits, and raises ResourceLimitError if still undecided there
(_decided_value).  The same evaluator gives the sigma-bound margin at its
witness.

Robin's unconditional bound sigma(n)/n <= B(n) = e^gamma L + c / L,
L = log log n, is checked by structure: B does not decrease from n0(c) on
(n0 = 7 at the default c), and between consecutive superabundant numbers
s <= n < s' the ratio sigma(n)/n is at most sigma(s)/s.  So past the first
superabundant number s* >= max(lo, n0) the least margin lies at a
superabundant number.  On a chunk [a, b) of the head [lo, s*) the margin is
at least B at the clamp of B's minimum into [a, b - 1], less the ratio of
the last superabundant number <= b - 1: chunks are walked in the order of
that bound, and only until it clears the least margin found.

The scans use the same records (N_k for psi, superabundant for sigma):
they settle everything past X and leave open only the prefix [lo, X)
(X = 47 for f, 5583 for g).  Its numerators come from one stdlib sieve
(arith.multiplicative_ints), its float values from _criterion's own
expression (_float_value), and _criterion decides only the candidates,
the n whose value is at least -ESCALATION_BAND: 10 for f and 27 for g.
numpy is imported by the functions that make (unannotated) arrays, which
only the sigma bound calls, so a scan runs without it: factorize tries
the primes below 256 in Python ints, which factor every n below 2^16.
"""

from __future__ import annotations

import enum
import functools
import math

from .arith import (dedekind_psi, multiplicative_ints, multiplicative_range,
                    sigma)
from .constants import CONSTANTS, DEFAULT_SIGMA_BOUND_C, Decision, Record
from .errors import DomainError, ResourceLimitError
from .prime_engine import _simple_sieve  # noqa: F401 (wrapped by perfbench/spans.py)

ESCALATION_BAND = 1e-9
# A value within its error bound of 0 at ESCALATION_DPS digits is evaluated
# again at twice the digits, up to the cap, and raises there.
ESCALATION_DPS = 30
ESCALATION_DPS_CAP = 120
# A float value, its ratio and threshold each rounded once per step, lies
# far closer than this to exact: a ratio record's window stays open until
# the exact threshold clears the record's ratio by this band, so no float
# value past it lies above -_CANDIDATE_BAND.
_CANDIDATE_BAND = 1e-6

# The sigma bound's ceiling alone, a budget measured there (the whole
# command, on a 2-core Xeon, 4 fresh runs each): bounds --lo 2263 --hi 2263
# --sigma-hi takes 0.26-0.27 s in 30 MB at the default c, which computes
# no chunk of its head [3, 12); a c whose n0 lies past it computes some of
# the 382 chunks of [3, 10^8): --c 1e6 one, 0.28 s in 34 MB, --c 50 102 of
# them, 1.2-1.7 s in 41 MB.
SCAN_CEILING = 10**8
# The sigma head, the one range walk left (a scan sieves its prefix in one
# call), holds one chunk at a time, in its caller's thread.  At --c 50, 2^17
# chunks took 1.4-2.0 s in 36 MB and 2^19 1.1-1.5 s in 49 MB.
DEFAULT_CHUNK = 1 << 18


# e^gamma to 141 significant digits, within 1e-140, far inside the error
# bound at the cap (a test checks it against exp(euler) at 160 digits)
E_GAMMA_DIGITS = (
    "1.78107241799019798523650410310717954916964521430343020535766587651284"
    "1076813588293707574216488418280334822245225145742001055794574248196500"
    "88")


@functools.cache
def _decimal_context(dps: int):
    """The dps-digit context, rounding half even, and e^gamma, made on
    first use: a command that makes no 30-digit decision never loads
    decimal."""
    import decimal
    return (decimal.Context(prec=dps, rounding=decimal.ROUND_HALF_EVEN),
            decimal.Decimal(E_GAMMA_DIGITS))


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


def _exact_value(n: int, numer: int, c: float = 0.0,
                 dps: int = ESCALATION_DPS):
    """numer/n - e^gamma L - c / L, L = log log n, as a decimal.Decimal of
    dps significant digits, ESCALATION_DPS = 30 unless retried: the one
    evaluator behind every sign decision the float pass leaves open, the
    escalated criterion value (c = 0, no last term) and, negated, the
    sigma-bound margin at its witness.  Its callers read it through
    _decided_value.

    Error bound.  The context rounds each of numer/n, ln n, ln of that,
    the product, the quotient and the differences correctly (decimal's ln
    always does), so each is within u = 5 * 10^-dps of its exact value,
    relative; n, numer and c (converted from its float exactly) are exact,
    and e^gamma is within 1e-140.  With R = numer/n, ln ln n moves by at
    most u (1 + |L|) and a little more, so the value moves by at most
    2u (R + 1 + 3 |L|) at c = 0, and 2u (2 R + 1 + 4 |L| +
    (2 + 1/|L|) |c| / |L|) otherwise, 2u = 10^(1 - dps): 1e-29, 1e-59 and
    1e-119 at 30, 60 and 120 digits.  For 2 <= n < 2^53, where R < 7 and
    |L| < 3.7, the first is below 3e-28 at 30 digits, so the sign is right
    wherever the exact value lies farther from 0.
    """
    ctx, e_gamma = _decimal_context(dps)
    llg = ctx.ln(ctx.ln(n))
    value = ctx.subtract(ctx.divide(numer, n), ctx.multiply(e_gamma, llg))
    if c:
        from decimal import Decimal
        value = ctx.subtract(value, ctx.divide(Decimal(c), llg))
    return value


def _decided_value(n: int, numer: int, c: float = 0.0) -> float:
    """_exact_value(n, numer, c) rounded to float once, at the first of 30,
    60 and 120 (ESCALATION_DPS_CAP) digits where its sign is decided: a
    value within the error bound stated there of 0 is evaluated again at
    twice the digits, and at the cap it raises ResourceLimitError naming
    n, as its sign is not to be trusted.  The bound is evaluated in
    floats, within 1e-15 of itself, relative."""
    r, llg = numer / n, abs(math.log(math.log(n)))
    dps = ESCALATION_DPS
    while True:
        value = _exact_value(n, numer, c, dps)
        unit = 10.0 ** (1 - dps)
        # c's term scaled first, so a c near the float maximum stays finite
        bound = (unit * (2 * r + 1 + 4 * llg if c else r + 1 + 3 * llg)
                 + unit * abs(c) / llg * (2 + 1 / llg))
        if value.copy_abs() > bound:
            return float(value)
        if dps >= ESCALATION_DPS_CAP:
            raise ResourceLimitError(
                f"n={n}: the {dps}-digit value {value} lies within its "
                f"error bound {bound:.1e} of 0, so its sign is undecided")
        dps *= 2


def _float_value(n: int, numer: int) -> tuple[float, float, float]:
    """(numer/n, threshold(n), their difference), each rounded once: the
    one float criterion value, of _criterion and of a scan's prefix."""
    ratio, thr = numer / n, threshold(n)
    return ratio, thr, ratio - thr


def _criterion(n: int, kind: CriterionKind) -> CriterionValue:
    if n <= 1:
        raise DomainError(f"log log n undefined for n={n}")
    numer = (sigma if kind is CriterionKind.ROBIN_G else dedekind_psi)(n)
    ratio, thr, value = _float_value(n, numer)
    escalated = abs(value) < ESCALATION_BAND
    if escalated:
        value = _decided_value(n, numer)
    return CriterionValue(n=n, kind=kind, ratio=ratio, threshold=thr,
                          value=value, precision_escalated=escalated)


def robin_g(n: int) -> CriterionValue:
    return _criterion(n, CriterionKind.ROBIN_G)


def dedekind_f(n: int) -> CriterionValue:
    return _criterion(n, CriterionKind.DEDEKIND_F)


# ---------------------------------------------------------------------------
# chunked float ratios: the sigma head's kernel.  _chunk_values, the float
# criterion values of a chunk, is the bulk kernel of the test oracles, and
# perfbench/spans.py wraps it by name.

def _chunk_ratios(lo: int, hi: int, kind: CriterionKind):
    """Float psi(n)/n or sigma(n)/n for n in [lo, hi): the exact kernel
    value divided by n, so each ratio is correctly rounded and does not
    depend on chunk boundaries."""
    import numpy as np
    exact = multiplicative_range(lo, hi, kind is CriterionKind.ROBIN_G)
    n = np.arange(lo, hi, dtype=np.float64)
    return np.divide(exact, n, out=n)


def _loglog(n):
    """log log n, one rounding per step, computed in n's float64 buffer."""
    import numpy as np
    np.log(n, out=n)
    return np.log(n, out=n)


def _chunk_values(lo: int, hi: int, kind: CriterionKind):
    """The ratios minus e^gamma log log n, rounded as written."""
    import numpy as np
    values = _chunk_ratios(lo, hi, kind)
    thr = _loglog(np.arange(lo, hi, dtype=np.float64))
    thr *= CONSTANTS.e_gamma
    values -= thr
    return values


def _sigma_margin(n, ratios, c: float):
    """e^gamma llg + c / llg - ratios, llg = log log n computed in n's
    float64 buffer: the one margin of the sigma bound's head walk and of
    its superabundant numbers, rounded as written."""
    import numpy as np
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


def scan_exceptions(kind: CriterionKind, lo: int, hi: int) -> ExceptionReport:
    """All n in [lo, hi) with criterion value >= 0, up to the records'
    ceilings.  The ratio records leave open only the prefix [lo, X).  Its
    numerators come from one call to arith.multiplicative_ints and each
    float value from _float_value, as in _criterion.  _criterion, the one
    exact decision path, then decides each n whose value is at least
    -ESCALATION_BAND; a lower value is neither escalated nor reported
    there, so the report is _criterion's at every n of the prefix.

    Lemma.  For n <= x, ratio(n) <= ratio(s), s the last strict ratio
    record <= x: the largest ratio on [1, x] is first reached at a record.

    Each record r up to hi - 1 (champions.ratio_records) leaves open the
    window [r, min(r', x_r)), r' the next record or hi, x_r = _loglog_root(
    (ratio(r) (1 + 1e-12) + _CANDIDATE_BAND) / e^gamma).  X is the end of
    the last non-empty window, at most hi.  Why no n outside the windows
    (past X, or in a gap below it) is an exception.  For records
    r <= n < r' and n >= x_r, the exact threshold(n) exceeds the exact
    ratio(r) + _CANDIDATE_BAND, as the 1e-12 slacks of x_r and its level
    cover their roundings, and that is at least ratio(n) + the band by the
    lemma: past 2^53, where n is no float, this rests on exact values
    alone.  Below it _criterion's float ratio and threshold are each
    within a few ulps of exact, far inside the slack, so its value at such
    an n is below -_CANDIDATE_BAND: none would be escalated, and the report
    is that of _criterion at every n of [lo, hi).  The least margin at a
    record past 10^6, 1.36 for f and 0.141 for g, is far above the slack.
    X is 47 for f and 5583 for g at every hi past them, so a scan sieves
    at most 5,581 n and decides the 10 or 27 candidates among them, each
    factored in Python ints (arith.factorize).
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
    candidates = []
    if x_end > lo:
        numers = multiplicative_ints(lo, x_end, kind is CriterionKind.ROBIN_G)
        candidates = [n for n, numer in zip(range(lo, x_end), numers)
                      if _float_value(n, numer)[2] >= -ESCALATION_BAND]
    decided = [_criterion(n, kind) for n in candidates]
    found = tuple(cv for cv in decided if cv.value >= 0)
    exceptions = tuple(cv.n for cv in found)
    return ExceptionReport(kind=kind, lo=lo, hi=hi, exceptions=exceptions,
                           values=found,
                           largest=max(exceptions, default=None),
                           escalations=sum(cv.precision_escalated
                                           for cv in decided))


def check_sigma_upper_bound(lo: int, hi: int, c: float = DEFAULT_SIGMA_BOUND_C
                            ) -> Decision:
    """Verify sigma(n)/n <= B(n) = e^gamma L + c / L, L = log log n, on
    [lo, hi) (Robin 1984), by structure and a branch and bound on the head.

    Lemma.  dB/dL = e^gamma - c / L^2, and L > 0 for n >= 3, so B falls
    until L = L0 = sqrt(max(c, 0) / e^gamma), at x0 = _loglog_root(L0), and
    rises after it: B does not decrease for n >= n0(c), the least integer
    >= max(x0, 3), 7 at the default c = 0.6483 and 3 for every c <= 0.  For
    consecutive superabundant numbers s <= n < s', sigma(n)/n <= sigma(s)/s:
    the largest ratio up to n is first reached at a superabundant number,
    and s is the last one up to n.  So for s >= n0 the margin
    B(n) - sigma(n)/n on [s, s') is least at s.  And on any [a, b) the
    margin is at least B(clamp(x0, a, b - 1)) - sigma(s)/s, s the last
    superabundant number <= b - 1.  (x0 lies 1e-12 relative past B's real
    minimum, which moves B at the clamp by a second-order amount far below
    the slack.)

    Let s* be the first superabundant number >= max(lo, n0), or hi if
    there is none below hi (a large c puts n0 past the range).  The margin
    is taken first at each superabundant number in [s*, hi).  The head
    [lo, s*) is cut from lo into chunks of DEFAULT_CHUNK, which are walked
    in increasing order of their bound, until the bound less
    SLACK = 1e-11 (1 + |c|) exceeds the least float margin found.  Every
    margin and bound comes from _sigma_margin, and the witness is the
    least (float margin, n): the first n of least float margin that a walk
    of every chunk finds.

    Slack.  Below 10^8, L lies in [0.094, 2.92], so each float term of a
    margin or a bound is at most 6 + 11 |c|: e^gamma L, c / L, and a ratio
    at most 4.98, that of 73513440.  Each term is within 1e-14 of exact,
    relative, since L comes from two logs each within a few ulps.  With
    its two roundings more, each float margin and bound lies within
    4e-13 (1 + |c|) of exact, so a float margin in a chunk is at least the
    chunk's float bound less 8e-13 (1 + |c|).  A chunk skipped therefore
    holds no float margin at or below the least one found, and the skip
    leaves the witness as it is.  The margin reported, and the pass/fail
    decision, come from the 30-digit evaluator at the witness,
    -_decided_value(witness, sigma(witness), c), within the bound stated
    there; a value within that bound of 0 raises ResourceLimitError.
    """
    if lo < 3:
        raise DomainError("bound is stated for n >= 3")
    if hi <= lo:
        raise DomainError(f"empty range: hi={hi} <= lo={lo}")
    if not math.isfinite(c):
        raise DomainError(f"c must be finite, got {c}")
    if hi > SCAN_CEILING:
        raise ResourceLimitError(f"hi={hi} exceeds scan ceiling {SCAN_CEILING}")
    import numpy as np
    from . import champions  # not at import time: champions imports criteria
    x0 = _loglog_root(math.sqrt(max(c, 0.0) / CONSTANTS.e_gamma))
    ns, sigmas = map(np.array, zip(*champions.ratio_records(
        CriterionKind.ROBIN_G, hi - 1)))
    ratios = sigmas / ns
    first = int(np.searchsorted(ns, max(lo, x0)))
    worst, witness, head_end = math.inf, lo, hi
    if first < len(ns):
        head_end = int(ns[first])
        margin = _sigma_margin(ns[first:].astype(np.float64), ratios[first:],
                               c)
        i = int(np.argmin(margin))
        worst, witness = float(margin[i]), int(ns[first + i])
    starts = np.arange(lo, head_end, DEFAULT_CHUNK)
    last = np.minimum(starts + DEFAULT_CHUNK, head_end) - 1
    bounds = _sigma_margin(np.clip(x0, starts, last).astype(np.float64),
                           ratios[np.searchsorted(ns, last, "right") - 1], c)
    bounds -= 1e-11 * (1 + abs(c))
    for j in np.argsort(bounds, kind="stable"):
        if bounds[j] > worst:
            break
        a, b = int(starts[j]), int(last[j]) + 1
        margin = _sigma_margin(np.arange(a, b, dtype=np.float64),
                               _chunk_ratios(a, b, CriterionKind.ROBIN_G), c)
        i = int(np.argmin(margin))
        if (margin[i], a + i) < (worst, witness):
            worst, witness = float(margin[i]), a + i
    exact = -_decided_value(witness, sigma(witness), c)
    return Decision("sigma_upper", lo, hi - 1, exact > 0, worst_margin=exact,
                    witness=witness)
