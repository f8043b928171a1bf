"""Candidate-exception sequences and the structural proposition checks.

The sequence S (OEIS A060735) consists of the primorials N_k and their
multiples l*N_k with 1 <= l < p_{k+1}; these are exactly the psi-ratio
record holders.  Superabundant numbers (A004394) are the sigma-ratio record
holders.  Every record decision is an exact integer cross-multiplication;
the float ratios only rule out n strictly below the running maximum.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import criteria
from .arith import dedekind_psi, sigma
from .arith import psi_table, sigma_table  # noqa: F401 (wrapped by perfbench/spans.py)
from .criteria import (_CANDIDATE_BAND, CriterionKind, _f_at_least,
                       dedekind_f)
from .errors import BFileParseError, DomainError, ResourceLimitError
from .prime_engine import _nth_prime_value_bound, _simple_sieve

# The record scans and prop2 walk their range in chunks, so memory stays
# O(chunk): at most 94 MB peak RSS at each ceiling.  The ceilings are time
# budgets, measured at the ceiling on a 2-core Xeon with 7 GB:
PSI_CHAMPION_CEILING = 10**8   # 8.5 s, 78 records
SUPERABUNDANT_CEILING = 10**8  # 8.8 s, 42 records
PROP1_CEILING = 10**8
PROP2_CEILING = 10**8          # 7.1 s, 96,453,730 cases
IDENTITY_KMAX = 14  # N_14 * p_15 still fits exact 64-bit-scale evaluation


@dataclass(frozen=True)
class ChampionNumber:
    primorial_index: int  # k >= 1
    multiplier: int       # 1 <= l < p_{k+1}
    value: int            # l * N_k, exact
    psi_ratio_log: float  # sum_{i<=k} log(1 + 1/p_i), independent of l


@dataclass(frozen=True)
class RecordScanResult:
    records: tuple[tuple[int, int, int], ...]  # (n, ratio_num, ratio_den)
    limit: int


class Proposition(enum.Enum):
    PROP1 = "prop1"
    PROP2 = "prop2"
    PSI_MULTIPLE_IDENTITY = "psi_multiple_identity"


@dataclass(frozen=True)
class PropositionCheck:
    proposition: Proposition
    limit: int
    cases_checked: int
    failures: tuple[tuple[int, ...], ...]


def first_primes(k: int) -> list[int]:
    """p_1, ..., p_k (p_1 = 2), the prime factors of the primorial N_k.

    N_k >= 2^k, so every N_k <= limit and its successor prime p_{k+1} lie
    within first_primes(limit.bit_length() + 1).
    """
    return _simple_sieve(max(_nth_prime_value_bound(k), 16))[:k].tolist()


def generate_s_sequence(limit: int) -> list[ChampionNumber]:
    """All l*N_k <= limit with 1 <= l < p_{k+1}, in increasing order.

    Generated structurally from the primorial ladder, never by scanning
    integers; limit may be an arbitrary-precision integer.
    """
    if limit < 2:
        return []
    primes = first_primes(int(limit).bit_length() + 1)
    out: list[ChampionNumber] = []
    primorial = 1
    ratio_log = 0.0
    for k, p in enumerate(primes, start=1):
        primorial *= p
        if primorial > limit:
            break
        ratio_log += math.log1p(1.0 / p)
        p_next = primes[k]
        for l in range(1, p_next):
            value = l * primorial
            if value > limit:
                break
            out.append(ChampionNumber(primorial_index=k, multiplier=l,
                                      value=value, psi_ratio_log=ratio_log))
    return out


def _record_scan(kind: CriterionKind, start: int, limit: int,
                 keep_ties: bool) -> list[int]:
    """Every n in [start, limit] whose ratio psi(n)/n (or sigma(n)/n) exceeds
    the best ratio at start <= m < n (or equals it, when keep_ties).

    The chunk ratios are the kernel's exact value divided by n, both below
    2^53 for n <= 10^9, so each is correctly rounded.  Rounding is monotone,
    so a float strictly below the running float maximum belongs to an n
    that is neither a record nor a tie.  Every other n is decided by exact
    integer cross-multiplication.
    """
    ratio_fn = criteria._RATIO_FN[kind]
    best_num, best_den = 0, 1
    best_float = -math.inf
    out = []
    for c_lo, ratios in criteria._chunks(criteria._chunk_ratios,
                                         start, limit + 1, kind):
        # running[i]: the largest float ratio of every m before c_lo + i
        running = np.maximum.accumulate(np.concatenate(([best_float], ratios)))
        best_float = running[-1]
        for off in np.nonzero(ratios >= running[:-1])[0]:
            n = c_lo + int(off)
            num = ratio_fn(n)
            lhs = num * best_den
            rhs = best_num * n
            if lhs > rhs:
                best_num, best_den = num, n
                out.append(n)
            elif keep_ties and lhs == rhs:
                out.append(n)
    return out


def psi_champion_scan(limit: int) -> list[int]:
    """All 2 <= n <= limit with no 2 <= m < n of strictly larger psi(m)/m,
    in one pass (the brute-force oracle for generate_s_sequence).

    Ties with the running maximum keep membership: 4 and 24 tie the ratio of
    2 and 6 respectively yet belong to S, while 36 is excluded by the
    strictly larger ratio of 30.
    """
    if limit < 2:
        raise DomainError("psi-champion scan needs limit >= 2")
    if limit > PSI_CHAMPION_CEILING:
        raise ResourceLimitError(
            f"limit={limit} exceeds ceiling {PSI_CHAMPION_CEILING}")
    return _record_scan(CriterionKind.DEDEKIND_F, 2, limit, keep_ties=True)


def generate_superabundant(limit: int) -> RecordScanResult:
    """All n <= limit with sigma(m)/m < sigma(n)/n for every m < n.

    n = 1 is included (the condition is vacuous there, matching the OEIS
    convention for A004394).
    """
    if limit > SUPERABUNDANT_CEILING:
        raise ResourceLimitError(
            f"limit={limit} exceeds ceiling {SUPERABUNDANT_CEILING}")
    if limit < 1:
        return RecordScanResult(records=(), limit=limit)
    records = tuple((n, sigma(n), n) for n in
                    _record_scan(CriterionKind.ROBIN_G, 1, limit,
                                 keep_ties=False))
    return RecordScanResult(records=records, limit=limit)


def psi_multiple_identity_check(k_max: int) -> PropositionCheck:
    """Verify psi(l*N_k) = l*psi(N_k) exactly for 1 <= l < p_{k+1}, k <= k_max."""
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    if k_max > IDENTITY_KMAX:
        raise ResourceLimitError(
            f"k_max={k_max} exceeds exact-arithmetic ceiling {IDENTITY_KMAX}")
    primes = first_primes(k_max + 1)
    cases = 0
    failures = []
    prim = 1
    for k in range(1, k_max + 1):
        prim *= primes[k - 1]
        psi_prim = dedekind_psi(prim)
        for l in range(1, primes[k]):
            cases += 1
            if dedekind_psi(l * prim) != l * psi_prim:
                failures.append((k, l))
    return PropositionCheck(proposition=Proposition.PSI_MULTIPLE_IDENTITY,
                            limit=k_max, cases_checked=cases,
                            failures=tuple(failures))


def verify_prop1(limit: int) -> PropositionCheck:
    """For every N_k <= limit and 1 < l < p_{k+1} with l*N_k < min(N_{k+1}, limit):
    f(l*N_k) < f(N_k).

    As in the scans, a float value below f(N_k) - _CANDIDATE_BAND is
    trusted; every other case is decided by criteria._f_at_least."""
    if limit > PROP1_CEILING:
        raise ResourceLimitError(f"limit={limit} exceeds ceiling {PROP1_CEILING}")
    primes = first_primes(int(limit).bit_length() + 1)
    cases = 0
    failures = []
    prim = 1
    for k, p in enumerate(primes, start=1):
        prim *= p
        if prim > limit:
            break
        band_floor = dedekind_f(prim).value - _CANDIDATE_BAND
        p_next = primes[k]
        next_prim = prim * p_next
        for l in range(2, p_next):
            value = l * prim
            if value >= min(next_prim, limit):
                break
            cases += 1
            if (dedekind_f(value).value > band_floor
                    and _f_at_least(value, prim)):
                failures.append((k, l))
    return PropositionCheck(proposition=Proposition.PROP1, limit=limit,
                            cases_checked=cases, failures=tuple(failures))


def verify_prop2(limit: int) -> PropositionCheck:
    """For every N_k, l >= 1 with (l+1)*N_k < min(N_{k+1}, limit) and every
    l*N_k < m < (l+1)*N_k: f(m) < f(N_k).

    The m of one k fill the window N_k < m < L*N_k, multiples of N_k
    excluded; it is walked chunk by chunk, its float values come from the
    scan prefilter, and every value above f(N_k) - _CANDIDATE_BAND is
    decided by criteria._f_at_least."""
    if limit > PROP2_CEILING:
        raise ResourceLimitError(f"limit={limit} exceeds ceiling {PROP2_CEILING}")
    primes = first_primes(int(limit).bit_length() + 1)
    cases = 0
    failures = []
    prim = 1
    for k, p in enumerate(primes, start=1):
        prim *= p
        if prim > limit:
            break
        big_l = (min(prim * primes[k], limit) - 1) // prim
        if big_l < 2:
            continue
        cases += (big_l - 1) * (prim - 1)
        band_floor = dedekind_f(prim).value - _CANDIDATE_BAND
        for c_lo, values in criteria._chunks(criteria._chunk_values,
                                             prim + 1, big_l * prim,
                                             CriterionKind.DEDEKIND_F):
            values[-c_lo % prim::prim] = -np.inf  # the multiples l*N_k
            for off in np.nonzero(values > band_floor)[0]:
                m = c_lo + int(off)
                if _f_at_least(m, prim):
                    failures.append((k, m // prim, m))
    return PropositionCheck(proposition=Proposition.PROP2, limit=limit,
                            cases_checked=cases, failures=tuple(failures))


# ---------------------------------------------------------------------------
# OEIS b-file reader

def read_bfile(path) -> list[tuple[int, int]]:
    """Parse an OEIS b-file: lines of `<index> <value>`, `#` comments ignored.

    Entries are compared by position, so each index must be the previous
    one + 1; a gap, duplicate or out-of-order index raises BFileParseError.
    """
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise BFileParseError(
                    f"expected `<index> <value>`, got {line!r}", lineno)
            try:
                index, value = int(parts[0]), int(parts[1])
            except ValueError:
                raise BFileParseError(
                    f"non-integer field in {line!r}", lineno) from None
            if entries and index != entries[-1][0] + 1:
                raise BFileParseError(
                    f"index {index} does not follow {entries[-1][0]}", lineno)
            entries.append((index, value))
    return entries
