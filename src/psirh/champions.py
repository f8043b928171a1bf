"""Candidate-exception sequences and the structural proposition checks.

The sequence S (OEIS A060735) consists of the primorials N_k and their
multiples l*N_k with 1 <= l < p_{k+1}; these are exactly the psi-ratio
record holders.  Superabundant numbers (A004394) are the sigma-ratio record
holders.  All record decisions use exact integer cross-multiplication; no
floating point is consulted for membership.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import criteria
from .arith import dedekind_psi, psi_table, sigma_table
from .criteria import (_CANDIDATE_BAND, CriterionKind, _f_at_least,
                       dedekind_f)
from .errors import BFileParseError, DomainError, ResourceLimitError
from .prime_engine import _nth_prime_value_bound, _simple_sieve

PSI_CHAMPION_CEILING = 10**6
# Budget: 10^7 takes about 2 s and 0.5 GB peak on a 2-core, 7 GB machine.
# Memory grows by about 50 bytes per n (the sigma table and the Python list
# the record scan walks), so 10^8 would need about 5 GB.
SUPERABUNDANT_CEILING = 10**7
PROP1_CEILING = 10**8
PROP2_CEILING = 10**6
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


def _record_scan(table: np.ndarray, start: int, keep_ties: bool) -> list[int]:
    """Every n from start to the end of table whose ratio table[n]/n exceeds
    the best ratio at start <= m < n (or equals it, when keep_ties).
    Decided by exact integer cross-multiplication."""
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


def is_psi_champion(n: int) -> bool:
    """True iff no 2 <= m < n has psi(m)/m strictly above psi(n)/n.

    Ties with the running maximum keep membership: 4 and 24 tie the ratio of
    2 and 6 respectively yet belong to the candidate sequence, while 36 is
    excluded by the strictly larger ratio of 30.  Decided by exact integer
    cross-multiplication.
    """
    if n < 2:
        raise DomainError("psi-champion condition needs n >= 2")
    if n > PSI_CHAMPION_CEILING:
        raise ResourceLimitError(
            f"n={n} exceeds ceiling {PSI_CHAMPION_CEILING}")
    return _record_scan(psi_table(n), 2, keep_ties=True)[-1] == n


def psi_champion_scan(limit: int) -> list[int]:
    """All n <= limit passing is_psi_champion, in one exact pass (the
    brute-force oracle for generate_s_sequence)."""
    if limit > PSI_CHAMPION_CEILING:
        raise ResourceLimitError(
            f"limit={limit} exceeds ceiling {PSI_CHAMPION_CEILING}")
    return _record_scan(psi_table(max(limit, 1)), 2, keep_ties=True)


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
    sig = sigma_table(limit)
    records = tuple((n, int(sig[n]), n)
                    for n in _record_scan(sig, 1, keep_ties=False))
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
    excluded; its float values come from the scan prefilter and every
    value above f(N_k) - _CANDIDATE_BAND is decided by
    criteria._f_at_least."""
    if limit > PROP2_CEILING:
        raise ResourceLimitError(f"limit={limit} exceeds ceiling {PROP2_CEILING}")
    primes = first_primes(int(limit).bit_length() + 1)
    base_primes = _simple_sieve(math.isqrt(max(limit, 1)) + 1).tolist()
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
        lo = prim + 1
        values = criteria._chunk_values(lo, big_l * prim,
                                        CriterionKind.DEDEKIND_F, base_primes)
        values[prim - 1::prim] = -np.inf  # the multiples l*N_k
        cases += (big_l - 1) * (prim - 1)
        band_floor = dedekind_f(prim).value - _CANDIDATE_BAND
        for off in np.nonzero(values > band_floor)[0]:
            m = lo + int(off)
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
