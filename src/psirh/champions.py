"""Candidate-exception sequences and the structural proposition checks.

Both record sequences are built by structure, never by a scan over n.  S
(A060735), the psi-ratio records, is the N_k and l*N_k, 1 <= l < p_{k+1}.
The superabundant numbers (A004394), the sigma-ratio records, where
Robin's inequality fails first if at all (Akbary & Friggstad 2009), are
the strict records among the Hardy-Ramanujan integers (A025487): their
exponents do not increase (Alaoglu & Erdos 1944), and moving any m's
exponents onto the smallest primes gives a Hardy-Ramanujan m' <= m with
at least its ratio.  Exact, to 10^30 in about 2.5 s and 165 MB.
"""

from __future__ import annotations

import enum
import math
import re
from operator import itemgetter

import numpy as np

from . import criteria
from .arith import dedekind_psi
from .arith import psi_table, sigma_table  # noqa: F401 (wrapped by perfbench/spans.py)
from .criteria import (_CANDIDATE_BAND, CriterionKind, _f_at_least,
                       dedekind_f)
from .constants import Record
from .errors import BFileParseError, DomainError, ResourceLimitError
from .prime_engine import _nth_prime_value_bound, _simple_sieve

# The ceilings are budgets, measured at the ceiling (the whole command, on a
# 2-core Xeon with 7 GB); prop2 walks its range in chunks, in under 65 MB:
SUPERABUNDANT_CEILING = 10**30  # 2.2-2.7 s, 164 MB: 191 of 726,662 HR n
PROP1_CEILING = 10**8
PROP2_CEILING = 10**8          # 4.1 s, 96,453,730 cases
IDENTITY_KMAX = 14  # N_14 * p_15 still fits exact 64-bit-scale evaluation


class ChampionNumber(Record, frozen=True):
    __slots__ = {"primorial_index": "int: k >= 1",
                 "multiplier": "int: 1 <= l < p_{k+1}",
                 "value": "int: l * N_k, exact",
                 "psi_ratio_log": "float: sum_{i<=k} log(1 + 1/p_i), "
                                  "independent of l"}


class RecordScanResult(Record, frozen=True):
    __slots__ = {"records": "tuple[tuple[int, int], ...]: (n, sigma(n))",
                 "limit": "int"}


class Proposition(enum.Enum):
    PROP1 = "prop1"
    PROP2 = "prop2"
    PSI_MULTIPLE_IDENTITY = "psi_multiple_identity"


class PropositionCheck(Record, frozen=True):
    __slots__ = {"proposition": "Proposition", "limit": "int",
                 "cases_checked": "int",
                 "failures": "tuple[tuple[int, ...], ...]"}


def first_primes(k: int) -> list[int]:
    """p_1, ..., p_k (p_1 = 2), the prime factors of the primorial N_k."""
    return _simple_sieve(_nth_prime_value_bound(k))[:k].tolist()


def _primorials(limit: int):
    """Yield (k, p_k, N_k, p_{k+1}) for every primorial N_k <= limit, in
    order: the one primorial ladder behind S and the proposition checks.

    N_k >= 2^k, so every such N_k and its successor prime p_{k+1} lie
    within first_primes(limit.bit_length() + 1).
    """
    primes = first_primes(int(limit).bit_length() + 1)
    primorial = 1
    for k, p in enumerate(primes, start=1):
        primorial *= p
        if primorial > limit:
            return
        yield k, p, primorial, primes[k]


def generate_s_sequence(limit: int) -> list[ChampionNumber]:
    """All l*N_k <= limit with 1 <= l < p_{k+1}, in increasing order.

    Generated structurally from the primorial ladder, never by scanning
    integers; limit may be an arbitrary-precision integer.
    """
    out: list[ChampionNumber] = []
    ratio_log = 0.0
    for k, p, primorial, p_next in _primorials(limit):
        ratio_log += math.log1p(1.0 / p)
        for l in range(1, p_next):
            value = l * primorial
            if value > limit:
                break
            out.append(ChampionNumber(primorial_index=k, multiplier=l,
                                      value=value, psi_ratio_log=ratio_log))
    return out


def _hardy_ramanujan(limit: int, primes: list[int]) -> list[tuple[int, int]]:
    """(n, sigma(n)) for every n = p_1^a_1 ... p_j^a_j <= limit with
    a_1 >= ... >= a_j (A025487, 1 included), unordered.  sigma is multiplied
    up from the exponents, so nothing is factored."""
    out = [(1, 1)]
    stack = [(1, 1, 0, limit.bit_length())]  # n, sigma(n), j, a_j
    while stack:
        n, sig, j, cap = stack.pop()
        p, total = primes[j], 1
        for a in range(1, cap + 1):
            n *= p
            if n > limit:
                break
            total = total * p + 1  # 1 + p + ... + p^a
            out.append((n, sig * total))
            stack.append((n, sig * total, j + 1, a))
    return out


def generate_superabundant(limit: int) -> RecordScanResult:
    """All n <= limit with sigma(m)/m < sigma(n)/n for every m < n
    (A004394, n = 1 included), as (n, sigma(n)) records.

    Superabundant numbers have non-increasing exponents (Alaoglu & Erdos,
    "On highly composite and similar numbers", Trans. AMS 56, 1944), so
    they are Hardy-Ramanujan integers.  Moving any m's exponents onto the
    smallest primes, largest on 2, gives a Hardy-Ramanujan m' <= m with
    sigma(m')/m' >= sigma(m)/m: each move lowers m and raises the product
    of 1 + 1/p + ... + 1/p^a over the p^a of m.  So a strict record among
    the Hardy-Ramanujan integers is a record among all integers.  If
    Robin's inequality fails, it fails first at a superabundant number
    (Akbary & Friggstad, "Superabundant numbers and the Riemann
    hypothesis", Amer. Math. Monthly 116, 2009).
    """
    if limit > SUPERABUNDANT_CEILING:
        raise ResourceLimitError(
            f"limit={limit} exceeds ceiling {SUPERABUNDANT_CEILING}")
    if limit < 1:
        return RecordScanResult(records=(), limit=limit)
    records = []
    for n, sig in sorted(_hardy_ramanujan(
            limit, first_primes(limit.bit_length() + 1)), key=itemgetter(0)):
        if not records or sig * records[-1][0] > records[-1][1] * n:
            records.append((n, sig))
    return RecordScanResult(records=tuple(records), limit=limit)


def psi_multiple_identity_check(k_max: int) -> PropositionCheck:
    """Verify psi(l*N_k) = l*psi(N_k) exactly for 1 <= l < p_{k+1}, k <= k_max."""
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    if k_max > IDENTITY_KMAX:
        raise ResourceLimitError(
            f"k_max={k_max} exceeds exact-arithmetic ceiling {IDENTITY_KMAX}")
    cases = 0
    failures = []
    for k, _, prim, p_next in _primorials(math.prod(first_primes(k_max))):
        psi_prim = dedekind_psi(prim)
        for l in range(1, p_next):
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
    cases = 0
    failures = []
    for k, _, prim, p_next in _primorials(limit):
        band_floor = dedekind_f(prim).value - _CANDIDATE_BAND
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
    cases = 0
    failures = []
    for k, _, prim, p_next in _primorials(limit):
        big_l = (min(prim * p_next, limit) - 1) // prim
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

_BFILE_INT = re.compile(r"-?[0-9]+")


def read_bfile(path) -> list[tuple[int, int]]:
    """Parse an OEIS b-file: lines of `<index> <value>`, `#` comments ignored.
    Each field is an ASCII decimal integer with an optional leading `-`.

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
                # int() would also take "1_2", "+4" and non-ASCII digits
                if not all(map(_BFILE_INT.fullmatch, parts)):
                    raise ValueError
                index, value = int(parts[0]), int(parts[1])
            except ValueError:
                raise BFileParseError(
                    f"non-integer field in {line!r}", lineno) from None
            if entries and index != entries[-1][0] + 1:
                raise BFileParseError(
                    f"index {index} does not follow {entries[-1][0]}", lineno)
            entries.append((index, value))
    return entries
