"""Candidate-exception sequences and the structural proposition checks.

Both record sequences are built by structure, never by a scan over n.  S
(A060735), the psi-ratio records, is the N_k and l*N_k, 1 <= l < p_{k+1}.
The superabundant numbers (A004394), the sigma-ratio records, where
Robin's inequality fails first if at all (Akbary & Friggstad 2009), are
the strict records among the Hardy-Ramanujan integers (A025487): their
exponents do not increase (Alaoglu & Erdos 1944), and moving any m's
exponents onto the smallest primes gives a Hardy-Ramanujan m' <= m with
at least its ratio.  Exact, to 10^30 in about 1.5 s and 151 MB.  Both
ladders take their primes from prime_engine.first_primes, a stdlib sieve,
and are pure Python, and the identity check's l N_k are 43-smooth, which
arith.factorize splits in Python ints: a command that they settle, props
included, loads no numpy.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter

from .arith import dedekind_psi
from .arith import psi_table, sigma_table  # noqa: F401 (wrapped by perfbench/spans.py)
from .criteria import CriterionKind
from .criteria import dedekind_f  # noqa: F401 (wrapped by perfbench/spans.py)
from .constants import Decision, Record
from .errors import BFileParseError, DomainError, ResourceLimitError
from .prime_engine import first_primes
from .prime_engine import _simple_sieve  # noqa: F401 (wrapped by perfbench/spans.py)

# The ceilings are budgets, measured at the ceiling (the whole command, on a
# 2-core Xeon with 7 GB, 3 fresh runs each).  No command here loads numpy:
# a scan sieves the n of [2, X) in the stdlib and factors its candidates,
# and props the l N_k of its identity check, by the primes below 256 in
# Python ints.
SUPERABUNDANT_CEILING = 10**30  # 1.2-1.4 s, 151 MB: 191 of 726,662 HR n;
#                      as scan g's hi - 1 (ratio_records), 1.3-1.5 s, 151 MB
S_SEQUENCE_CEILING = 10**300  # 0.25-0.36 s, 57 MB: 41,712 terms, 9 MB CSV;
#                      as scan f's hi - 1 (ratio_records), 0.07 s, 15 MB;
#                      as both props limits, by closed forms, 0.07 s, 15 MB
IDENTITY_KMAX = 14  # props at it, both limits 10^300: 0.07 s, 15 MB; the
#                     check itself, 312 l N_k, all 43-smooth and below 2^60,
#                     3 ms in-process


class ChampionNumber(Record):
    __slots__ = {"primorial_index": "int: k >= 1",
                 "multiplier": "int: 1 <= l < p_{k+1}",
                 "value": "int: l * N_k, exact",
                 "psi_ratio_log": "float: sum_{i<=k} log(1 + 1/p_i), "
                                  "independent of l"}


class RecordScanResult(Record):
    __slots__ = {"records": "tuple[tuple[int, int], ...]: (n, sigma(n))",
                 "limit": "int"}


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


def _check_s_limit(limit: int) -> None:
    """Reject a limit past S_SEQUENCE_CEILING, the primorial ladder's."""
    if limit > S_SEQUENCE_CEILING:
        raise ResourceLimitError("limit exceeds ceiling 10**300")


def generate_s_sequence(limit: int) -> list[ChampionNumber]:
    """All l*N_k <= limit with 1 <= l < p_{k+1}, in increasing order.

    Generated structurally from the primorial ladder, never by scanning
    integers; limit is an int up to S_SEQUENCE_CEILING.
    """
    _check_s_limit(limit)
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


def ratio_records(kind: CriterionKind, limit: int) -> tuple[tuple[int, int], ...]:
    """The strict ratio records up to limit as (n, psi(n) or sigma(n)), in
    increasing n: n = 1 and the N_k for psi, the superabundant numbers for
    sigma.  The last record s <= x has the largest ratio on [1, x].

    For psi: an n < N_{k+1} has at most k distinct prime factors, so
    psi(n)/n, the product of 1 + 1/p over p | n, is at most psi(N_k)/N_k,
    with equality only when n is a multiple of N_k.
    """
    if kind is CriterionKind.ROBIN_G:
        return generate_superabundant(limit).records
    _check_s_limit(limit)
    records = [(1, 1)]
    for _, p, primorial, _ in _primorials(limit):
        records.append((primorial, records[-1][1] * (p + 1)))
    return tuple(records)


def psi_multiple_identity_check(k_max: int) -> Decision:
    """Verify psi(l*N_k) = l*psi(N_k) exactly for 1 <= l < p_{k+1} and
    1 <= k <= k_max; the failures are the (k, l) where it does not hold."""
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
    return Decision("psi_multiple_identity", 1, k_max, not failures, cases,
                    failures=tuple(failures))


def verify_prop1(limit: int) -> Decision:
    """For every N_k <= limit and 1 < l < p_{k+1} with l*N_k < min(N_{k+1}, limit):
    f(l*N_k) < f(N_k).

    Proof.  The prime factors of l < p_{k+1} are among p_1, ..., p_k, so
    psi(l N_k)/(l N_k) = psi(N_k)/N_k, and log log (l N_k) > log log N_k.
    So no case fails.  As l N_k < N_{k+1} for every l < p_{k+1}, N_k has
    min(p_{k+1}, ceil(limit / N_k)) - 2 cases, or none; limit is an int up
    to S_SEQUENCE_CEILING, and the claim covers the n of [2, limit - 1]."""
    _check_s_limit(limit)
    cases = sum(max(min(p_next, -(-limit // prim)) - 2, 0)
                for _, _, prim, p_next in _primorials(limit))
    return Decision("prop1", 2, limit - 1, True, cases)


def verify_prop2(limit: int) -> Decision:
    """For every N_k, l >= 1 with (l+1)*N_k < min(N_{k+1}, limit) and every
    l*N_k < m < (l+1)*N_k: f(m) < f(N_k).

    Proof.  m < N_{k+1} has at most k distinct prime factors, and
    psi(m)/m is the product of 1 + 1/p over them, so it is at most the
    product over p_1, ..., p_k, psi(N_k)/N_k (the ratio_records lemma); and
    log log m > log log N_k.  So no case fails.  The m of one k fill the
    window N_k < m < L*N_k, L = floor((min(N_{k+1}, limit) - 1) / N_k),
    multiples of N_k excluded: (L - 1)(N_k - 1) cases when L >= 2; limit is
    an int up to S_SEQUENCE_CEILING, and the claim covers the n of
    [2, limit - 1]."""
    _check_s_limit(limit)
    cases = 0
    for _, _, prim, p_next in _primorials(limit):
        big_l = (min(prim * p_next, limit) - 1) // prim
        cases += max(big_l - 1, 0) * (prim - 1)
    return Decision("prop2", 2, limit - 1, True, cases)


# ---------------------------------------------------------------------------
# OEIS b-file reader

_BFILE_INT = re.compile(r"-?[0-9]+")


def read_bfile(path) -> list[tuple[int, int]]:
    """Parse an OEIS b-file: lines of `<index> <value>`, `#` comments ignored.
    Each field is an ASCII decimal integer with an optional leading `-`.

    Entries are compared by position, so each index must be the previous
    one + 1; a gap, duplicate or out-of-order index raises BFileParseError,
    as does a line, comments included, that is not UTF-8.
    """
    entries = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:  # an undecodable byte was read as a lone surrogate
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise BFileParseError("not UTF-8", lineno) from None
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
