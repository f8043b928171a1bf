"""Exact evaluation of the multiplicative functions psi, sigma and d.

Everything here is integer-exact: Python ints widen automatically, so no
function value can overflow or be corrupted by rounding.  Bulk values over a
range come from one segmented sieve kernel (multiplicative_range) that
returns exact int64 psi or sigma below 2^53: each n starts from a cached
periodic pattern of 2^4, 3^2, 5, 7 and 11, one loop per prime power
multiplies the others in by strided slices, and the one prime left over is
found by dividing n by the smooth part.  A scan's prefix, at most 5,581
n, takes exact Python ints from a stdlib smallest-prime-factor sieve
(multiplicative_ints) instead, with neither numpy nor a factorization
per n.  Single queries use trial division by the primes below 2^27, those
below 256 as Python ints and the rest vectorized, with one deterministic
Miller-Rabin proof per cofactor, so every n < 2^54 factors completely;
psi, sigma, d and squarefreeness share the last two factorizations, so a
query for f(n) and g(n) factors n once.  The vectorized blocks and the
kernel read their primes from prime_engine's one grown list, the first
block from its stdlib sieve first_primes.  numpy is imported by the
functions that make (unannotated) arrays, so a command that builds no
table and whose every n factors by the first block (a cofactor then below
2^16 or proven prime), such as a scan, whose candidates are below 5583,
or props, runs without it.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache

from .constants import Record
from .errors import DomainError, ResourceLimitError
from . import prime_engine
from .prime_engine import _simple_sieve, first_primes


class Factorization(Record):
    __slots__ = {"n": "int",
                 "factors": "tuple[tuple[int, int], ...]: (prime, exponent), "
                            "primes increasing"}


# Deterministic Miller-Rabin: the first k prime bases prove primality below
# psi_k, the least strong pseudoprime to all of them (OEIS A014233; Sorenson
# & Webster, Math. Comp. 86 (2017), for psi_12 and psi_13).  _is_prime uses
# the least k with m < psi_k, so an m below psi_6 takes at most 6 bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747,
           3474749660383, 341550071728321, 341550071728321,
           3825123056546413051, 3825123056546413051, 3825123056546413051,
           318665857834031151167461, 3317044064679887385961981)
_MR_LIMIT = _MR_PSI[-1]
# Trial division stops at this bound, 2^27 >= sqrt(2^53): a cofactor left
# then has no prime factor below 2^27, so below 2^54 it is 1 or prime, and
# one not proven prime raises ResourceLimitError.  Fresh process, 2 vCPU
# Xeon, first call after import, 3 runs each: 94,906,247 * 94,906,249
# (< 2^53) factors in 0.55-0.60 s at 145 MB peak RSS (a second call is a
# cache hit); a rejection with m < 2^63 takes 0.58-0.61 s at 145 MB (44-47
# ms warm), and (2*10^12 + 3)(2*10^12 + 123), past 2^81, 0.65-0.69 s at
# 170-171 MB (123-127 ms warm).  The grown list, the 7.6M primes below 2^27
# (about 58 MB), is kept for the life of the process.
FACTORIZE_TRIAL_CEILING = 1 << 27
# The first trial block, the 54 primes below 256 (p_55 = 257), is tried in
# Python ints.
_SMALL_END = 256
_SMALL_PRIMES = tuple(first_primes(54))


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin; proven only for 0 <= m < _MR_LIMIT."""
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d * 2^s, d odd
    d = (m - 1) >> s
    for a in _MR_BASES[:bisect.bisect_right(_MR_PSI, m) + 1]:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _residues(m: int, block):
    """m mod each prime of block (all below 2^27) in int64: m's top 63 bits,
    then Horner's rule on its 36-bit digits, so r << 36 stays below 2^63."""
    s = -(-max(m.bit_length() - 63, 0) // 36) * 36
    r = (m >> s) % block
    while s:
        s -= 36
        r = (r << 36 | m >> s & (1 << 36) - 1) % block
    return r


@lru_cache(maxsize=2, typed=True)
def factorize(n: int) -> Factorization:
    """Exact prime-power decomposition of n >= 1.

    Trial division runs over blocks of primes: the primes below 256 as
    Python ints (m % p, those up to sqrt(n) only), then the blocks
    [hi, 2 hi) of the shared prime list for doubling hi, with int64
    remainders whatever the size of the cofactor m (_residues).  It stops
    once a block passes sqrt(m) or m is 1 or proven prime, with one
    Miller-Rabin per value of m.  So an n whose cofactor after the first
    block is below 2^16 or proven prime, such as every n < 2^16 and every
    256-smooth n, factors without numpy.  Once the primes below
    FACTORIZE_TRIAL_CEILING = 2^27 are tried, an m not proven prime raises
    ResourceLimitError, so every n < 2^54 factors completely.  The blocks
    come from prime_engine._primes_below, not from the 8-slot _simple_sieve
    lru, which the cycle of about 13 bounds of a query misses.  The last
    two results are cached (a Factorization is frozen), so psi, sigma, d
    and squarefreeness of one n share one factorization and its DomainError
    for n < 1; an exception is raised anew on every call.
    """
    if n < 1:
        raise DomainError("cannot factorize n < 1")
    m = n
    factors = []
    # the first block stops at sqrt(n): below 2^16 a cofactor with no
    # prime factor up to sqrt(n) is 1 or prime, and from 2^16 on every
    # prime below 256 is tried
    small = _SMALL_PRIMES[:bisect.bisect_right(_SMALL_PRIMES, math.isqrt(n))]
    divisors = [p for p in small if m % p == 0]
    hi, j = _SMALL_END, len(_SMALL_PRIMES)
    tested = None  # the last cofactor Miller-Rabin rejected
    while True:
        for p in divisors:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        # m has no prime factor below hi: it is 1 or prime if m < hi^2;
        # an m Miller-Rabin rejected stays composite until it shrinks
        if m < hi * hi or (m != tested and m < _MR_LIMIT
                           and _is_prime(tested := m)):
            break
        if hi >= FACTORIZE_TRIAL_CEILING:
            raise ResourceLimitError(
                f"cofactor {m} of {n} has no prime factor below {hi} and "
                f"is not proven prime")
        hi, i = min(2 * hi, math.isqrt(m) + 1), j
        primes = prime_engine._primes_below(hi)
        j = int(primes.searchsorted(hi))
        block = primes[i:j]
        divisors = block[_residues(m, block) == 0].tolist()
    if m > 1:
        factors.append((m, 1))
    return Factorization(n=n, factors=tuple(factors))


def dedekind_psi(n: int) -> int:
    """psi(n) = n * prod_{p|n} (1 + 1/p), exactly."""
    result = 1
    for p, e in factorize(n).factors:
        result *= p ** (e - 1) * (p + 1)
    return result


def sigma(n: int) -> int:
    """Sum of divisors of n, exactly."""
    result = 1
    for p, e in factorize(n).factors:
        result *= (p ** (e + 1) - 1) // (p - 1)
    return result


def num_divisors(n: int) -> int:
    result = 1
    for _, e in factorize(n).factors:
        result *= e + 1
    return result


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n).factors)


def multiplicative_ints(lo: int, hi: int, want_sigma: bool) -> list[int]:
    """Exact psi(n), or sigma(n) when want_sigma, for 1 <= lo <= n < hi as
    Python ints, from a smallest-prime-factor table of [0, hi) in a list:
    no numpy and no trial division.

    Each d from isqrt(hi - 1) down to 2 strikes d^2, d^2 + d, ..., so the
    last write to a composite n is its least divisor d > 1, a prime, and
    an n never struck is 1 or prime.  Then n = p^k m, p = spf(n) not
    dividing m, has the value of p^k times that of m < n, found before it.
    Time and memory grow with hi, not hi - lo: its caller, a scan's
    prefix, ends at 5583 at most.
    """
    if lo < 1 or hi <= lo:
        raise DomainError(f"need 1 <= lo < hi, got lo={lo} hi={hi}")
    spf = list(range(hi))
    for d in range(math.isqrt(hi - 1), 1, -1):
        spf[d * d::d] = [d] * len(range(d * d, hi, d))
    values = [0, 1] + [0] * (hi - 2)
    for n in range(2, hi):
        p = spf[n]
        m, pk = n // p, p
        while m % p == 0:
            m //= p
            pk *= p
        values[n] = values[m] * ((pk * p - 1) // (p - 1) if want_sigma
                                 else pk + pk // p)
    return values[lo:]


# The kernel starts every n from its pattern part: the part of n made of the
# pattern primes, each power capped.  It is gcd(n mod _PERIOD, _PERIOD), so
# one cached period of it and of its psi or sigma is copied in, and only the
# powers above the caps are visited.
_PATTERN = {2: 4, 3: 2, 5: 1, 7: 1, 11: 1}  # p: cap
_PERIOD = 55440  # 2^4 * 3^2 * 5 * 7 * 11
# q = n / part is one float division, exact for n < 2^53; sigma(n) < 2^56
# there, so int64 is exact too.
KERNEL_CEILING = 1 << 53
_BLOCK = 1 << 15  # the last pass works in cache-sized blocks


@lru_cache(maxsize=2)
def _pattern(want_sigma: bool):
    """(values, part) over one period: part[r] = gcd(r, _PERIOD) and
    values[r] its psi, or its sigma when want_sigma.  The p-part of part[r]
    is gcd(r, p^cap), whose period p^cap divides _PERIOD: each prime's
    factors are built over one p^cap and multiplied into every row of the
    period viewed as rows of p^cap."""
    import numpy as np
    part = np.ones(_PERIOD, dtype=np.int64)
    values = np.ones(_PERIOD, dtype=np.int64)
    for p, cap in _PATTERN.items():
        pe = np.gcd(np.arange(p**cap, dtype=np.int64), p**cap)  # p^e
        for out, factor in ((part, pe), (values, (pe * p - 1) // (p - 1)
                                         if want_sigma else pe + pe // p)):
            out.reshape(-1, p**cap)[...] *= factor
    values.flags.writeable = part.flags.writeable = False  # shared by the cache
    return values, part


def multiplicative_range(lo: int, hi: int, want_sigma: bool):
    """Exact psi(n), or sigma(n) when want_sigma, for lo <= n < hi as int64
    (the entry for n = 0 is 0), for hi <= KERNEL_CEILING = 2^53.

    Its base primes are every p with p * p < hi: _simple_sieve(isqrt(hi - 1)).
    Each n starts from its pattern part (see _PATTERN) and that part's psi or
    sigma.  For each base prime p with a multiple in the window (one numpy
    filter), a loop walks the powers p^k above its pattern cap up to the
    first with no multiple n >= max(lo, 1) here; each p^k reaches its
    multiples through one strided slice and multiplies the smooth part by p.
    p^1 multiplies the value by p + 1; a higher power multiplies psi by p,
    or replaces sigma(p^(k-1)) by sigma(p^k), dividing first so that no
    intermediate exceeds the final value and int64 stays exact.  What is
    left, q = n / part, is 1 or a prime and contributes q + (q > 1).  Every
    value is exact, so it does not depend on how a range is split.
    """
    if lo < 0 or hi <= lo:
        raise DomainError(f"need 0 <= lo < hi, got lo={lo} hi={hi}")
    if hi > KERNEL_CEILING:
        raise DomainError(f"hi={hi} is above the exact kernel's 2^53")
    import numpy as np
    size = hi - lo
    val = np.empty(size, dtype=np.int64)
    part = np.empty(size, dtype=np.int64)
    for a in range(-(lo % _PERIOD), size, _PERIOD):  # one period at a time
        for out, pat in zip((val, part), _pattern(want_sigma)):
            out[max(a, 0):a + _PERIOD] = pat[max(-a, 0):size - a]
    base = _simple_sieve(math.isqrt(hi - 1))
    first = max(lo, 1)  # skip n = 0, which every p^k divides; it ends as 0
    for p in base[-lo % base < size].tolist():  # those with a multiple here
        pk = p ** (_PATTERN.get(p, 0) + 1)  # the first power past the cap
        s = (pk - 1) // (p - 1)  # sigma(pk / p)
        while (o := first - lo + -first % pk) < size:  # n >= first
            sl = val[o::pk]
            if want_sigma:
                if s > 1:
                    sl //= s
                s = s * p + 1
                sl *= s
            else:
                sl *= p + 1 if pk == p else p
            sl = part[o::pk]
            sl *= p
            pk *= p
    for a in range(0, size, _BLOCK):  # q = n / part, exact below 2^53
        q = part[a:a + _BLOCK]
        q[...] = np.arange(lo + a, lo + a + len(q), dtype=np.float64) / q
        q += q > 1  # psi(q) = sigma(q)
        np.multiply(val[a:a + _BLOCK], q, out=val[a:a + _BLOCK])
    return val


def psi_table(limit: int):
    """Exact psi(n) for 0 <= n <= limit as an int64 array (psi(0) set to 0)."""
    if limit < 1:
        raise DomainError("limit must be >= 1")
    return multiplicative_range(0, limit + 1, False)


def sigma_table(limit: int):
    """Exact sigma(n) for 0 <= n <= limit as an int64 array (sigma(0) set to 0)."""
    if limit < 1:
        raise DomainError("limit must be >= 1")
    return multiplicative_range(0, limit + 1, True)
