"""Exact evaluation of the multiplicative functions psi, sigma and d.

Everything here is integer-exact: Python ints widen automatically, so no
function value can overflow or be corrupted by rounding.  Bulk values over a
range come from one segmented sieve kernel (multiplicative_range) that
returns exact int64 psi or sigma below 2^53: each n starts from a cached
periodic pattern of the prime powers 2^4, 3^2, 5, 7 and 11, the other prime
powers multiply into it by strided slices, and the one prime left over is
found by dividing n by the smooth part.  Single queries use vectorized
trial division, with deterministic Miller-Rabin for the cofactor and
Brent's rho for a composite cofactor whose prime factors are all above the
trial bound.  Both read their primes from prime_engine's one grown list.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import lru_cache

import numpy as np

from .constants import Record
from .errors import DomainError, ResourceLimitError
from . import prime_engine
from .prime_engine import _simple_sieve


class Factorization(Record, frozen=True):
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
# Trial division stops at this bound: growing the prime list to 2^24 (1.08M
# primes, 8.6 MB) and dividing by every prime takes about 0.2 s on 2 cores.
# A cofactor >= _MR_LIMIT left then has no primality proof here; a smaller
# composite one is split by Brent's rho, which needs about 1.2 sqrt(p) steps
# for its least prime factor p < 1.9e12, at about 0.5 us a step on a 2-core
# Xeon: about 1 s for two primes near 10^12, at most about 9 s at this cap.
FACTORIZE_TRIAL_CEILING = 1 << 24
RHO_STEP_CAP = 1 << 24
_RHO_BATCH = 128  # steps per gcd


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


def _rho(m: int) -> int:
    """A factor 1 < d < m of an odd composite m: Brent's variant of
    Pollard's rho (BIT 20 (1980) 176-184), x -> x^2 + c from the fixed seed
    x = 2, for c = 1, 2, ...  Raises ResourceLimitError rather than take
    more than RHO_STEP_CAP steps in all."""
    root = math.isqrt(m)
    if root * root == m:
        return root
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # at most, in this round
            if steps > RHO_STEP_CAP:
                raise ResourceLimitError(
                    f"no factor of {m} within {RHO_STEP_CAP} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                k += _RHO_BATCH
            r *= 2
        if g == m:  # the batch overshot: redo it one gcd per step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g


def _split(m: int) -> list[int]:
    """The prime factors of an odd 1 < m < _MR_LIMIT, with multiplicity and
    increasing, each proven by _is_prime."""
    if _is_prime(m):
        return [m]
    d = _rho(m)
    return sorted(_split(d) + _split(m // d))


def factorize(n: int) -> Factorization:
    """Exact prime-power decomposition of n >= 1.

    Trial division runs over blocks of the shared prime list, the primes
    below 256 and then those in [hi, 2 hi) for doubling hi: one numpy
    remainder per block while the cofactor m fits in int64.  It stops once a
    block passes sqrt(m) or m is 1 or proven prime.  Once the primes below
    FACTORIZE_TRIAL_CEILING are tried, a composite m < _MR_LIMIT is split by
    Brent's rho (_split), and an m >= _MR_LIMIT raises ResourceLimitError.
    The blocks come from prime_engine._primes_below, not from the 8-slot
    _simple_sieve lru, which the cycle of about 13 bounds of a query misses.
    """
    if n < 1:
        raise DomainError("cannot factorize n < 1")
    m = n
    factors = []
    hi = 256
    i = 0  # index of the first prime not yet tried
    while True:
        hi = min(hi, math.isqrt(m) + 1)
        primes = prime_engine._primes_below(hi)
        j = int(primes.searchsorted(hi))
        block = primes[i:j]
        if m < 1 << 63:
            hits = block[m % block == 0].tolist()
        else:
            hits = [p for p in block.tolist() if m % p == 0]
        for p in hits:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        # m has no prime factor below hi: it is 1 or prime if m < hi^2
        if m < hi * hi or (m < _MR_LIMIT and _is_prime(m)):
            break
        if hi >= FACTORIZE_TRIAL_CEILING:
            if m >= _MR_LIMIT:
                raise ResourceLimitError(
                    f"cofactor {m} of {n} has no prime factor below {hi} and "
                    f"is too large for a primality proof")
            rest = _split(m)
            factors += [(p, rest.count(p)) for p in sorted(set(rest))]
            m = 1
            break
        hi, i = 2 * hi, j
    if m > 1:
        factors.append((m, 1))
    return Factorization(n=n, factors=tuple(factors))


def dedekind_psi(n: int) -> int:
    """psi(n) = n * prod_{p|n} (1 + 1/p), exactly."""
    if n < 1:
        raise DomainError("psi undefined for n < 1")
    result = 1
    for p, e in factorize(n).factors:
        result *= p ** (e - 1) * (p + 1)
    return result


def sigma(n: int) -> int:
    """Sum of divisors of n, exactly."""
    if n < 1:
        raise DomainError("sigma undefined for n < 1")
    result = 1
    for p, e in factorize(n).factors:
        result *= (p ** (e + 1) - 1) // (p - 1)
    return result


def num_divisors(n: int) -> int:
    if n < 1:
        raise DomainError("d undefined for n < 1")
    result = 1
    for _, e in factorize(n).factors:
        result *= e + 1
    return result


def is_squarefree(n: int) -> bool:
    if n < 1:
        raise DomainError("squarefreeness undefined for n < 1")
    return all(e == 1 for _, e in factorize(n).factors)


# The kernel starts every n from its pattern part: the part of n made of the
# pattern primes, each power capped.  It is gcd(n mod _PERIOD, _PERIOD), so
# one cached period of it and of its psi or sigma is copied in, and only the
# powers above the caps are visited.
_PATTERN = ((2, 4), (3, 2), (5, 1), (7, 1), (11, 1))  # (p, cap)
_PERIOD = 55440  # 2^4 * 3^2 * 5 * 7 * 11
# q = n / part is one float division, exact for n < 2^53; sigma(n) < 2^56
# there, so int64 is exact too.
KERNEL_CEILING = 1 << 53
_BLOCK = 1 << 15  # the last pass works in cache-sized blocks


@lru_cache(maxsize=2)
def _pattern(want_sigma: bool) -> tuple[np.ndarray, np.ndarray]:
    """(values, part) over one period: part[r] = gcd(r, _PERIOD) and
    values[r] its psi, or its sigma when want_sigma."""
    part = np.gcd(np.arange(_PERIOD, dtype=np.int64), _PERIOD)
    values = np.ones(_PERIOD, dtype=np.int64)
    for p, cap in _PATTERN:
        pe = np.gcd(part, p**cap)  # p^e, e the exponent of p in part
        values *= (pe * p - 1) // (p - 1) if want_sigma else pe + pe // p
    values.flags.writeable = part.flags.writeable = False  # shared by the cache
    return values, part


def multiplicative_range(lo: int, hi: int, want_sigma: bool) -> np.ndarray:
    """Exact psi(n), or sigma(n) when want_sigma, for lo <= n < hi as int64
    (the entry for n = 0 is 0), for hi <= KERNEL_CEILING = 2^53.

    Its base primes are every p with p * p < hi: _simple_sieve(isqrt(hi - 1)).
    Each n starts from its pattern part (see _PATTERN) and that part's psi or
    sigma.  Every other base prime p, and every power p^k < hi above a
    pattern cap, then reaches its multiples through one strided slice; the
    first multiples of all primes at one exponent come from one numpy pass.
    The smooth part is multiplied by p.  p^1 multiplies the value by p + 1;
    a higher power multiplies psi by p, or replaces sigma(p^(k-1)) by
    sigma(p^k), dividing first so that no intermediate exceeds the final
    value and int64 stays exact.  What is left, q = n / part, is 1 or a
    prime and contributes q + (q > 1).  Every value is exact, so it does not
    depend on how a range is split.
    """
    if lo < 0 or hi <= lo:
        raise DomainError(f"need 0 <= lo < hi, got lo={lo} hi={hi}")
    if hi > KERNEL_CEILING:
        raise DomainError(f"hi={hi} is above the exact kernel's 2^53")
    size = hi - lo
    val = np.empty(size, dtype=np.int64)
    part = np.empty(size, dtype=np.int64)
    for a in range(-(lo % _PERIOD), size, _PERIOD):  # one period at a time
        for out, pat in zip((val, part), _pattern(want_sigma)):
            out[max(a, 0):a + _PERIOD] = pat[max(-a, 0):size - a]
    p = _simple_sieve(math.isqrt(hi - 1))
    pk = p.copy()  # the power of p visited next
    for i, (_, cap) in enumerate(_PATTERN[:p.searchsorted(11, "right")]):
        pk[i] **= cap + 1
    s = (pk - 1) // (p - 1)  # sigma(pk / p)
    while p.size:
        start = np.maximum(-(-lo // pk), 1) * pk - lo  # first multiple n >= 1
        hit = start < size
        p, pk, s, start = p[hit], pk[hit], s[hit], start[hit]
        s_next = s * p + 1
        mult = s_next if want_sigma else np.where(pk == p, p + 1, p)
        for o, step, prime, d, m in zip(start.tolist(), pk.tolist(),
                                        p.tolist(), s.tolist(), mult.tolist()):
            sl = val[o::step]
            if want_sigma and d > 1:
                sl //= d
            sl *= m
            sl = part[o::step]
            sl *= prime
        more = pk <= (hi - 1) // p
        p, pk, s = p[more], pk[more] * p[more], s_next[more]
    for a in range(0, size, _BLOCK):  # q = n / part, exact below 2^53
        q = part[a:a + _BLOCK]
        q[...] = np.arange(lo + a, lo + a + len(q), dtype=np.float64) / q
        q += q > 1  # psi(q) = sigma(q)
        np.multiply(val[a:a + _BLOCK], q, out=val[a:a + _BLOCK])
    return val


def psi_table(limit: int) -> np.ndarray:
    """Exact psi(n) for 0 <= n <= limit as an int64 array (psi(0) set to 0)."""
    if limit < 1:
        raise DomainError("limit must be >= 1")
    return multiplicative_range(0, limit + 1, False)


def sigma_table(limit: int) -> np.ndarray:
    """Exact sigma(n) for 0 <= n <= limit as an int64 array (sigma(0) set to 0)."""
    if limit < 1:
        raise DomainError("limit must be >= 1")
    return multiplicative_range(0, limit + 1, True)
