"""Exact evaluation of the multiplicative functions psi, sigma and d.

Everything here is integer-exact: Python ints widen automatically, so no
function value can overflow or be corrupted by rounding.  Bulk values over a
range come from one segmented sieve kernel (multiplicative_range) that
returns exact int64 psi or sigma; single queries use vectorized trial
division over one grown prime list, with deterministic Miller-Rabin for the
cofactor.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ResourceLimitError
from .prime_engine import _segment_primes, _simple_sieve


@dataclass(frozen=True)
class Factorization:
    n: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes increasing


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
# A cofactor >= _MR_LIMIT has no primality proof here, so trial division
# alone must settle it, up to its square root (> 1.8e12).  It stops at this
# bound instead: growing the prime list to 2^24 (1.08M primes, 8.6 MB) and
# dividing by every prime takes about 0.2 s on 2 cores.
FACTORIZE_TRIAL_CEILING = 1 << 24

# (primes, hi): every prime below hi, increasing.  Replaced, never mutated.
_prime_list = (_simple_sieve(255), 256)


def _primes_below(limit: int) -> np.ndarray:
    """An increasing int64 array that starts with every prime below limit.

    The shared list grows by doubling its bound with the segmented sieve, so
    nothing is sieved twice and it never holds primes beyond 2 * limit.
    """
    global _prime_list
    primes, hi = _prime_list
    while hi < limit:
        base = primes[:primes.searchsorted(math.isqrt(2 * hi) + 1)]
        primes = np.concatenate(
            [primes, _segment_primes(hi, 2 * hi, base)])
        hi *= 2
        _prime_list = (primes, hi)
    return primes


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


def factorize(n: int) -> Factorization:
    """Exact prime-power decomposition of n >= 1.

    Trial division runs over blocks of the shared prime list, the primes
    below 256 and then those in [hi, 2 hi) for doubling hi: one numpy
    remainder per block while the cofactor m fits in int64.  It stops once a
    block passes sqrt(m) or m is 1 or proven prime; a cofactor still
    >= _MR_LIMIT once the primes below FACTORIZE_TRIAL_CEILING are tried
    raises ResourceLimitError.
    """
    if n < 1:
        raise DomainError("cannot factorize n < 1")
    m = n
    factors = []
    hi = 256
    i = 0  # index of the first prime not yet tried
    while True:
        hi = min(hi, math.isqrt(m) + 1)
        primes = _primes_below(hi)
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
        if m >= _MR_LIMIT and hi >= FACTORIZE_TRIAL_CEILING:
            raise ResourceLimitError(
                f"cofactor {m} of {n} has no prime factor below {hi} and is "
                f"too large for a primality proof")
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


def multiplicative_range(lo: int, hi: int, want_sigma: bool,
                         base_primes: Sequence[int]) -> np.ndarray:
    """Exact psi(n), or sigma(n) when want_sigma, for lo <= n < hi as int64
    (the entry for n = 0 is 0).

    base_primes must hold every prime p with p * p < hi.  Each such p and
    each power p^k < hi reaches its multiples through one strided slice:
    p^1 multiplies by p + 1; a higher power multiplies psi by p, or replaces
    sigma(p^(k-1)) by sigma(p^k), dividing first so that no intermediate
    exceeds the final value and int64 stays exact.  What is left of n after
    the base primes is 1 or a single prime q, which contributes q + 1.
    Every n sees the same steps in the same order, so the values do not
    depend on how a range is split.
    """
    if lo < 0 or hi <= lo:
        raise DomainError(f"need 0 <= lo < hi, got lo={lo} hi={hi}")
    size = hi - lo
    rem = np.arange(lo, hi, dtype=np.int64)
    val = np.ones(size, dtype=np.int64)
    for p in base_primes:
        if p * p >= hi:
            break
        pk = p
        s_prev = p + 1  # sigma(p^(k-1)) once pk = p^k with k >= 2
        while pk < hi:
            start = max(-(-lo // pk), 1) * pk - lo  # first multiple n >= 1
            if start >= size:
                break
            sl = val[start::pk]
            if pk == p:
                sl *= p + 1
            elif want_sigma:
                s_cur = s_prev * p + 1
                sl //= s_prev
                sl *= s_cur
                s_prev = s_cur
            else:
                sl *= p
            rem[start::pk] //= p
            pk *= p
    np.multiply(val, rem + 1, out=val, where=rem > 1)
    if lo == 0:
        val[0] = 0
    return val


def psi_table(limit: int) -> np.ndarray:
    """Exact psi(n) for 0 <= n <= limit as an int64 array (psi(0) set to 0)."""
    if limit < 1:
        raise DomainError("limit must be >= 1")
    return multiplicative_range(0, limit + 1, False,
                                _simple_sieve(math.isqrt(limit)).tolist())


def sigma_table(limit: int) -> np.ndarray:
    """Exact sigma(n) for 0 <= n <= limit as an int64 array (sigma(0) set to 0)."""
    if limit < 1:
        raise DomainError("limit must be >= 1")
    return multiplicative_range(0, limit + 1, True,
                                _simple_sieve(math.isqrt(limit)).tolist())
