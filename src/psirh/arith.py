"""Exact evaluation of the multiplicative functions psi, sigma and d.

Everything here is integer-exact: Python ints widen automatically, so no
function value can overflow or be corrupted by rounding.  Bulk values over a
range come from one segmented sieve kernel (multiplicative_range) that
returns exact int64 psi or sigma; single queries fall back to trial
division by sieved primes up to sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .prime_engine import _simple_sieve


@dataclass(frozen=True)
class Factorization:
    n: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes increasing


def _trial_primes(n: int):
    """Primes for trial division, sieved lazily so the bound tracks the
    shrinking cofactor instead of sqrt of the original n."""
    lo = 2
    block = 1 << 16
    while True:
        for p in _simple_sieve(min(lo + block, math.isqrt(n) + 2)).tolist():
            if p >= lo:
                yield p
        lo += block
        if lo > math.isqrt(n) + 1:
            return
        block *= 4


def factorize(n: int) -> Factorization:
    """Exact prime-power decomposition of n >= 1."""
    if n < 1:
        raise DomainError("cannot factorize n < 1")
    m = n
    factors = []
    for p in _trial_primes(n):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
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
    big = rem > 1
    val[big] *= rem[big] + 1
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
