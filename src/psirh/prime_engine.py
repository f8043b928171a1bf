"""Segmented prime sieve and compensated Chebyshev theta accumulation.

Primes are produced by a segmented sieve of Eratosthenes over an odd-number
bitmap (2**20 entries per segment, cache-resident inner loop).  The running
sum of log p is kept as an unevaluated (hi, lo) pair of binary64 values so
the accumulated theta carries roughly twice the precision of a single double;
chunk sums are obtained from math.fsum plus an exact residual pass, and the
pairs are combined with error-free double-double addition in fixed index
order, so results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import CacheParseError, CacheVersionError, DomainError, ResourceLimitError

# Ceilings: index ceiling leaves headroom above 10**7 so the n = 10**7 table
# column plus one successor prime is always reachable.
PRIME_INDEX_CEILING = 10_500_000
PRIME_VALUE_CEILING = 220_000_000

_SEG_ODDS = 1 << 20
_SEG_SPAN = _SEG_ODDS * 2


# ---------------------------------------------------------------------------
# double-double helpers

def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def dd_add(ahi: float, alo: float, bhi: float, blo: float) -> tuple[float, float]:
    s, e = _two_sum(ahi, bhi)
    e += alo + blo
    hi = s + e
    return hi, e - (hi - s)


def chunk_sum_dd(values) -> tuple[float, float]:
    """Sum a chunk of floats to a (hi, lo) pair.

    hi is the correctly rounded sum (math.fsum); lo is the correctly rounded
    residual, so hi + lo carries ~32 significant decimal digits of the true
    sum of the given binary64 values.
    """
    hi = math.fsum(values)
    if hi == 0.0:
        return 0.0, 0.0
    lo = math.fsum(_chain_neg(values, hi))
    return hi, lo


def _chain_neg(values, hi):
    yield from values
    yield -hi


# ---------------------------------------------------------------------------
# sieving

@lru_cache(maxsize=8)
def _simple_sieve(limit: int) -> np.ndarray:
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def _base_primes(hi: int) -> list[int]:
    return _simple_sieve(max(math.isqrt(max(hi - 1, 0)) + 1, 16)).tolist()


def _segment_primes(lo: int, hi: int, base: Sequence[int]) -> np.ndarray:
    """Primes in [lo, hi) for lo >= 3, via an odd-number bitmap."""
    lo_odd = lo | 1
    if lo_odd >= hi:
        return np.empty(0, dtype=np.int64)
    n_odd = (hi - lo_odd + 1) // 2
    mask = np.ones(n_odd, dtype=bool)
    if lo_odd == 1:
        mask[0] = False
    for p in base:
        if p == 2:
            continue
        if p * p >= hi:
            break
        start = max(p * p, ((lo_odd + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start >= hi:
            continue
        mask[(start - lo_odd) // 2:: p] = False
    return lo_odd + 2 * np.nonzero(mask)[0].astype(np.int64)


def iter_prime_chunks(value_limit: int) -> Iterator[np.ndarray]:
    """Yield consecutive chunks of primes < value_limit, starting at 2."""
    if value_limit > PRIME_VALUE_CEILING:
        raise ResourceLimitError(
            f"value_limit={value_limit} exceeds ceiling {PRIME_VALUE_CEILING}")
    base = _base_primes(value_limit)
    first_hi = min(_SEG_SPAN, value_limit)
    if first_hi > 2:
        head = _segment_primes(3, first_hi, base)
        yield np.concatenate([np.array([2], dtype=np.int64), head])
    elif value_limit > 2:
        yield np.array([2], dtype=np.int64)
    for seg_lo in range(_SEG_SPAN, value_limit, _SEG_SPAN):
        seg_hi = min(seg_lo + _SEG_SPAN, value_limit)
        yield _segment_primes(seg_lo, seg_hi, base)


def _nth_prime_value_bound(n: int) -> int:
    # Rosser-Schoenfeld upper bound, valid for n >= 6.
    if n < 6:
        return 15
    ln = math.log(n)
    return int(n * (ln + math.log(ln))) + 1


def nth_prime(n: int) -> int:
    """The n-th prime, 1-indexed (p_1 = 2)."""
    if n < 1:
        raise DomainError("prime index must be >= 1")
    if n > PRIME_INDEX_CEILING:
        raise ResourceLimitError(
            f"n={n} exceeds configured index ceiling {PRIME_INDEX_CEILING}")
    bound = min(_nth_prime_value_bound(n), PRIME_VALUE_CEILING)
    count = 0
    for chunk in iter_prime_chunks(bound):
        if count + len(chunk) >= n:
            return int(chunk[n - count - 1])
        count += len(chunk)
    raise RuntimeError(f"prime bound {bound} too small for index {n}")


# ---------------------------------------------------------------------------
# theta accumulation

@dataclass(frozen=True)
class ThetaPoint:
    index: int
    prime: int
    theta_hi: float
    theta_lo: float

    @property
    def theta(self) -> float:
        return self.theta_hi + self.theta_lo


# ---------------------------------------------------------------------------
# theta cache file

CACHE_FORMAT_VERSION = 1


@dataclass
class ThetaCache:
    checkpoint_stride: int
    points: list[ThetaPoint] = field(default_factory=list)
    format_version: int = CACHE_FORMAT_VERSION

    def by_index(self) -> dict[int, ThetaPoint]:
        return {p.index: p for p in self.points}


def cache_save(cache: ThetaCache, path) -> None:
    lines = [f"psicache v{cache.format_version} stride={cache.checkpoint_stride}"]
    for p in sorted(cache.points, key=lambda q: q.index):
        lines.append(f"{p.index} {p.prime} "
                     f"{float(p.theta_hi).hex()} {float(p.theta_lo).hex()}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cache_load(path) -> ThetaCache:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CacheParseError("empty cache file", 1)
    header = lines[0].split()
    if len(header) != 3 or header[0] != "psicache" or not header[1].startswith("v"):
        raise CacheParseError(f"bad header {lines[0]!r}", 1)
    try:
        version = int(header[1][1:])
    except ValueError:
        raise CacheParseError(f"bad version field {header[1]!r}", 1) from None
    if version != CACHE_FORMAT_VERSION:
        raise CacheVersionError(
            f"cache format v{version} incompatible with v{CACHE_FORMAT_VERSION}")
    if not header[2].startswith("stride="):
        raise CacheParseError(f"bad stride field {header[2]!r}", 1)
    try:
        stride = int(header[2][len("stride="):])
    except ValueError:
        raise CacheParseError(f"bad stride field {header[2]!r}", 1) from None
    if stride < 1:
        raise CacheParseError(f"stride must be >= 1, got {stride}", 1)

    points = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(" ")
        if len(parts) != 4:
            raise CacheParseError(f"expected 4 fields, got {len(parts)}", lineno)
        try:
            index = int(parts[0])
            prime = int(parts[1])
            theta_hi = float.fromhex(parts[2])
            theta_lo = float.fromhex(parts[3])
        except ValueError as exc:
            raise CacheParseError(str(exc), lineno) from None
        if index % stride != 0 and stride != 1:
            raise CacheParseError(
                f"index {index} is not a multiple of stride {stride}", lineno)
        points.append(ThetaPoint(index=index, prime=prime,
                                 theta_hi=theta_hi, theta_lo=theta_lo))
    return ThetaCache(checkpoint_stride=stride, points=points, format_version=version)
