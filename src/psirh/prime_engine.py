"""Segmented prime sieve and compensated Chebyshev theta accumulation.

Primes come from a segmented sieve of Eratosthenes over an odd-number bitmap
(2**20 entries per segment, start offsets in numpy), later segments sieved
ahead on a thread pool (_ordered); it also grows the one small-prime list.
Theta, the running sum of log p, is an unevaluated (hi, lo) pair of binary64
values, about twice the precision of a double.  Each chunk is summed exactly
by repeated extraction (chunk_sum_dd), giving its correctly rounded sum and
residual, and the pairs are combined by error-free double-double addition in
fixed order: bits do not depend on the worker count.
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Iterator
from functools import lru_cache

from .constants import Record
from .errors import CacheParseError, CacheVersionError, DomainError, ResourceLimitError

# numpy is imported inside the functions that make (unannotated) arrays:
# the theta cache and the double-double helpers serve a warm table1 without it.

# Ceilings: index ceiling leaves headroom above 10**7 so the n = 10**7 table
# column plus one successor prime is always reachable.
PRIME_INDEX_CEILING = 10_500_000
PRIME_VALUE_CEILING = 220_000_000

_SEG_ODDS = 1 << 20
_SEG_SPAN = _SEG_ODDS * 2

# The CPUs this process may run on; _ordered reads it at call time.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


def _ordered(fn, jobs):
    """Yield (job[0], fn(*job)) for each argument tuple in jobs, in order.

    With WORKERS > 1 and more than one job, up to WORKERS calls of fn run
    ahead on a thread pool (fn's numpy loops release the GIL) while the
    caller, in its own thread, consumes the result before them.  Otherwise
    the loop is serial and starts no thread.
    """
    workers = WORKERS
    if workers == 1 or len(jobs) <= 1:
        for job in jobs:
            yield job[0], fn(*job)
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        try:
            for job in jobs:
                if len(pending) == workers:
                    key, future = pending.popleft()
                    yield key, future.result()
                pending.append((job[0], pool.submit(fn, *job)))
            while pending:
                key, future = pending.popleft()
                yield key, future.result()
        finally:
            # a closed or failed stream drops the jobs not started yet
            for _, future in pending:
                future.cancel()


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


# Extraction needs 2**M >= n + 2 and M < 52; CHUNK_SUM_MAX_VALUES keeps M at
# most 27, so each round takes at least 25 more bits off every value.
CHUNK_SUM_MAX_VALUES = 1 << 26
_UNIT = 1 << 1074  # every double is an integer count of 2**-1074


def chunk_sum_dd(values) -> tuple[float, float]:
    """Sum a chunk of finite floats to a (hi, lo) pair, exactly.

    Repeated extraction (ExtractVector of Rump, Ogita & Oishi, "Accurate
    floating-point summation part I: faithful rounding", SIAM J. Sci.
    Comput. 31(1), 2008): with sigma = 2**k >= 2**M * max|q| and
    2**M >= n + 2, p = (q + sigma) - sigma and q - p are exact and
    np.sum(p) does not round.  Each round's sum goes into one Python int,
    the exact total in units of 2**-1074, and q - p goes to the next round
    until q is all zero.  hi is the total correctly rounded (math.fsum's
    value) and lo the correctly rounded residual.  Only ufuncs touch the
    array, so the sum releases the GIL.
    """
    import numpy as np
    n = len(values)
    if n > CHUNK_SUM_MAX_VALUES:
        raise ResourceLimitError(
            f"chunk of {n} values exceeds {CHUNK_SUM_MAX_VALUES}")
    q = np.array(values, dtype=np.float64)
    p = np.empty_like(q)
    m = (n + 1).bit_length()  # 2**m >= n + 2
    total = 0
    while True:
        top = max(q.max(initial=0.0), -q.min(initial=0.0))
        if not math.isfinite(top):
            raise DomainError("chunk contains inf or nan")
        if top == 0.0:
            break
        k = math.frexp(top)[1] + m  # top < 2**(k - m)
        if k > 1023:  # sigma would overflow: add the integers >= 2**(1023-m)
            big = np.abs(q) >= math.ldexp(1.0, 1023 - m)
            total += sum(map(int, q[big].tolist())) << 1074
            q[big] = 0.0
            continue
        sigma = math.ldexp(1.0, k)
        np.add(q, sigma, out=p)
        p -= sigma
        num, den = float(p.sum()).as_integer_ratio()
        total += num << (1075 - den.bit_length())
        q -= p
    hi = total / _UNIT
    num, den = hi.as_integer_ratio()
    return hi, (total - num * (_UNIT // den)) / _UNIT


# ---------------------------------------------------------------------------
# sieving

_prime_list = (None, 0)  # (primes, hi): every prime below hi, in an int64 array


def _primes_below(limit: int):
    """The shared list, grown if short to hold every prime below limit >= 1.
    It starts empty and is replaced, never mutated: threads see whole lists."""
    global _prime_list
    primes, hi = _prime_list
    if hi < limit:  # the base first, then [hi, max(2 hi, limit)) in one go
        import numpy as np
        top = max(2 * hi, limit)
        root = math.isqrt(top - 1) + 1  # above every p with p * p < top
        base = _primes_below(root) if root < top else np.empty(0, np.int64)
        more = _segment_primes(hi, top, base)
        primes = np.concatenate([primes, more]) if hi else more
        primes.flags.writeable = False  # and so is every prefix of it
        _prime_list = (primes, top)
    return primes


@lru_cache(maxsize=8)  # kept for the counters perfbench/spans.py reads
def _simple_sieve(limit: int):
    """The primes <= limit: a read-only prefix of the shared list."""
    primes = _primes_below(limit + 1)
    return primes[:primes.searchsorted(limit, "right")]


def _segment_primes(lo: int, hi: int, base):
    """Primes in [lo, hi), via an odd-number bitmap; base is an increasing
    int64 array holding every prime p with p * p < hi."""
    import numpy as np
    lo_odd = lo | 1
    if lo_odd >= hi:
        return np.array([2] if lo <= 2 < hi else [], dtype=np.int64)
    mask = np.ones((hi - lo_odd + 1) // 2, dtype=bool)
    if lo_odd == 1:
        mask[0] = False
    odd = base[base.searchsorted(3):
               base.searchsorted(math.isqrt(hi - 1), "right")]
    # first odd multiple of p that is >= max(p * p, lo_odd), as an offset
    # into the bitmap; one past the end makes an empty slice
    start = np.maximum(-(-lo_odd // odd) | 1, odd)
    start *= odd
    start = (start - lo_odd) >> 1
    for off, p in zip(start.tolist(), odd.tolist()):
        mask[off::p] = False
    primes = np.flatnonzero(mask)
    primes *= 2
    primes += lo_odd
    if lo <= 2 < hi:
        primes = np.concatenate(([2], primes))
    return primes


def iter_prime_chunks(value_limit: int) -> Iterator:
    """Yield consecutive int64 arrays of the primes < value_limit from 2: one
    chunk per 2**21-value segment, the next ones sieved ahead (_ordered)."""
    if value_limit > PRIME_VALUE_CEILING:
        raise ResourceLimitError(
            f"value_limit={value_limit} exceeds ceiling {PRIME_VALUE_CEILING}")
    if value_limit <= 2:
        return
    base = _simple_sieve(math.isqrt(value_limit - 1))
    for _, primes in _ordered(_segment_primes, [
            (lo, min(lo + _SEG_SPAN, value_limit), base)
            for lo in range(0, value_limit, _SEG_SPAN)]):
        yield primes


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

class ThetaPoint(Record, frozen=True):
    __slots__ = {"index": "int", "prime": "int", "theta_hi": "float",
                 "theta_lo": "float"}

    @property
    def theta(self) -> float:
        return self.theta_hi + self.theta_lo


# ---------------------------------------------------------------------------
# theta cache file
#
# A header line, one line per point, then a trailer line
# "end points=<count> sha256=<hex>" whose digest covers every byte before it.
# A file cut or altered anywhere fails the trailer check instead of loading
# a different value.

CACHE_FORMAT_VERSION = 3


class ThetaCache(Record):
    __slots__ = {"points": "list[ThetaPoint]"}
    _defaults = {"points": list}

    def by_index(self) -> dict[int, ThetaPoint]:
        return {p.index: p for p in self.points}


def _cache_trailer(body: bytes, count: int) -> bytes:
    import hashlib  # only a command that reads or writes a cache loads OpenSSL
    return f"end points={count} sha256={hashlib.sha256(body).hexdigest()}\n".encode()


def cache_save(cache: ThetaCache, path) -> None:
    """Write the cache atomically: a temp file in the same directory, then
    os.replace, so readers see the old file or the whole new one."""
    lines = [f"psicache v{CACHE_FORMAT_VERSION}"]
    for p in sorted(cache.points, key=lambda q: q.index):
        lines.append(f"{p.index} {p.prime} "
                     f"{float(p.theta_hi).hex()} {float(p.theta_lo).hex()}")
    body = ("\n".join(lines) + "\n").encode()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(body + _cache_trailer(body, len(cache.points)))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cache_load(path) -> ThetaCache:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise CacheParseError("empty cache file", 1)
    lines = data.decode("utf-8", errors="replace").split("\n")
    header = lines[0].split()
    if len(header) < 2 or header[0] != "psicache" or not header[1].startswith("v"):
        raise CacheParseError(f"bad header {lines[0]!r}", 1)
    try:
        version = int(header[1][1:])
    except ValueError:
        raise CacheParseError(f"bad version field {header[1]!r}", 1) from None
    # the version comes first: an older header has more fields, and that
    # file is rebuilt rather than rejected as corrupt
    if version != CACHE_FORMAT_VERSION:
        raise CacheVersionError(
            f"cache format v{version} incompatible with v{CACHE_FORMAT_VERSION}")
    if len(header) != 2:
        raise CacheParseError(f"bad header {lines[0]!r}", 1)

    # the last line must be the trailer of every byte before it
    body = data[:data.rfind(b"\n", 0, len(data) - 1) + 1]
    rows = lines[1:-2]
    if data[len(body):] != _cache_trailer(body, len(rows)):
        raise CacheParseError(
            "missing or mismatched trailer (truncated or altered file)",
            len(lines) if lines[-1] else len(lines) - 1)

    points = []
    for lineno, line in enumerate(rows, start=2):
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
        points.append(ThetaPoint(index=index, prime=prime,
                                 theta_hi=theta_hi, theta_lo=theta_lo))
    return ThetaCache(points=points)
