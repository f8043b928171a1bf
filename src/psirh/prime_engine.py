"""Segmented prime sieve and exact Chebyshev theta accumulation.

Primes come, the first n at a time, from a segmented sieve of Eratosthenes
over an odd-number bitmap (2**20 entries per segment, presieved by the
wheel of 3, 5, 7, 11 and 13, start offsets in numpy), later segments sieved
ahead on WORKERS - 1 pool threads (_ordered), so the pass that reads them
keeps a core of its own; it also grows the one small-prime list.
Theta, the running sum of log p, is summed exactly: repeated extraction
(chunk_sum_dd) makes each chunk's sum a Python int counting units of
2**-1074, totals add with +, and dd_pair reads one out as an unevaluated
(hi, lo) pair of binary64 values, its correctly rounded sum and residual.
Bits depend neither on the worker count nor on the chunking.
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Iterator
from functools import lru_cache
from itertools import compress, islice

from .constants import Record
from .errors import CacheParseError, CacheVersionError, DomainError, ResourceLimitError

# numpy is imported inside the functions that make (unannotated) arrays:
# the theta cache and dd_pair serve a warm table1 without it.

# The one ceiling of the prime stream, a count of primes: headroom above 10**7
# so the n = 10**7 table column plus one successor prime is always reachable.
# At the ceiling, table2 --indices 10500000 takes about 0.6-0.85 s and 37 MB
# peak RSS on 2 vCPUs.
PRIME_INDEX_CEILING = 10_500_000

_SEG_ODDS = 1 << 20
_SEG_SPAN = _SEG_ODDS * 2
_WHEEL = (3, 5, 7, 11, 13)  # presieved: no segment strikes them
_WHEEL_ODDS = math.prod(_WHEEL)  # 15015 odd values, a period of 30030

# The CPUs this process may run on; _ordered reads it at call time.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


def _ordered(fn, jobs):
    """Yield fn(*job) for each argument tuple in jobs, in order: the prime
    stream's pipeline.

    With WORKERS > 1 and more than one job, up to WORKERS calls of fn run
    ahead on WORKERS - 1 pool threads (fn's numpy loops release the GIL)
    while the caller, in its own thread, consumes the result before them,
    so the pass that reads the stream keeps a core.  Otherwise the loop is
    serial and starts no thread.
    """
    workers = WORKERS
    if workers == 1 or len(jobs) <= 1:
        for job in jobs:
            yield fn(*job)
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers - 1) as pool:
        pending = deque()
        try:
            for job in jobs:
                if len(pending) == workers:
                    yield pending.popleft().result()
                pending.append(pool.submit(fn, *job))
            while pending:
                yield pending.popleft().result()
        finally:
            # a closed or failed stream drops the jobs not started yet
            for future in pending:
                future.cancel()


# ---------------------------------------------------------------------------
# exact sums

# Extraction needs 2**M >= n + 2 and M < 52; CHUNK_SUM_MAX_VALUES keeps M at
# most 27, so each round takes at least 25 more bits off every value.
CHUNK_SUM_MAX_VALUES = 1 << 26
_UNIT = 1 << 1074  # every double is an integer count of 2**-1074


def chunk_sum_dd(values) -> int:
    """The exact sum of a chunk of finite floats, as an int count of 2**-1074.

    Repeated extraction (ExtractVector of Rump, Ogita & Oishi, "Accurate
    floating-point summation part I: faithful rounding", SIAM J. Sci.
    Comput. 31(1), 2008): with sigma = 2**k >= 2**M * max|q| and
    2**M >= n + 2, p = (q + sigma) - sigma and q - p are exact and
    np.sum(p) does not round.  Each round's sum goes into the int total and
    q - p goes to the next round until q is all zero.  Totals add exactly
    with +, and dd_pair rounds one to floats.  Only ufuncs touch the array,
    so the sum releases the GIL.
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
            return total
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


def dd_pair(total: int) -> tuple[float, float]:
    """A chunk_sum_dd total as (hi, lo): the total correctly rounded, as
    math.fsum rounds it, and the residual correctly rounded."""
    hi = total / _UNIT
    num, den = hi.as_integer_ratio()
    return hi, (total - num * (_UNIT // den)) / _UNIT


# ---------------------------------------------------------------------------
# sieving

_prime_list = (None, 0)  # (primes, hi): every prime below hi, in an int64 array


def _primes_below(limit: int):
    """The shared list, grown if short to hold every prime below limit >= 1.
    It starts empty and is replaced, never mutated: a prefix handed out
    stays whole."""
    global _prime_list
    primes, hi = _prime_list
    if hi < limit:  # the base first, then [hi, max(2 hi, limit))
        import numpy as np
        top = max(2 * hi, limit)
        root = math.isqrt(top - 1) + 1  # above every p with p * p < top
        base = _primes_below(root) if root < top else np.empty(0, np.int64)
        # _SEG_SPAN values at a time, so a bitmap stays at 1 MB
        pieces = [primes] if hi else []
        for lo in range(hi, top, _SEG_SPAN):
            pieces.append(_segment_primes(lo, min(lo + _SEG_SPAN, top), base))
        primes = np.concatenate(pieces)
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
    # the odd values coprime to 3*5*7*11*13 repeat every _WHEEL_ODDS bits:
    # the bitmap starts as that pattern at lo_odd's phase, wheel primes set
    # back, so the strike loop starts at 17
    wheel = np.ones(_WHEEL_ODDS, dtype=bool)  # the odd values 1, 3, ...
    for p in _WHEEL:
        wheel[p >> 1::p] = False
    phase = (lo_odd >> 1) % _WHEEL_ODDS
    mask = np.resize(np.roll(wheel, -phase), (hi - lo_odd + 1) // 2)
    for p in _WHEEL:
        if lo_odd <= p < hi:
            mask[(p - lo_odd) >> 1] = True
    if lo_odd == 1:
        mask[0] = False
    odd = base[base.searchsorted(_WHEEL[-1] + 1):
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


def check_n_max(n_max: int) -> None:
    """The one index gate: reject a count of primes below 1 or past the
    ceiling, before any pass runs."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if n_max > PRIME_INDEX_CEILING:
        raise ResourceLimitError(
            f"n_max={n_max} exceeds configured index ceiling {PRIME_INDEX_CEILING}")


def _nth_prime_value_bound(n: int) -> int:
    # Rosser-Schoenfeld upper bound, valid for n >= 6.
    if n < 6:
        return 15
    ln = math.log(n)
    return int(n * (ln + math.log(ln))) + 1


def first_primes(k: int) -> list[int]:
    """p_1, ..., p_k (p_1 = 2) as Python ints, by a byte-per-integer sieve
    of Eratosthenes up to _nth_prime_value_bound(k) in a bytearray: no
    numpy and not the shared list.  The record ladders take at most 998
    primes (at 10^300), and arith.factorize the 54 below 256."""
    limit = _nth_prime_value_bound(k)
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return list(islice(compress(range(limit + 1), sieve), k))


def iter_prime_chunks(n: int) -> Iterator:
    """The first n primes, from 2, as consecutive int64 arrays: one chunk per
    2**21-value segment, the next WORKERS sieved ahead on WORKERS - 1
    threads (_ordered), the last cut at p_n.  n is checked (check_n_max) at
    the call, and n = 0 is the empty stream; a stream that ends short of p_n
    raises RuntimeError."""
    if n == 0:
        return iter(())
    check_n_max(n)
    return _first_primes(n)


def _first_primes(n: int) -> Iterator:
    limit = _nth_prime_value_bound(n)
    base = _simple_sieve(math.isqrt(limit - 1))
    for primes in _ordered(_segment_primes, [
            (lo, min(lo + _SEG_SPAN, limit), base)
            for lo in range(0, limit, _SEG_SPAN)]):
        yield primes[:n]
        n -= len(primes)
        if n <= 0:
            return
    raise RuntimeError(f"prime bound {limit} too small: {n} primes short")


def nth_prime(n: int) -> int:
    """The n-th prime, 1-indexed (p_1 = 2): the last of the first n."""
    check_n_max(n)
    return int(deque(iter_prime_chunks(n), maxlen=1)[0][-1])


# ---------------------------------------------------------------------------
# theta accumulation

class ThetaPoint(Record):
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


def _cache_trailer(body: bytes, count: int) -> bytes:
    import hashlib  # only a command that reads or writes a cache loads OpenSSL
    return f"end points={count} sha256={hashlib.sha256(body).hexdigest()}\n".encode()


def cache_save(points: dict[int, ThetaPoint], path) -> None:
    """Write the points, sorted by index, atomically: a temp file in the
    same directory, then os.replace, so readers see the old file or the
    whole new one."""
    lines = [f"psicache v{CACHE_FORMAT_VERSION}"]
    for _, p in sorted(points.items()):
        lines.append(f"{p.index} {p.prime} "
                     f"{float(p.theta_hi).hex()} {float(p.theta_lo).hex()}")
    body = ("\n".join(lines) + "\n").encode()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(body + _cache_trailer(body, len(points)))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cache_load(path) -> dict[int, ThetaPoint]:
    """The points of a cache file, by index."""
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

    points = {}
    for lineno, line in enumerate(rows, start=2):
        parts = line.split(" ")
        if len(parts) != 4:
            raise CacheParseError(f"expected 4 fields, got {len(parts)}", lineno)
        try:
            point = ThetaPoint(int(parts[0]), int(parts[1]),
                               *map(float.fromhex, parts[2:]))
        except ValueError as exc:
            raise CacheParseError(str(exc), lineno) from None
        points[point.index] = point
    return points
