"""Span recording for the traced benchmark run.

The traced run wraps, from outside the package, the module attribute each
caller looks up (``primorial.chunk_sum_dd``, ``criteria._chunk_ratios``, ...),
so psirh itself is unchanged.  A span is ``[name, start, end, parent, attrs]``;
``parent`` is the index of the enclosing span or -1.  Spans stay in memory and
are written out once, when the child process ends.
"""

from __future__ import annotations

import functools
import os
import time

_clock = time.perf_counter


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, attrs: dict | None = None) -> None:
        self.spans[idx][2] = _clock()
        self.spans[idx][4] = attrs
        self._stack.pop()


def _wrap(rec: Recorder, owner, attr: str, name: str, attrs_fn=None) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if attrs_fn is not None:
                attrs = attrs_fn(args, result)
            return result
        finally:
            rec.close(idx, attrs)

    setattr(owner, attr, wrapper)


def _wrap_chunks(rec: Recorder, owner) -> None:
    """Time every next() of the prime-chunk generator as one sieve span."""
    fn = owner.iter_prime_chunks

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            idx = rec.open("prime_engine.sieve")
            try:
                chunk = next(it)
            except StopIteration:
                rec.close(idx)
                return
            rec.close(idx, {"primes": len(chunk)})
            yield chunk

    owner.iter_prime_chunks = wrapper


def install(rec: Recorder):
    """Wrap every layer boundary the per-layer metrics read.

    Returns the unwrapped ``_simple_sieve`` so its lru counters can be read
    when the process ends.
    """
    from psirh import arith, champions, criteria, prime_engine, primorial, report

    small_sieve = prime_engine._simple_sieve
    for mod in (prime_engine, arith, criteria, champions):
        _wrap(rec, mod, "_simple_sieve", "prime_engine.small_sieve")
    for mod in (prime_engine, primorial):
        _wrap_chunks(rec, mod)
        _wrap(rec, mod, "chunk_sum_dd", "prime_engine.dd_sum",
              lambda a, r: {"values": len(a[0])})
        _wrap(rec, mod, "nth_prime", "prime_engine.nth_prime")
    _wrap(rec, primorial, "cache_save", "prime_engine.cache_write",
          lambda a, r: {"bytes": os.path.getsize(a[1])})
    _wrap(rec, primorial, "cache_load", "prime_engine.cache_read",
          lambda a, r: {"bytes": os.path.getsize(a[0])})
    _wrap(rec, primorial, "full_scan", "primorial.full_scan")
    _wrap(rec, primorial, "_theta_points_for", "primorial.theta_points")

    _wrap(rec, arith, "factorize", "arith.factorize")
    _wrap(rec, champions, "sigma_table", "arith.sigma_table",
          lambda a, r: {"entries": len(r)})
    _wrap(rec, champions, "psi_table", "arith.psi_table",
          lambda a, r: {"entries": len(r)})

    _wrap(rec, criteria, "scan_exceptions", "criteria.scan")
    _wrap(rec, criteria, "check_sigma_upper_bound", "criteria.sigma_bound")
    _wrap(rec, criteria, "_chunk_values", "criteria.prefilter")
    _wrap(rec, criteria, "_chunk_ratios", "criteria.ratios",
          lambda a, r: {"n": len(r)})
    _wrap(rec, criteria, "_criterion", "criteria.criterion",
          lambda a, r: {"escalated": r.precision_escalated,
                        "exception": r.value >= 0})
    for mod, attr in ((criteria, "robin_g"), (criteria, "dedekind_f"),
                      (champions, "dedekind_f")):
        _wrap(rec, mod, attr, "criteria.pointwise")

    _wrap(rec, champions, "generate_superabundant", "champions.record_scan",
          lambda a, r: {"records": len(r.records)})
    for attr in ("verify_prop1", "verify_prop2", "psi_multiple_identity_check"):
        _wrap(rec, champions, attr, "champions.props",
              lambda a, r: {"cases": r.cases_checked})

    _wrap(rec, report.RenderedReport, "render", "report.render",
          lambda a, r: {"bytes": len(r.encode())})
    return small_sieve
