"""Thread checks shared by the test modules: the prime stream's pool stops
when the stream is closed, and the range walks start no thread."""

import threading

from psirh import criteria, prime_engine


def close_mid_stream(n, reads):
    """Read the first `reads` chunks of iter_prime_chunks(n), check that
    pool threads are sieving ahead, close the stream and check that every
    one has stopped; returns the first chunk."""
    before = threading.active_count()
    stream = prime_engine.iter_prime_chunks(n)
    first = next(stream)
    for _ in range(reads - 1):
        next(stream)
    assert threading.active_count() > before
    stream.close()
    assert threading.active_count() == before
    return first


def walk_on_the_callers_thread(monkeypatch, walk):
    """walk() with threading.Thread.start refused and criteria's three
    kernels (the stdlib sieve, the chunk values and the chunk ratios)
    watched: checks that every kernel call ran in the caller's thread with
    no other thread alive, and returns walk's result and the names of the
    kernels called, in call order."""
    def refuse(self):
        raise AssertionError("thread started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    before = threading.active_count()
    seen = []
    for name in ("multiplicative_ints", "_chunk_values", "_chunk_ratios"):
        fn = getattr(criteria, name)
        monkeypatch.setattr(criteria, name, lambda *a, fn=fn, name=name:
                            seen.append((name, threading.get_ident(),
                                         threading.active_count()))
                            or fn(*a))
    result = walk()
    assert {tuple(s[1:]) for s in seen} == {(threading.get_ident(), before)}
    return result, [name for name, *_ in seen]
