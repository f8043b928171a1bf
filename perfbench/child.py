"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py REPORT [--trace] cli ARG...
    python3 perfbench/child.py REPORT [--trace] queries INPUTS

``cli`` runs ``psirh.cli.main(ARG...)`` exactly as the ``psirh`` command
does; its report goes to this process's stdout.  ``queries`` reads a JSON list
of integers from INPUTS and evaluates ``dedekind_f(n)`` and ``robin_g(n)`` for
each, timing every query.  Either way REPORT receives a JSON object with the
CLOCK_MONOTONIC time at which the package was imported and the work began
(the parent knows the launch time), the exit code, and, under ``--trace``,
the recorded spans.
"""

from __future__ import annotations

import json
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    report_path, argv = argv[0], argv[1:]
    traced = argv[0] == "--trace"
    if traced:
        argv = argv[1:]
    mode, argv = argv[0], argv[1:]
    out: dict = {}

    if mode == "cli":
        import psirh.cli as entry_module
    else:
        with open(argv[0], encoding="utf-8") as fh:
            inputs = json.load(fh)
        from psirh import criteria as entry_module

    rec = small_sieve = None
    if traced:
        import spans
        rec = spans.Recorder()
        small_sieve = spans.install(rec)
        root = rec.open("cli.main" if mode == "cli" else "queries")

    out["entry"] = _now()
    if mode == "cli":
        rc = entry_module.main(argv)
        sys.stdout.flush()
    else:
        rc = 0
        results = []
        clock = time.perf_counter
        for n in inputs:
            t0 = clock()
            f = entry_module.dedekind_f(n)
            g = entry_module.robin_g(n)
            results.append([n, clock() - t0, f.ratio, f.value, g.ratio, g.value])
        out["results"] = results
    out["rc"] = rc

    if traced:
        rec.close(root)
        info = small_sieve.cache_info()
        out["small_sieve"] = {"hits": info.hits, "misses": info.misses}
        out["spans"] = rec.spans
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
