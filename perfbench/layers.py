"""Per-layer metrics from the spans of a traced pass.

A layer's self time is its span's duration minus the time its direct child
spans cover.  Every figure is per traced pass: sums over the pass's
processes, divided by the number of traced passes in the run.
"""

from __future__ import annotations

from collections import defaultdict

# name -> unit, in the order of BENCHMARK.json.
METRICS = {
    "prime_engine.sieve_s": "s",
    "prime_engine.primes": "count",
    "prime_engine.segments": "count",
    "prime_engine.sieve_primes_per_s": "1/s",
    "prime_engine.dd_sum_s": "s",
    "prime_engine.dd_sum_values": "count",
    "prime_engine.dd_values_per_s": "1/s",
    "prime_engine.nth_prime_calls": "count",
    "prime_engine.nth_prime_s": "s",
    "prime_engine.cache_write_s": "s",
    "prime_engine.cache_write_bytes": "B",
    "prime_engine.cache_read_s": "s",
    "prime_engine.cache_read_bytes": "B",
    "prime_engine.small_sieve_calls": "count",
    "prime_engine.small_sieve_misses": "count",
    "prime_engine.small_sieve_s": "s",
    "arith.factorize_calls": "count",
    "arith.factorize_us": "us",
    "arith.factorize_s": "s",
    "arith.sigma_table_s": "s",
    "arith.psi_table_s": "s",
    "arith.table_entries": "count",
    "criteria.prefilter_s": "s",
    "criteria.prefilter_n": "count",
    "criteria.prefilter_n_per_s": "1/s",
    "criteria.candidates": "count",
    "criteria.confirm_us": "us",
    "criteria.candidate_yield": "ratio",
    "criteria.escalations": "count",
    "criteria.pointwise_calls": "count",
    "criteria.pointwise_us": "us",
    "primorial.pass_s": "s",
    "primorial.passes": "count",
    "primorial.cache_hits": "count",
    "primorial.cache_misses": "count",
    "champions.record_scan_s": "s",
    "champions.records": "count",
    "champions.props_cases": "count",
    "report.render_s": "s",
    "report.output_bytes": "B",
    "bench.trace_overhead_s": "s",
    "bench.trace_overhead_pct": "%",
}


def _spans(report: dict):
    """(name, duration, self time, parent index, attrs) of every span."""
    spans = report["spans"]
    covered = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    for i, (name, t0, t1, parent, attrs) in enumerate(spans):
        yield name, t1 - t0, t1 - t0 - covered[i], parent, attrs or {}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(reports: list[dict], passes: int,
                  traced_wall: float, untraced_wall: float) -> dict:
    count = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    attr = defaultdict(float)
    candidates = exceptions = escalations = 0
    candidate_time = prefilter_time = 0.0
    scan_misses = segments = 0
    sieve_calls = sieve_misses = 0

    for rep in reports:
        sieve_calls += rep["small_sieve"]["hits"] + rep["small_sieve"]["misses"]
        sieve_misses += rep["small_sieve"]["misses"]
        for name, dur, own, parent_idx, attrs in _spans(rep):
            parent = rep["spans"][parent_idx][0] if parent_idx >= 0 else None
            count[name] += 1
            total[name] += dur
            self_time[name] += own
            for key, value in attrs.items():
                attr[name, key] += value
            if name == "prime_engine.sieve" and attrs:
                segments += 1
            elif name == "criteria.criterion" and parent == "criteria.scan":
                candidates += 1
                candidate_time += dur
                exceptions += attrs["exception"]
                escalations += attrs["escalated"]
            elif name == "criteria.prefilter" or (
                    name == "criteria.ratios" and parent != "criteria.prefilter"):
                prefilter_time += dur
            elif name == "primorial.full_scan" and parent == "primorial.theta_points":
                scan_misses += 1

    m = {
        "prime_engine.sieve_s": total["prime_engine.sieve"],
        "prime_engine.primes": attr["prime_engine.sieve", "primes"],
        "prime_engine.segments": segments,
        "prime_engine.dd_sum_s": total["prime_engine.dd_sum"],
        "prime_engine.dd_sum_values": attr["prime_engine.dd_sum", "values"],
        "prime_engine.nth_prime_calls": count["prime_engine.nth_prime"],
        "prime_engine.nth_prime_s": total["prime_engine.nth_prime"],
        "prime_engine.cache_write_s": total["prime_engine.cache_write"],
        "prime_engine.cache_write_bytes": attr["prime_engine.cache_write", "bytes"],
        "prime_engine.cache_read_s": total["prime_engine.cache_read"],
        "prime_engine.cache_read_bytes": attr["prime_engine.cache_read", "bytes"],
        "prime_engine.small_sieve_calls": sieve_calls,
        "prime_engine.small_sieve_misses": sieve_misses,
        "prime_engine.small_sieve_s": total["prime_engine.small_sieve"],
        "arith.factorize_calls": count["arith.factorize"],
        "arith.factorize_s": total["arith.factorize"],
        "arith.sigma_table_s": total["arith.sigma_table"],
        "arith.psi_table_s": total["arith.psi_table"],
        "arith.table_entries": (attr["arith.sigma_table", "entries"]
                                + attr["arith.psi_table", "entries"]),
        "criteria.prefilter_s": prefilter_time,
        "criteria.prefilter_n": attr["criteria.ratios", "n"],
        "criteria.candidates": candidates,
        "criteria.escalations": escalations,
        "criteria.pointwise_calls": count["criteria.pointwise"],
        "primorial.pass_s": self_time["primorial.full_scan"],
        "primorial.passes": count["primorial.full_scan"],
        "primorial.cache_hits": count["primorial.theta_points"] - scan_misses,
        "primorial.cache_misses": scan_misses,
        "champions.record_scan_s": (self_time["champions.record_scan"]
                                    + self_time["champions.props"]),
        "champions.records": attr["champions.record_scan", "records"],
        "champions.props_cases": attr["champions.props", "cases"],
        "report.render_s": total["report.render"],
        "report.output_bytes": attr["report.render", "bytes"],
    }
    m = {k: v / passes for k, v in m.items()}
    # ratios of two per-pass sums need no division by the pass count
    m["prime_engine.sieve_primes_per_s"] = _ratio(
        m["prime_engine.primes"], m["prime_engine.sieve_s"])
    m["prime_engine.dd_values_per_s"] = _ratio(
        m["prime_engine.dd_sum_values"], m["prime_engine.dd_sum_s"])
    m["arith.factorize_us"] = 1e6 * _ratio(
        total["arith.factorize"], count["arith.factorize"])
    m["criteria.prefilter_n_per_s"] = _ratio(
        m["criteria.prefilter_n"], m["criteria.prefilter_s"])
    m["criteria.confirm_us"] = 1e6 * _ratio(candidate_time, candidates)
    m["criteria.candidate_yield"] = _ratio(exceptions, candidates)
    m["criteria.pointwise_us"] = 1e6 * _ratio(
        total["criteria.pointwise"], count["criteria.pointwise"])
    m["bench.trace_overhead_s"] = traced_wall - untraced_wall
    m["bench.trace_overhead_pct"] = 100 * _ratio(traced_wall - untraced_wall,
                                                 untraced_wall)
    return {name: {"value": m[name], "unit": unit}
            for name, unit in METRICS.items()}


def span_tree(tagged: list[tuple[str, dict]]) -> list[str]:
    """Spans aggregated by their path from the root, one indented line per
    path: calls, total seconds and self seconds.  Each report is tagged with
    the step it ran for, which becomes the top of its paths."""
    rows: dict[tuple, list] = {}
    for tag, rep in tagged:
        paths = []
        for name, dur, own, parent, _ in _spans(rep):
            path = (paths[parent] if parent >= 0 else (tag,)) + (name,)
            paths.append(path)
            row = rows.setdefault(path, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += own
    lines = []
    for path, (c, t, s) in sorted(rows.items()):
        if len(path) == 2:
            lines.append(path[0])
        lines.append(f"{'  ' * (len(path) - 1)}{path[-1]}: calls={c} "
                     f"total_s={t:.4f} self_s={s:.4f}")
    return lines
