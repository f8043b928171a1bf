"""psirh command-line front end.

Exit codes: 0 = ran to completion (even when exceptions/failures were found
and reported), 1 = --fail-on-exception was set and the report is non-clean,
2 = usage or domain error, 3 = resource-ceiling error.  A found exception
above 30 would be the headline finding, not a crash, hence the split.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import primorial
from .constants import CONSTANTS, DEFAULT_SIGMA_BOUND_C
from .errors import (BFileParseError, CacheParseError, DomainError,
                     ResourceLimitError)
from .prime_engine import check_n_max
from .report import RenderedReport

# criteria and champions (and with them arith) are imported by the handlers
# that use them: a table1 served from the theta cache loads none of them.

OEIS_S_LIMIT = 10**41  # 1,240 terms
OEIS_SUPERABUNDANT_LIMIT = 10**20  # 123 terms, about 0.14 s


def _parse_indices(text: str) -> list[int]:
    try:
        indices = [int(t) for t in text.split(",") if t]
    except ValueError:
        raise DomainError(f"bad --indices list {text!r}") from None
    if not indices:
        raise DomainError("empty --indices list")
    return indices


def _cmd_scan(args) -> tuple[RenderedReport, bool]:
    from . import criteria
    from .criteria import CriterionKind
    rep = criteria.scan_exceptions(CriterionKind(args.criterion), args.lo, args.hi)
    rows = [{"n": cv.n, "ratio": cv.ratio, "threshold": cv.threshold,
             "value": cv.value, "escalated": cv.precision_escalated}
            for cv in rep.values]
    report = RenderedReport(
        command="scan",
        parameters={"criterion": args.criterion, "lo": args.lo, "hi": args.hi},
        columns=["n", "ratio", "threshold", "value", "escalated"],
        rows=rows,
        footer={"exceptions": len(rep.exceptions),
                "largest": rep.largest if rep.largest is not None else "",
                "escalations": rep.escalations})
    return report, bool(rep.exceptions)


def _cmd_champions(args) -> tuple[RenderedReport, bool]:
    from . import champions
    seq = champions.generate_s_sequence(args.limit)
    rows = [{"value": c.value, "primorial_index": c.primorial_index,
             "multiplier": c.multiplier, "psi_ratio_log": c.psi_ratio_log}
            for c in seq]
    report = RenderedReport(
        command="champions", parameters={"limit": args.limit},
        columns=["value", "primorial_index", "multiplier", "psi_ratio_log"],
        rows=rows, footer={"terms": len(rows)})
    return report, False


def _cmd_superabundant(args) -> tuple[RenderedReport, bool]:
    from . import champions
    res = champions.generate_superabundant(args.limit)
    rows = [{"n": n, "sigma": sig, "ratio": sig / n}
            for n, sig in res.records]
    report = RenderedReport(
        command="superabundant", parameters={"limit": args.limit},
        columns=["n", "sigma", "ratio"], rows=rows,
        footer={"records": len(rows)})
    return report, False


def _cmd_props(args) -> tuple[RenderedReport, bool]:
    from . import champions
    # each check with the argument its limit column prints
    checks = [(champions.verify_prop1(args.limit), args.limit),
              (champions.verify_prop2(args.prop2_limit), args.prop2_limit),
              (champions.psi_multiple_identity_check(args.identity_kmax),
               args.identity_kmax)]
    rows = [{"proposition": chk.claim, "limit": limit,
             "cases_checked": chk.cases_checked,
             "failures": len(chk.failures)} for chk, limit in checks]
    report = RenderedReport(
        command="props",
        parameters={"limit": args.limit, "prop2_limit": args.prop2_limit,
                    "identity_kmax": args.identity_kmax},
        columns=["proposition", "limit", "cases_checked", "failures"],
        rows=rows)
    return report, not all(chk.passed for chk, _ in checks)


def _cmd_table1(args) -> tuple[RenderedReport, bool]:
    indices = _parse_indices(args.indices)
    rows = primorial.table1(indices, cache_path=args.cache)
    report = RenderedReport(
        command="table1", parameters={"indices": args.indices},
        columns=["n", "p_n", "theta_ratio_printed", "ftilde_ratio_printed",
                 "k_ratio_printed", "theta_ratio", "ftilde_ratio", "k_ratio"],
        rows=rows)
    return report, False


def _cmd_table2(args) -> tuple[RenderedReport, bool]:
    indices = _parse_indices(args.indices)
    rows = primorial.table2(indices)
    report = RenderedReport(
        command="table2", parameters={"indices": args.indices},
        columns=["n", "p_n", "f_value_printed", "f_value", "psi_over_n",
                 "loglogN"],
        rows=rows)
    return report, False


def _cmd_bounds(args) -> tuple[RenderedReport, bool]:
    from . import criteria
    # the sigma bound first, so its argument errors come before the prime pass
    sig = criteria.check_sigma_upper_bound(3, args.sigma_hi, c=args.c)
    loglog, f_bound = primorial.check_primorial_bounds(args.hi, args.lo)
    rows = [{"bound": b.claim, "first": b.first, "last": b.last,
             "passed": b.passed, "worst_margin": b.worst_margin,
             "witness": b.witness} for b in (loglog, f_bound, sig)]
    report = RenderedReport(
        command="bounds",
        parameters={"lo": loglog.first, "hi": args.hi,
                    "sigma_hi": args.sigma_hi, "c": args.c},
        columns=["bound", "first", "last", "passed", "worst_margin", "witness"],
        rows=rows)
    return report, not all(b.passed for b in (loglog, f_bound, sig))


def _cmd_mertens(args) -> tuple[RenderedReport, bool]:
    indices = _parse_indices(args.indices)
    # every index is checked before the pass, the pass's own checks first
    check_n_max(max(indices))
    if min(indices) < 2:
        raise DomainError("mertens ratio defined for n >= 2")
    stats = primorial.full_scan(max(indices), indices)
    limit = CONSTANTS.e_gamma_over_zeta2
    rows = []
    for n in indices:
        ratio = stats[n].mertens_ratio
        rows.append({"n": n, "p_n": stats[n].prime, "ratio": ratio,
                     "deviation": abs(ratio - limit)})
    report = RenderedReport(
        command="mertens", parameters={"indices": args.indices},
        columns=["n", "p_n", "ratio", "deviation"],
        rows=rows, footer={"limit": limit})
    return report, False


def _cmd_oeis_check(args) -> tuple[RenderedReport, bool]:
    """Compare the first --count b-file entries with the generated terms,
    entry index i against term i (both sequences are 1-based)."""
    from . import champions
    entries = champions.read_bfile(args.bfile)
    count = args.count
    if count < 1:
        raise DomainError(f"--count must be >= 1, got {count}")
    if entries and entries[0][0] < 1:
        raise DomainError(f"b-file index {entries[0][0]} < 1; "
                          f"{args.sequence} starts at index 1")
    # read_bfile makes the indices consecutive: first .. first + count - 1
    entries = entries[:count]
    need = (entries[0][0] if entries else 1) + count - 1
    if args.sequence == "A060735":
        terms = [c.value for c in champions.generate_s_sequence(OEIS_S_LIMIT)]
    else:
        terms = [n for n, _ in
                 champions.generate_superabundant(OEIS_SUPERABUNDANT_LIMIT).records]
    truncated = len(terms) < need
    pairs = [(i, v, terms[i - 1]) for i, v in entries if i <= len(terms)]
    mismatch = next((i for i, v, t in pairs if v != t), None)
    rows = [{"index": i, "expected": t, "bfile": v, "match": v == t}
            for i, v, t in pairs]
    report = RenderedReport(
        command="oeis-check",
        parameters={"sequence": args.sequence, "count": count,
                    "bfile": str(args.bfile)},
        columns=["index", "expected", "bfile", "match"],
        rows=rows,
        footer={"compared": len(pairs),
                "truncated": truncated,
                "first_mismatch": mismatch if mismatch is not None else ""})
    return report, mismatch is not None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psirh",
        description="Numerical checks of the Dedekind-psi refinement of "
                    "Robin's criterion")
    parser.add_argument("--format", choices=["csv", "md", "json"],
                        default="csv", dest="output_format")
    parser.add_argument("--digits", type=int, default=6)
    parser.add_argument("--fail-on-exception", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="scan a range for criterion exceptions")
    p.add_argument("--criterion", choices=["f", "g"], required=True)
    p.add_argument("--lo", type=int, default=2)
    p.add_argument("--hi", type=int, required=True)
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("champions", help="list the sequence S (A060735)")
    p.add_argument("--limit", type=int, default=10**5)
    p.set_defaults(fn=_cmd_champions)

    p = sub.add_parser("superabundant", help="list superabundant numbers (A004394)")
    p.add_argument("--limit", type=int, default=10**5)
    p.set_defaults(fn=_cmd_superabundant)

    p = sub.add_parser("props", help="verify the structural propositions")
    p.add_argument("--limit", type=int, default=10**6)
    p.add_argument("--prop2-limit", type=int, default=10**4)
    p.add_argument("--identity-kmax", type=int, default=14)
    p.set_defaults(fn=_cmd_props)

    p = sub.add_parser("table1", help="theta / successor / k ratio table")
    p.add_argument("--indices", default=",".join(
        map(str, primorial.TABLE1_DEFAULT_INDICES)))
    p.add_argument("--cache", default=None)
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("table2", help="f(N_n) at primorial checkpoints")
    p.add_argument("--indices", default=",".join(
        map(str, primorial.TABLE2_DEFAULT_INDICES)))
    p.set_defaults(fn=_cmd_table2)

    p = sub.add_parser("bounds", help="explicit bound checks")
    p.add_argument("--lo", type=int, default=None,
                   help="first primorial index (default: first with p >= 20000)")
    p.add_argument("--hi", type=int, default=10**5,
                   help="last primorial index")
    p.add_argument("--sigma-hi", type=int, default=10**6)
    p.add_argument("--c", type=float, default=DEFAULT_SIGMA_BOUND_C)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("mertens", help="Mertens-limit convergence")
    p.add_argument("--indices", default="10,100,1000,10000,100000")
    p.set_defaults(fn=_cmd_mertens)

    p = sub.add_parser("oeis-check", help="cross-validate against an OEIS b-file")
    p.add_argument("--bfile", required=True)
    p.add_argument("--sequence", choices=["A060735", "A004394"], required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(fn=_cmd_oeis_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.digits < 0:  # a usage error before any work, in every format
            parser.error(f"argument --digits: must be >= 0, got {args.digits}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        report, dirty = args.fn(args)
    except DomainError as exc:
        print(f"psirh: domain error: {exc}", file=sys.stderr)
        return 2
    except (BFileParseError, CacheParseError, OSError) as exc:
        print(f"psirh: input error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"psirh: resource limit: {exc}", file=sys.stderr)
        return 3
    report.footer.setdefault("runtime_s", round(time.perf_counter() - t0, 3))
    sys.stdout.write(report.render(args.output_format, args.digits))
    if args.fail_on_exception and dirty:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
