"""The traced benchmark run (perfbench/run.py --trace 1) wraps psirh's layer
boundaries by module attribute name; renaming or deleting one of them must
fail here rather than first in a traced run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_with_spans(code):
    """Run code after spans.install(rec) in a fresh interpreter; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import spans; rec = spans.Recorder(); spans.install(rec)\n" + code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_span_install_resolves_every_layer():
    run_with_spans("")


def test_scan_float_pass_is_a_prefilter_span():
    # a scan takes the numerators of its prefix, [2, 5583) for g, from one
    # stdlib sieve call and decides through criteria._criterion only the
    # 27 candidates, SET_A: one criteria.criterion span per candidate,
    # inside the scan's span, and no criteria.prefilter span
    out = run_with_spans(
        "from psirh import criteria\n"
        "criteria.scan_exceptions(criteria.CriterionKind.ROBIN_G, 2, 10**4)\n"
        "scan = next(i for i, s in enumerate(rec.spans)\n"
        "            if s[0] == 'criteria.scan')\n"
        "print(sum(s[0] == 'criteria.criterion' and s[3] == scan\n"
        "          for s in rec.spans),\n"
        "      sum(s[0] == 'criteria.prefilter' for s in rec.spans))")
    assert out.split() == ["27", "0"]


def test_record_scan_and_props_attrs():
    # spans reads len(r.records) of generate_superabundant and
    # r.cases_checked of each prop check: the 15 superabundant numbers to
    # 10^3, and the cases of props at these limits
    out = run_with_spans(
        "from psirh import champions\n"
        "champions.generate_superabundant(10**3)\n"
        "champions.verify_prop1(10**6)\n"
        "champions.verify_prop2(10**4)\n"
        "champions.psi_multiple_identity_check(6)\n"
        "print([s[4] for s in rec.spans\n"
        "       if s[0] in ('champions.record_scan', 'champions.props')])")
    assert out == ("[{'records': 15}, {'cases': 44}, {'cases': 8969}, "
                   "{'cases': 50}]\n")
