"""Run the mutant table of tests/mutants.py, one mutant at a time.

For each row: copy src/ to a temporary directory, make the row's one
replacement there, and run the row's tests against that copy in a fresh
pytest process.  The mutant is killed when every one of the row's test
ids fails; a listed id that passes, is skipped or is not found, or a run
that did not import the copy, fails the table.

    python tests/run_mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

from mutants import MUTANTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# exits 0 only if every listed id failed and psirh came from the copy
_CHILD = """\
import os, sys, pytest
class Failed:
    ids = set()
    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.ids.add(report.nodeid)
pytest.main(sys.argv[2:], plugins=[Failed()])
import psirh
missed = [a for a in sys.argv[2:] if '::' in a and a not in Failed.ids]
for a in missed:
    print('did not fail:', a)
sys.exit(1 if missed or not psirh.__file__.startswith(sys.argv[1] + os.sep)
         else 0)
"""


def run(name, mutant):
    """The finished pytest process of the row's tests on its mutated copy
    of src/."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(tmp, mutant.path)
        with open(path) as f:
            text = f.read()
        if text.count(mutant.snippet) != 1:
            raise SystemExit(f"{name}: snippet not found once in {mutant.path}")
        with open(path, "w") as f:
            f.write(text.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-c", _CHILD, src, "-q", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", "-o", "addopts=", *mutant.must_fail],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)


def main():
    survivors = []
    for name, mutant in MUTANTS.items():
        t0 = time.perf_counter()
        proc = run(name, mutant)
        verdict = "killed" if proc.returncode == 0 else "NOT killed"
        print(f"{name}: {verdict} in {time.perf_counter() - t0:.1f} s",
              flush=True)
        if proc.returncode != 0:
            print(proc.stdout)
            survivors.append(name)
    if survivors:
        raise SystemExit(f"{len(survivors)} of {len(MUTANTS)} mutants not "
                         f"killed: {', '.join(survivors)}")


if __name__ == "__main__":
    main()
