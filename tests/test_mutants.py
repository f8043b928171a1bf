"""The mutant table of tests/mutants.py stays runnable: every snippet
occurs exactly once in its file, and every test it names is in a test
file that exists.  tests/run_mutants.py runs the table itself."""

import os

import pytest

from mutants import MUTANTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_snippet_occurs_once(name):
    mutant = MUTANTS[name]
    with open(os.path.join(ROOT, mutant.path)) as f:
        assert f.read().count(mutant.snippet) == 1
    assert mutant.must_fail
    for test_id in mutant.must_fail:
        assert os.path.isfile(os.path.join(ROOT, test_id.split("::")[0]))
