"""The standing mutant table: faults once planted in a copy of src/, each
with the tests that must fail on it.

A row names a file under src/, one exact snippet that occurs once in it,
the snippet's replacement, and the test ids that must each fail once the
replacement is made.  tests/run_mutants.py runs the table;
test_mutants.py checks that every snippet still occurs exactly once, so a
change that moves the code ports the row, as it ports a test.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    must_fail: tuple[str, ...]  # pytest node ids, each must fail


_SKIP = "tests/test_primorial.py::TestSkippedBlocks::"

MUTANTS = {
    # check_primorial_bounds: a run computed only when both bounds, not
    # either, reach the least margins found
    "run-selection-and": Mutant(
        "src/psirh/primorial.py",
        "(low1 - _SLACK <= worst_m1[0]) | (low2",
        "(low1 - _SLACK <= worst_m1[0]) & (low2",
        (_SKIP + "test_least_margins_planted_late[-0.699-0.0-witnesses1]",)),
    # loglog N in the run bounds taken at the run's last index
    "run-bound-loglog-at-last": Mutant(
        "src/psirh/primorial.py",
        "_margins(np.log(theta_cum[a]), ",
        "_margins(np.log(theta_cum[b - 1]), ",
        (_SKIP + "test_a_dip_inside_a_run",
         _SKIP + "test_blocks_computed")),
    # the run selection without its float slack
    "run-selection-no-slack": Mutant(
        "src/psirh/primorial.py",
        "open_ = (low1 - _SLACK <= worst_m1[0]) | (low2 - _SLACK <= worst_m2[0])",
        "open_ = (low1 <= worst_m1[0]) | (low2 <= worst_m2[0])",
        (_SKIP + "test_a_dip_under_the_slack",)),
    # a run's margins from its second index on
    "run-margins-one-late": Mutant(
        "src/psirh/primorial.py",
        "i, j = int(a[g + o[0]]), ",
        "i, j = int(a[g + o[0]] + 1), ",
        (_SKIP + "test_matches_every_index[2263-2263]",)),
    # the 16th run of each 16 never computed
    "run-group-of-15": Mutant(
        "src/psirh/primorial.py",
        "o = np.flatnonzero(open_[g:g + 16])",
        "o = np.flatnonzero(open_[g:g + 15])",
        (_SKIP + "test_a_dip_in_the_last_run_of_16",)),
}
