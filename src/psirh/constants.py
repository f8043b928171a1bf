"""Values shared by the criteria, the primorial tables and the reports.

This module imports nothing beyond the standard library's dataclasses, so
a command served from the theta cache (a warm ``table1``) can format its
report without loading numpy.  ``criteria`` re-exports every name here.
"""

from dataclasses import dataclass

DEFAULT_SIGMA_BOUND_C = 0.6483  # 0.6482 as printed fails at n = 12


@dataclass(frozen=True)
class Constants:
    gamma: float = 0.57721566490153286061
    e_gamma: float = 1.78107241799019798524
    zeta2: float = 1.64493406684822643647
    e_gamma_over_zeta2: float = 1.08276219326092458012


CONSTANTS = Constants()


@dataclass(frozen=True)
class BoundCheckResult:
    bound: str
    first: int
    last: int
    passed: bool
    worst_margin: float
    witness: int
