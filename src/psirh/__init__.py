"""Numerical verification suite for the Dedekind-psi refinement of Robin's
criterion: arithmetic functions, exception scans, champion sequences and
primorial-scale asymptotic checks."""

from .arith import dedekind_psi, factorize, is_squarefree, num_divisors, sigma
from .champions import (generate_s_sequence, generate_superabundant,
                        psi_multiple_identity_check, read_bfile, verify_prop1,
                        verify_prop2)
from .criteria import (CONSTANTS, BoundCheckResult, CriterionKind,
                       check_sigma_upper_bound, dedekind_f, robin_g,
                       scan_exceptions)
from .errors import (BFileParseError, CacheParseError, CacheVersionError,
                     DomainError, ResourceLimitError)
from .prime_engine import (ThetaCache, ThetaPoint, cache_load, cache_save,
                           nth_prime)
from .primorial import (check_primorial_bounds, ftilde_ratio_deviation,
                        full_scan, k_ratio, mertens_ratio, table1, table2)

__version__ = "0.1.0"
