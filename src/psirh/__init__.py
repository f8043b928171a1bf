"""Numerical verification suite for the Dedekind-psi refinement of Robin's
criterion: arithmetic functions, exception scans, champion sequences and
primorial-scale asymptotic checks.

The public names below are loaded on first access (PEP 562), each from the
submodule that defines it, so ``import psirh`` or ``import psirh.cli`` loads
no submodule, and no numpy, that the command at hand does not use.
"""

__version__ = "0.1.0"

_SUBMODULES = ("arith", "champions", "cli", "constants", "criteria", "errors",
               "prime_engine", "primorial", "report")

_EXPORTS = {name: module for module, names in (
    ("arith", "dedekind_psi factorize is_squarefree num_divisors sigma"),
    ("champions", "generate_s_sequence generate_superabundant "
                  "psi_multiple_identity_check read_bfile verify_prop1 "
                  "verify_prop2"),
    ("constants", "CONSTANTS Decision"),
    ("criteria", "CriterionKind check_sigma_upper_bound dedekind_f robin_g "
                 "scan_exceptions"),
    ("errors", "BFileParseError CacheParseError CacheVersionError DomainError "
               "ResourceLimitError"),
    ("prime_engine", "ThetaPoint cache_load cache_save nth_prime"),
    ("primorial", "check_primorial_bounds ftilde_ratio_deviation full_scan "
                  "k_ratio table1 table2"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = name if name in _SUBMODULES else _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module, so -X importtime lists it;
    # the import binds the submodule in this namespace
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))
