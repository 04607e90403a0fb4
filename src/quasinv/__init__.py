"""quasinv: exact arithmetic for quasi-invariant algebras of reflection groups.

Everything is computed over exact coefficient fields (rationals or cyclotomic
extensions); there is no floating-point mode.  All types are immutable values
and all operations are pure functions, so shared concurrent reads are safe.

The names below load their defining module on first access (PEP 562), so
`import quasinv` and the command line pay only for the modules they use.
"""

import importlib

__version__ = "0.1.0"

# exported name -> defining module
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", "DomainError InconclusiveError ParseError ReconstructionError"),
        ("fields", "Cyclotomic Rational"),
        ("groups", "Multiplicity ReflectionGroup parse_group"),
        ("hilbert", "HilbertSeries gorenstein_shift hilbert_from_basis"),
        ("laurent", "LaurentElement"),
        ("linalg", "nullspace"),
        ("poly", "Polynomial"),
        ("quasi", "filtration_check freeness_certificate hilbert is_quasi_invariant "
                  "quasi_basis"),
        ("series", "ZQSeries"),
    )
    for name in names.split()
}
__all__ = sorted([*_EXPORTS, "__version__"])

# The submodule quasinv.hilbert shares its name with the function
# quasi.hilbert.  Loading it here makes the import system bind it once, now;
# dropping that binding leaves the name to __getattr__, so `quasinv.hilbert`
# stays the function, as when this package imported everything eagerly.
importlib.import_module("quasinv.hilbert")
del hilbert  # noqa: F821 (bound by the import system)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'quasinv' has no attribute {name!r}")
    value = getattr(importlib.import_module(f"quasinv.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value

