"""Exact invariants of staircase knot Floer complexes.

Builds the bifiltered GF(2) complexes of torus knots and their connected
sums and duals, and computes the upsilon invariant as an exact piecewise
linear function together with the secondary upsilon invariant at its
singularities.  All arithmetic is exact rational; homology decisions run on
bit-packed GF(2) elimination.

Each public name is imported from its submodule the first time it is read
(PEP 562), so that ``import cfk.cli`` loads only what the command line needs.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_HOMES = {
    "exactnum": ("DomainError", "PiecewiseLinear"),
    "semigroup": ("AlexanderPolynomial", "StepVector", "alexander_torus", "step_vector"),
    "expressions": ("InvalidTorusKnotError", "KnotExpressionError", "canonical_expression"),
    "complexes": ("BifilteredComplex", "Generator", "UnsupportedComplexError",
                  "direct_sum_with_box", "dual", "parse_knot_expression",
                  "staircase_complex", "tensor", "torus_knot_complex", "trivial_complex"),
    "upsilon": ("BreakpointVerificationError", "CertificateError", "GammaCertificate",
                "SectorElement", "gamma_at", "level", "sector", "upsilon",
                "verify_gamma_certificate"),
    "upsilon2": ("Gamma2Certificate", "MergeWitness", "NotApplicableError", "gamma2_at",
                 "upsilon2_at", "verify_gamma2_certificate"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(type(sys)):
    """The package module: importing a submodule does not rebind a public name.

    The import system binds each submodule it loads on its package, which
    would make ``cfk.upsilon`` the module once ``cfk.upsilon`` is imported;
    the public name stays the function, and ``sys.modules`` holds the module.
    """

    def __setattr__(self, name, value):
        if not (name in _HOME and isinstance(value, type(sys))):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
