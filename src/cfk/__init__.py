"""Exact invariants of staircase knot Floer complexes.

Builds the bifiltered GF(2) complexes of torus knots and their connected
sums and duals, and computes the upsilon invariant as an exact piecewise
linear function together with the secondary upsilon invariant at its
singularities.  All arithmetic is exact rational; homology decisions run on
bit-packed GF(2) elimination.
"""

from .exactnum import DomainError, PiecewiseLinear
from .semigroup import (
    AlexanderPolynomial,
    InvalidTorusKnotError,
    StepVector,
    alexander_torus,
    step_vector,
)
from .complexes import (
    BifilteredComplex,
    Generator,
    KnotExpressionError,
    UnsupportedComplexError,
    canonical_expression,
    direct_sum_with_box,
    dual,
    parse_knot_expression,
    staircase_complex,
    tensor,
    torus_knot_complex,
    trivial_complex,
)
from .upsilon import (
    BreakpointVerificationError,
    CertificateError,
    GammaCertificate,
    SectorElement,
    gamma_at,
    level,
    sector,
    upsilon,
    verify_gamma_certificate,
)
from .upsilon2 import (
    Gamma2Certificate,
    MergeWitness,
    NotApplicableError,
    gamma2_at,
    upsilon2_at,
    verify_gamma2_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "AlexanderPolynomial",
    "BifilteredComplex",
    "BreakpointVerificationError",
    "CertificateError",
    "DomainError",
    "Gamma2Certificate",
    "GammaCertificate",
    "Generator",
    "InvalidTorusKnotError",
    "KnotExpressionError",
    "MergeWitness",
    "NotApplicableError",
    "PiecewiseLinear",
    "SectorElement",
    "StepVector",
    "UnsupportedComplexError",
    "alexander_torus",
    "canonical_expression",
    "direct_sum_with_box",
    "dual",
    "gamma2_at",
    "gamma_at",
    "level",
    "parse_knot_expression",
    "sector",
    "staircase_complex",
    "step_vector",
    "tensor",
    "torus_knot_complex",
    "trivial_complex",
    "upsilon",
    "upsilon2_at",
    "verify_gamma2_certificate",
    "verify_gamma_certificate",
]
