"""Exact separability tests for quotients of skew polynomial rings."""

from .linalg import CoeffRing, Matrix, Submodule, ZZ, hnf, solve, kernel, \
    sub_member, sub_contains, sub_equal, sub_intersect
from .rings import BaseRing, RingElement, RingMap, centralizer, commutant, fixed_subring, \
    left_mul_matrix, right_mul_matrix, validate_automorphism, validate_derivation, \
    validate_ring
from .skew import InvariantFailure, SkewPoly, SkewPolyRing, \
    coeffs_central_in_fixed_subring, divmod_monic, horner_tails, invariant_count, \
    invariant_polynomials, is_invariant, is_invariant_direct, iter_invariant_polynomials
from .quotient import AElement, QuotientRing, ScopeError, build_quotient
from .separability import DerivationModule, ExactnessReport, InternalInvariantError, \
    Verdict, derivation_from_value, derivation_module, exactness_report, \
    inner_derivation_matrix, is_separable, is_weakly_separable, oracle_weakly_separable
from .problems import Problem, ProblemError, load_problem, parse_problem

__all__ = [
    "CoeffRing", "Matrix", "Submodule", "ZZ",
    "hnf", "solve", "kernel",
    "sub_member", "sub_contains", "sub_equal", "sub_intersect",
    "BaseRing", "RingElement", "RingMap",
    "centralizer", "commutant", "fixed_subring", "left_mul_matrix", "right_mul_matrix",
    "validate_ring", "validate_automorphism", "validate_derivation",
    "SkewPolyRing", "SkewPoly", "InvariantFailure",
    "is_invariant", "is_invariant_direct", "divmod_monic",
    "invariant_polynomials", "invariant_count", "iter_invariant_polynomials",
    "coeffs_central_in_fixed_subring", "horner_tails",
    "QuotientRing", "AElement", "ScopeError", "build_quotient",
    "Verdict", "ExactnessReport", "DerivationModule", "InternalInvariantError",
    "is_separable", "is_weakly_separable", "exactness_report",
    "derivation_module", "oracle_weakly_separable",
    "derivation_from_value", "inner_derivation_matrix",
    "Problem", "ProblemError", "load_problem", "parse_problem",
]

__version__ = "0.1.0"
