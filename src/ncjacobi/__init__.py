"""Orthogonal polynomials in non-commuting variables: moments, Jacobi blocks,
weighted lattice paths, and product constructions."""

from .words import (
    Word,
    enumerate_words,
    graded_rank,
    words_up_to,
)
from .ncpoly import NcPolynomial
from .functional import (
    GramReport,
    MomentFunctional,
    NotStrictlyPositiveError,
    functional_free_product,
    hankel_check,
    kernel_table,
    upper_cholesky,
)
from .jacobi import (
    AdmissibleFamily,
    ValidationReport,
    favard_moments,
    operator_moment,
    random_admissible_family,
    validate,
)
from .orthopoly import (
    OrthonormalBasis,
    ResidualError,
    coefficient_oracle,
    extract_recurrence,
    orthonormalize,
)
from .paths import (
    LatticePath,
    distinguished_path,
    enumerate_paths,
    jacobi_from_moments,
    moments_from_paths,
    motzkin_binomial_sum,
    motzkin_number,
    path_weight,
)
from .freeproduct import (
    OneDimRecurrence,
    ThreeTermReport,
    classical_coefficients,
    product_basis,
    product_polynomial,
    verify_three_term,
)
from .freeproduct import build as build_free_product

__version__ = "0.1.0"

__all__ = [
    "AdmissibleFamily",
    "GramReport",
    "LatticePath",
    "MomentFunctional",
    "NcPolynomial",
    "NotStrictlyPositiveError",
    "OneDimRecurrence",
    "OrthonormalBasis",
    "ResidualError",
    "ThreeTermReport",
    "ValidationReport",
    "Word",
    "build_free_product",
    "classical_coefficients",
    "coefficient_oracle",
    "distinguished_path",
    "enumerate_paths",
    "enumerate_words",
    "extract_recurrence",
    "favard_moments",
    "functional_free_product",
    "graded_rank",
    "hankel_check",
    "jacobi_from_moments",
    "kernel_table",
    "moments_from_paths",
    "motzkin_binomial_sum",
    "motzkin_number",
    "operator_moment",
    "orthonormalize",
    "path_weight",
    "product_basis",
    "product_polynomial",
    "random_admissible_family",
    "upper_cholesky",
    "validate",
    "verify_three_term",
    "words_up_to",
]
