"""Exact rational linear algebra and certified algebraic-number kernel."""

from .qpoly import QPoly, integer_nth_root, rational_nth_root, rational_roots
from .qmatrix import (
    QMatrix,
    char_poly,
    dot,
    evaluate_poly_at_matrix,
    independent_rows,
    is_zero_vector,
    min_poly,
    primitive_ints,
    primitive_vector,
    spectral_projector,
    vec_add,
    vec_scale,
    vector,
)
from .algnum import (
    AlgebraicNumber,
    factor_rational,
    has_positive_irrational_root,
    modulus_equals,
    roots_with_multiplicity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
