"""conecert: exact-arithmetic certification of polarized cone dynamics.

The package decides, in exact rational arithmetic, whether an invertible
linear map preserving a pointed convex cone admits an interior eigenvector
with a positive rational scaling factor, and produces a re-verifiable
certificate (scaling factor, witness, spectral projector) whose clauses
`certificate_failures` re-checks. On top of that kernel it carries the
divisor-class model of a product of two elliptic curves, the age calculus
for cyclic quotient singularities, and a scenario-file CLI bundling three
worked demonstration scenarios.
"""

__version__ = "0.1.0"

from .exactalg import (
    AlgebraicNumber,
    QMatrix,
    QPoly,
    char_poly,
    min_poly,
    modulus_equals,
    roots_with_multiplicity,
    spectral_projector,
)
from .cones import (
    Face,
    Membership,
    PolyhedralCone,
    PsdCone,
    build_cone,
    enumerate_faces,
    is_extremal_face,
    membership,
    minimal_extremal_face,
    psd_cone_oracle,
)
from .dynamics import (
    ConeMap,
    PolarizationCertificate,
    PolarizationResult,
    PolarizationStatus,
    abelian_invariant_check,
    decide_polarization,
    interior_eigenvector,
    is_power_bounded,
    product_endo_degree,
    product_formula_check,
    q_from_degree,
    restricted_degree,
)
from .nslattice import (
    EndoAction,
    SymClass,
    elliptic_product_report,
    intersect,
    is_ample,
    pullback_action,
    quotient_image_selfintersection,
)
from .singularities import (
    AgeReport,
    CyclicActionElement,
    age,
    product_quotient_report,
    projective_cycle_fixed_data,
)

__all__ = [name for name in dir() if not name.startswith("_")]
