"""Exact divisor-class arithmetic for a product of two elliptic curves.

For E x E with E generic (no extra endomorphisms) the real Neron-Severi
space has rank 3 and is modeled by symmetric 2 x 2 integer matrices
[[a, b], [b, c]] in the basis (E11, E12, E22). An endomorphism given by an
integer matrix acts on classes by congruence H -> a^T H a; the intersection
form is det-polarized so that a projection fibre squares to zero and the two
fibre classes meet once. Nef and ample coincide with positive semidefinite
and positive definite.

The module also carries the self-intersection argument that a fibre class
cannot map to an ample class on a quotient surface.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cones import psd_cone_oracle
from .dynamics import (
    ConeMap,
    PolarizationResult,
    PolarizationStatus,
    decide_polarization,
    product_endo_degree,
    q_from_degree,
)
from .errors import (
    DimensionMismatchError,
    InternalCheckError,
    PreconditionViolatedError,
    SingularMatrixError,
)
from .exactalg import (
    AlgebraicNumber,
    QMatrix,
    QPoly,
    rational_nth_root,
    roots_with_multiplicity,
    vec_scale,
    vector,
)
from .exactalg.qpoly import _frac

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class SymClass:
    """A divisor class on the product surface: the symmetric matrix
    [[a, b], [b, c]] with integer entries."""

    a: int
    b: int
    c: int

    @staticmethod
    def from_vector(v: Sequence) -> "SymClass":
        entries = [_frac(x) for x in v]
        if any(x.denominator != 1 for x in entries):
            raise PreconditionViolatedError(f"class entries must be integers: {v}")
        return SymClass(*(int(x) for x in entries))

    def matrix(self) -> QMatrix:
        return QMatrix.from_rows([[self.a, self.b], [self.b, self.c]])

    def as_vector(self) -> Vector:
        return vector((self.a, self.b, self.c))

    def det(self) -> int:
        return self.a * self.c - self.b * self.b

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.b}, {self.c}]]"


FIBRE_FIRST = SymClass(1, 0, 0)    # fibre of projection to the first factor
FIBRE_SECOND = SymClass(0, 0, 1)
DIAGONAL_MIXED = SymClass(0, 1, 0)


def intersect(h1: SymClass, h2: SymClass) -> int:
    """Intersection number det(H1 + H2) - det(H1) - det(H2).

    The normalization is pinned by two facts of the model: a projection
    fibre has self-intersection zero and the two fibre classes meet once.
    Self-intersections come out as 2 det(H).
    """
    total = SymClass(h1.a + h2.a, h1.b + h2.b, h1.c + h2.c)
    return total.det() - h1.det() - h2.det()


def is_ample(h: SymClass) -> bool:
    """Ample = positive definite (Sylvester's leading minors)."""
    return h.a > 0 and h.det() > 0


def pullback_class(a: QMatrix, h: SymClass) -> SymClass:
    """a^T H a as an exact symmetric class; a must be an integer matrix."""
    if not a.is_integer:
        raise PreconditionViolatedError("endomorphism matrix must be integral")
    m = a.transpose() * h.matrix() * a
    return SymClass(int(m.entry(0, 0)), int(m.entry(0, 1)), int(m.entry(1, 1)))


@dataclass(frozen=True)
class EndoAction:
    """An endomorphism matrix with its induced action on the class space.

    Column k of `ns_matrix` holds the (E11, E12, E22) coordinates of
    a^T E_k a; the determinant identity det(ns_matrix) = det(a)^3 is checked
    at construction.
    """

    a: QMatrix
    ns_matrix: QMatrix


def pullback_action(a) -> EndoAction:
    """Induced action of an integer endomorphism matrix on the class space."""
    if not isinstance(a, QMatrix):
        a = QMatrix.from_rows(a)
    if not a.is_square or a.rows != 2:
        raise DimensionMismatchError("endomorphism matrix must be 2 x 2")
    det = a.det()
    if det == 0:
        raise SingularMatrixError("endomorphism matrix must be invertible")
    basis = (FIBRE_FIRST, DIAGONAL_MIXED, FIBRE_SECOND)
    cols = [pullback_class(a, e).as_vector() for e in basis]
    ns = QMatrix.from_columns(cols)
    if ns.det() != det ** 3:
        raise InternalCheckError("congruence action determinant identity failed")
    return EndoAction(a=a, ns_matrix=ns)


# -- the product-abelian-surface scenario -----------------------------------------------


@dataclass(frozen=True)
class EllipticProductReport:
    """Full analysis of one endomorphism of the rank-3 class space."""

    endo: QMatrix
    rho: int
    char_poly: QPoly
    eigenvalues: tuple[tuple[AlgebraicNumber, int], ...]
    real_eigenvalue_count: int
    spectral_radius: Optional[Fraction]  # None when not certified rational
    polarization: PolarizationResult
    witness_class: Optional[SymClass]
    witness_is_ample: bool
    deg_f: int
    q: Optional[Fraction]
    degree_consistent: bool
    polarized_above_one: bool
    verdict: str


def _certified_spectral_radius(eigs) -> Optional[Fraction]:
    """Exact spectral radius when certifiable as a rational number, else None.

    Rational eigenvalues contribute |r| directly; roots of quadratic factors
    have rational modulus squared (the factor's root product); anything of
    higher degree is not certified.
    """
    moduli_sq: list[Fraction] = []
    for root, _ in eigs:
        if root.is_rational:
            moduli_sq.append(root.rational_value ** 2)
        elif root.degree == 2 and not root.is_real:
            p = root.minpoly
            moduli_sq.append(p.coeffs[0] / p.coeffs[2])
        else:
            return None
    return rational_nth_root(max(moduli_sq), 2)


def elliptic_product_report(endo=((1, -5), (1, 1))) -> EllipticProductReport:
    """Analyze an endomorphism of the product abelian surface.

    Runs the pullback action, exact spectral data, the polarization decision
    against the positive semidefinite cone, and the degree cross-checks. Any
    failed internal cross-check raises with the failing clause.
    """
    action = pullback_action(endo)
    m = action.ns_matrix
    rho = m.rows
    cm = ConeMap.create(m, psd_cone_oracle(2))
    cp = cm.char_poly
    eigs = tuple(roots_with_multiplicity(cp))
    real_count = sum(mult for root, mult in eigs if root.is_real)

    radius = _certified_spectral_radius(eigs)

    witness_class = None
    witness_ample = False
    q: Optional[Fraction] = None
    result = decide_polarization(cm)
    if result.is_polarized:
        cert = result.certificate
        q = cert.q
        witness_class = SymClass.from_vector(cert.witness)
        witness_ample = is_ample(witness_class)
        pulled = pullback_class(action.a, witness_class)
        expected = SymClass.from_vector(vec_scale(witness_class.as_vector(), q))
        if pulled != expected:
            raise InternalCheckError(
                f"witness class fails a^T H a = q H: {pulled} != {expected}")

    deg_f = product_endo_degree(action.a)
    degree_consistent = True
    if q is not None and q.denominator == 1:
        degree_consistent = (q_from_degree(deg_f, 2) == q)
        if radius is not None and radius != q:
            raise InternalCheckError(
                f"scaling factor {q} does not match spectral radius {radius}")

    polarized_above_one = bool(result.is_polarized and q is not None and q > 1)
    if result.is_polarized and not polarized_above_one:
        verdict = "not_polarized_for_q_above_1"
    elif polarized_above_one:
        verdict = "polarized"
    elif result.status is PolarizationStatus.IRRATIONAL_ONLY:
        verdict = "inconclusive"
    else:
        verdict = result.status.value

    return EllipticProductReport(
        endo=action.a,
        rho=rho,
        char_poly=cp,
        eigenvalues=eigs,
        real_eigenvalue_count=real_count,
        spectral_radius=radius,
        polarization=result,
        witness_class=witness_class,
        witness_is_ample=witness_ample,
        deg_f=deg_f,
        q=q,
        degree_consistent=degree_consistent,
        polarized_above_one=polarized_above_one,
        verdict=verdict,
    )


# -- quotient-surface self-intersection logic ---------------------------------------------


class QuotientVerdict(enum.Enum):
    CONTRADICTS_AMPLENESS = "contradicts_ampleness"
    NO_CONTRADICTION = "no_contradiction"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class QuotientImageResult:
    """Outcome of pushing a fibre class to a finite quotient.

    `image_sq` is the certified sign of the image self-intersection (the
    actual value is only defined up to the positive pullback constants);
    ample classes on a surface need positive self-intersection, so a zero
    sign rules ampleness out and forces a second independent class.
    """

    image_sq: int
    ample_possible: bool
    verdict: QuotientVerdict


def quotient_image_selfintersection(e0_sq: int, pull_coeff_positive: bool) -> QuotientImageResult:
    """Sign of the quotient image's self-intersection from the cover's.

    Assumes (when asserted) that pullback of the image is a positive
    multiple of the fibre and that self-intersections transform by a
    positive constant; only those signs enter the conclusion.
    """
    if not pull_coeff_positive:
        return QuotientImageResult(image_sq=0, ample_possible=True,
                                   verdict=QuotientVerdict.UNKNOWN)
    if e0_sq == 0:
        return QuotientImageResult(image_sq=0, ample_possible=False,
                                   verdict=QuotientVerdict.CONTRADICTS_AMPLENESS)
    sign = 1 if e0_sq > 0 else -1
    return QuotientImageResult(image_sq=sign, ample_possible=sign > 0,
                               verdict=QuotientVerdict.NO_CONTRADICTION)
