"""Decision engine for cone-preserving linear maps.

Given an invertible rational map that preserves a pointed cone in both
directions, this module decides whether the map admits an interior
eigenvector with a positive rational scaling factor q, and assembles a
certificate (q, the witness and the spectral projector onto the
q-eigenspace) whose clauses `certificate_failures` checks. Each verdict,
POLARIZED, NOT_POLARIZED or IRRATIONAL_ONLY, is a `PolarizationResult`. Power
boundedness of the normalized iterates in both directions is read off the
square-free part r of the characteristic polynomial (which `ConeMap.create`
computes once), kept by the polynomial with its Sturm chain: the roots of r
have modulus q and r(M) = 0, and then r is the minimal polynomial of M.

The module asks the cone only what `cones` gives for both cone types: its
dimensions, membership, an interior sample, its span coordinates when the
span is proper (read without elimination), and an exact automorphism test
(the map permutes the extreme rays of a polyhedral cone, or is a congruence
on the PSD cone). If M(C) = C and M / q is power bounded, the closure of the
powers of M / q is a compact group preserving C whose Haar average, the
spectral projector P onto the q-eigenspace, keeps the relative interior. So
P(interior sample) is the witness, and a non-interior projection is an
internal error.

The degree calculus helpers (q^dim relations, the product formula across an
equivariant dominant map, and the invariant-subvariety contradiction on
covered-by-torus spaces) live here as exact big-integer arithmetic.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .cones import ConeLike
from .errors import (
    DimensionMismatchError,
    InternalCheckError,
    InvarianceNotVerifiedError,
    NoIntegerRootError,
    NotPowerBoundedError,
    PreconditionViolatedError,
    SingularMatrixError,
)
from .exactalg import (
    QMatrix,
    QPoly,
    char_poly,
    evaluate_poly_at_matrix,
    has_positive_irrational_root,
    integer_nth_root,
    modulus_equals,
    primitive_vector,
    rational_nth_root,
    vec_scale,
)
from .exactalg.qpoly import _frac

Vector = tuple[Fraction, ...]


# -- invariance -----------------------------------------------------------------


@dataclass(frozen=True)
class ConeMap:
    """An invertible map together with the cone it preserves.

    `invariance` is the cone's label for its automorphism test, or None
    when `cone.is_automorphism(matrix)` fails: "generators-exact" for a
    polyhedral cone (the map permutes the extreme rays) or
    "congruence-exact" for the PSD cone (the map is recovered as a
    congruence X -> c B X B^T, see `cones._is_psd_congruence`).
    `char_poly` is char(matrix), computed once for the report and decision.
    """

    matrix: QMatrix
    cone: ConeLike
    invariance: Optional[str]
    char_poly: QPoly

    @staticmethod
    def create(matrix: QMatrix, cone: ConeLike) -> "ConeMap":
        if not matrix.is_square:
            raise DimensionMismatchError("map must be square")
        if matrix.cols != cone.ambient_dim:
            raise DimensionMismatchError("map and cone dimensions differ")
        # the constant term is +-det, so no separate elimination is needed
        cp = char_poly(matrix)
        if not cp.ints[0]:
            raise SingularMatrixError("cone map must be invertible")
        label = cone.invariance if cone.is_automorphism(matrix) else None
        return ConeMap(matrix, cone, label, cp)

    @property
    def invariance_checked(self) -> bool:
        return self.invariance is not None


# -- spectral power boundedness ----------------------------------------------------


def is_power_bounded(m: QMatrix, q) -> bool:
    """Whether sup over all integers i of |m^i| / q^i is finite.

    Spectrally characterized on the square-free part r of the characteristic
    polynomial: every root of r must have modulus exactly q (`modulus_equals`)
    and r(m) must vanish, so that m is diagonalizable.
    """
    q = _frac(q)
    if q <= 0:
        raise PreconditionViolatedError("q must be positive")
    cp = char_poly(m)
    if not cp.ints[0]:
        raise SingularMatrixError("power boundedness needs an invertible map")
    return modulus_equals(cp, q) and not any(
        evaluate_poly_at_matrix(cp.square_free_part(), m).nums)


def _bounded_projector(m: QMatrix, cp: QPoly, q: Fraction) -> Optional[QMatrix]:
    """The spectral projector onto the q-eigenspace if m / q is power
    bounded and q is an eigenvalue, else None.

    The square-free part r of cp = char(m) has every eigenvalue of m as a
    simple root, so if r = (t - q) g, r is the minimal polynomial exactly
    when r(m) = (m - q) g(m) vanishes, which makes m diagonalizable. Then
    g(m) / g(q) is the projector, g(q) being nonzero at the simple root q.
    """
    if cp(q) != 0 or not modulus_equals(cp, q):
        return None
    g = cp.square_free_part().exact_div(QPoly.linear_root(q))
    gm = evaluate_poly_at_matrix(g, m)
    if m * gm != gm.scale(q):
        return None
    return gm.scale(1 / g(q))


# -- polarization decision ------------------------------------------------------------


class PolarizationStatus(enum.Enum):
    POLARIZED = "polarized"
    NOT_POLARIZED = "not_polarized"
    IRRATIONAL_ONLY = "irrational_only"


@dataclass(frozen=True)
class PolarizationCertificate:
    """Witnessed verdict: matrix * witness = q * witness with witness interior.

    The projector is the exact spectral projector onto the q-eigenspace.
    `certificate_failures` checks the clauses, among them that an integer
    map has an integer q. For a cone spanning a proper subspace, the
    projector acts on span coordinates and the eigenvalues transverse to the
    span are reported via `transverse_char_poly` without further
    interpretation.
    """

    q: Fraction
    witness: Vector
    projector: QMatrix
    invariance: str
    cone_kind: str
    transverse_char_poly: Optional[QPoly] = None

    @property
    def q_is_integer(self) -> bool:
        return self.q.denominator == 1


@dataclass(frozen=True)
class PolarizationResult:
    """One verdict of `decide_polarization`. `certificate` is set only for
    POLARIZED and `span_char_poly`, the characteristic polynomial the
    decision read on the cone's span, only for IRRATIONAL_ONLY."""

    status: PolarizationStatus
    certificate: Optional[PolarizationCertificate] = None
    reason: str = ""
    span_char_poly: Optional[QPoly] = None

    @property
    def is_polarized(self) -> bool:
        return self.status is PolarizationStatus.POLARIZED

    def candidate_minpoly(self, roots) -> Optional[QPoly]:
        """Minimal polynomial of the first positive irrational real root among
        `roots` (pairs from `roots_with_multiplicity`, isolated by the caller)
        whose minimal polynomial divides `span_char_poly`, so a root
        transverse to the cone's span is never named."""
        return next((root.minpoly for root, _ in roots
                     if root.is_real and not root.is_rational and root.box[0] >= 0
                     and (self.span_char_poly % root.minpoly).is_zero), None)


def _effective_map(cm: ConeMap) -> tuple[QMatrix, QPoly, Optional[QPoly]]:
    """Matrix of the map on the cone's span, its characteristic polynomial,
    and the transverse factor (None when the span is the whole space)."""
    m, cone = cm.matrix, cm.cone
    if cone.dim == cone.ambient_dim:
        return m, cm.char_poly, None
    cols = [cone.span_coordinates(m.apply(b)) for b in cone.span_basis]
    if None in cols:
        raise InvarianceNotVerifiedError("map does not preserve the cone's span")
    m_span = QMatrix.from_columns(cols)
    cp_span = char_poly(m_span)
    return m_span, cp_span, cm.char_poly.exact_div(cp_span)


def _interior_witness(cone: ConeLike, proj: QMatrix) -> Vector:
    """The primitive image of the interior sample under the q-eigenspace
    projector, which the cone lemma (module docstring) makes interior."""
    sample = cone.interior_sample()
    if cone.dim < cone.ambient_dim:
        emb = QMatrix.from_columns(list(cone.span_basis))
        candidate = emb.apply(proj.apply(cone.span_coordinates(sample)))
    else:
        candidate = proj.apply(sample)
    if not cone.strictly_contains(candidate):
        raise InternalCheckError(
            "projected interior sample is not interior on an invariant cone")
    return primitive_vector(candidate)


def interior_eigenvector(cm: ConeMap, q) -> Vector:
    """A strictly interior eigenvector for q: the projected interior sample
    (module docstring)."""
    q = _frac(q)
    if not cm.invariance_checked:
        raise InvarianceNotVerifiedError("cone invariance has not been verified")
    if q <= 0:
        raise PreconditionViolatedError("q must be positive")
    m_eff, cp, _ = _effective_map(cm)
    projector = _bounded_projector(m_eff, cp, q)
    if projector is None:
        raise NotPowerBoundedError(f"normalized iterates unbounded at q = {q}")
    return _interior_witness(cm.cone, projector)


def decide_polarization(cm: ConeMap) -> PolarizationResult:
    """Decide whether the cone map has an interior eigenvector, with certificate.

    If the map M (restricted to the cone's span, of dimension n) divided by q
    has bounded powers, every eigenvalue has modulus q, so |det M| = q^n. The
    only candidate is therefore the rational n-th root of |det M|, and only
    when it is an eigenvalue. When no q makes the map power bounded but a
    positive irrational real eigenvalue exists (a Sturm count, no root
    isolation), the verdict is IRRATIONAL_ONLY and carries the span
    characteristic polynomial. Once q passes, the witness is the projected
    interior sample (module docstring), so every verdict is one of the three
    statuses; the decision raises only on misuse or a failed internal check.
    """
    if not cm.invariance_checked:
        raise InvarianceNotVerifiedError("cone invariance has not been verified")

    m_eff, cp, transverse = _effective_map(cm)
    q = rational_nth_root(abs(cp.coeff(0)), cp.degree)
    projector = None if q is None else _bounded_projector(m_eff, cp, q)
    if projector is None:
        if has_positive_irrational_root(cp):
            return PolarizationResult(
                PolarizationStatus.IRRATIONAL_ONLY, span_char_poly=cp,
                reason="only irrational positive real eigenvalue candidates exist")
        return PolarizationResult(
            PolarizationStatus.NOT_POLARIZED,
            reason="no positive rational eigenvalue makes the map power bounded")

    cert = PolarizationCertificate(
        q=q,
        witness=_interior_witness(cm.cone, projector),
        projector=projector,
        invariance=cm.invariance,
        cone_kind=cm.cone.kind,
        transverse_char_poly=transverse,
    )
    failures = certificate_failures(cm.matrix, m_eff, cert)
    if failures:
        raise InternalCheckError(failures[0])
    return PolarizationResult(PolarizationStatus.POLARIZED, certificate=cert)


def certificate_failures(m: QMatrix, m_eff: QMatrix,
                         cert: PolarizationCertificate) -> list[str]:
    """The names of the clauses cert fails, out of: Mw = qw, P^2 = P,
    P m_eff = qP (m_eff is m on the cone's span, where P acts) and "an
    integer m has an integer q". `_bounded_projector` built P with MP = qP
    (M g(M) = q g(M)) and `_interior_witness` checked the witness interior."""
    failures = []
    if m.apply(cert.witness) != vec_scale(cert.witness, cert.q):
        failures.append("witness is not an eigenvector")
    p = cert.projector
    if p * p != p:
        failures.append("projector is not idempotent")
    if p * m_eff != p.scale(cert.q):
        failures.append("projector does not intertwine the map at q")
    if m.is_integer and not cert.q_is_integer:
        failures.append("integer pullback produced a non-integer scaling factor")
    return failures


# -- degree calculus -------------------------------------------------------------------


def q_from_degree(deg: int, n: int) -> int:
    """The integer q with q^n = deg (deg f = q^dim for a polarized map)."""
    if deg < 1 or n < 1:
        raise PreconditionViolatedError("degree and dimension must be positive")
    q = integer_nth_root(deg, n)
    if q is None:
        raise NoIntegerRootError(f"{deg} is not a perfect {n}-th power")
    return q


def restricted_degree(q: int, dim_z: int) -> int:
    """Degree of the restriction to an invariant subvariety: q^dim_z."""
    if q < 1:
        raise PreconditionViolatedError("q must be positive")
    if dim_z < 0:
        raise PreconditionViolatedError("dimension must be nonnegative")
    return q ** dim_z


def product_formula_check(dim_x: int, deg_f: int, dim_y: int, deg_g: int) -> bool:
    """Whether deg_f^dim_y = deg_g^dim_x, the degree relation across an
    equivariant dominant map; a point base (dim_y = 0, deg_g = 1) passes.

    With g = gcd(dim_x, dim_y) the relation holds exactly when one integer t
    has deg_f = t^(dim_x / g) and deg_g = t^(dim_y / g), so it is decided
    from two integer roots without forming either power.
    """
    if dim_x < 0 or dim_y < 0 or deg_f < 1 or deg_g < 1:
        raise PreconditionViolatedError("dimensions must be nonnegative and degrees positive")
    if dim_x == 0 or dim_y == 0:
        return (dim_y == 0 or deg_f == 1) and (dim_x == 0 or deg_g == 1)
    g = gcd(dim_x, dim_y)
    t = integer_nth_root(deg_f, dim_x // g)
    return t is not None and t == integer_nth_root(deg_g, dim_y // g)


class AbelianInvariantVerdict(enum.Enum):
    CONSISTENT = "consistent"
    CONTRADICTION = "contradiction"


def abelian_invariant_check(q: int, dim_x: int, dim_z: int) -> AbelianInvariantVerdict:
    """Degree arithmetic behind 'no invariant proper subvariety':

    on a space covered by a torus the restriction to an invariant subvariety
    keeps full degree q^dim_x, but an ample restriction forces q^dim_z.
    Those agree only at q = 1, so q > 1 is a contradiction.
    """
    if not 0 <= dim_z < dim_x:
        raise PreconditionViolatedError("need 0 <= dim_z < dim_x")
    if q < 1:
        raise PreconditionViolatedError("q must be positive")
    return (AbelianInvariantVerdict.CONSISTENT if q == 1
            else AbelianInvariantVerdict.CONTRADICTION)


def product_endo_degree(a: QMatrix) -> int:
    """Topological degree of the torus-product endomorphism given by an
    integer matrix: det(a) squared."""
    if not a.is_square:
        raise DimensionMismatchError("endomorphism matrix must be square")
    if not a.is_integer:
        raise PreconditionViolatedError("endomorphism matrix must be integral")
    d = a.det()
    if d == 0:
        raise SingularMatrixError("endomorphism matrix must be invertible")
    return int(d * d)
