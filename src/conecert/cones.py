"""Finitely generated convex cones with exact rational arithmetic.

A cone is built from generators by the double description method, which
yields its facet normals; pointedness is enforced (a cone containing a line
is rejected) and generator sets that span a proper subspace are handled by
working inside their rational span. All arithmetic is exact.

The double description works on primitive integer vectors and keeps each
ray's zero set as an int bitmask, updated as each constraint is added, for
the combinatorial adjacency test. `build_cone` still runs it a second time,
on the facet normals, to check that they give back the generator rays.
"""
from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .errors import (
    CapExceededError,
    ContainsLineError,
    DimensionMismatchError,
    EmptyInputError,
    ForeignFaceError,
    InternalCheckError,
    NotInConeError,
)
from .exactalg import (
    QMatrix,
    char_poly,
    dot,
    is_zero_vector,
    primitive_ints,
    primitive_vector,
    vec_add,
    vec_scale,
    vector,
)

Vector = tuple[Fraction, ...]

MAX_AMBIENT_DIM = 8
MAX_GENERATORS = 64
# seeded random pairs behind `is_extremal_face`'s redundant extremality probe
PAIR_CHECKS = 32
PAIR_CHECK_SEED = 7


class Membership(enum.Enum):
    OUTSIDE = "outside"
    BOUNDARY = "boundary"
    INTERIOR = "interior"


# -- double description core -----------------------------------------------------


def _dual_extreme_rays(constraints: Sequence[Vector], dim: int) -> list[Vector]:
    """Extreme rays of {y : <a, y> >= 0 for all a in constraints}.

    Incremental double description over primitive integer vectors with the
    combinatorial adjacency test on bitmask zero sets. Requires the
    constraint vectors to span the space, which makes the dual cone pointed
    and every intermediate cone pointed as well.
    """
    # initial simplicial cone from the first maximal independent constraint subset
    _, basis_idx = QMatrix.from_columns(list(constraints))._echelon()
    if len(basis_idx) < dim:
        raise InternalCheckError("constraints do not span the space")
    cons = [primitive_ints(a) for a in constraints]
    binv = QMatrix.from_rows([constraints[i] for i in basis_idx]).inverse()
    rays = [primitive_ints(binv.column(j)) for j in range(dim)]
    basis_bits = sum(1 << i for i in basis_idx)
    # bit i of masks[k] is set when rays[k] is tight on processed constraint i
    masks = [basis_bits & ~(1 << i) for i in basis_idx]

    for i, a in enumerate(cons):
        if basis_bits >> i & 1:
            continue
        bit = 1 << i
        vals = [sum(x * y for x, y in zip(a, r)) for r in rays]
        masks = [m | bit if v == 0 else m for m, v in zip(masks, vals)]
        neg = [k for k, v in enumerate(vals) if v < 0]
        if not neg:
            continue
        keep = [k for k, v in enumerate(vals) if v >= 0]
        new_rays, new_masks = [], []
        seen = {rays[k] for k in keep}
        for p in (k for k in keep if vals[k] > 0):
            vp, rp, mp = vals[p], rays[p], masks[p]
            for n in neg:
                common = mp & masks[n]
                if common.bit_count() < dim - 2:
                    continue
                if any(m & common == common and k != p and k != n
                       for k, m in enumerate(masks)):
                    continue
                vn = vals[n]
                cand = primitive_ints([vp * x - vn * y for x, y in zip(rays[n], rp)])
                if cand not in seen:
                    seen.add(cand)
                    new_rays.append(cand)
                    new_masks.append(common | bit)
        rays = [rays[k] for k in keep] + new_rays
        masks = [masks[k] for k in keep] + new_masks
    return [tuple(Fraction(x) for x in r) for r in sorted(set(rays))]


# -- cone types --------------------------------------------------------------------


@dataclass(frozen=True)
class PolyhedralCone:
    """A pointed cone, full dimensional inside the span of its generators.

    `facet_normals` are primitive integer vectors in ambient coordinates;
    together with membership in the span they cut out exactly the cone.
    """

    ambient_dim: int
    generators: tuple[Vector, ...]
    facet_normals: tuple[Vector, ...]
    span_basis: tuple[Vector, ...]      # columns of the embedding, ambient coords
    extreme_ray_indices: tuple[int, ...]
    _int_normals: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_int_normals",
                           tuple(primitive_ints(n) for n in self.facet_normals))

    @property
    def dim(self) -> int:
        return len(self.span_basis)

    @property
    def is_full_dimensional(self) -> bool:
        return self.dim == self.ambient_dim

    def span_coordinates(self, x: Sequence) -> Optional[Vector]:
        """Coordinates of x in the span basis, or None if x is outside the span."""
        x = vector(x)
        if len(x) != self.ambient_dim:
            raise DimensionMismatchError(
                f"expected dimension {self.ambient_dim}, got {len(x)}")
        emb = QMatrix.from_columns(list(self.span_basis))
        return emb.solve(x)

    def interior_sample(self) -> Vector:
        """Sum of the primitive generators; a canonical relative-interior point."""
        acc = tuple(Fraction(0) for _ in range(self.ambient_dim))
        for g in self.generators:
            acc = vec_add(acc, primitive_vector(g))
        return acc

    def contains(self, x: Sequence) -> bool:
        return membership(self, x) is not Membership.OUTSIDE

    def strictly_contains(self, x: Sequence) -> bool:
        return membership(self, x) is Membership.INTERIOR


@dataclass(frozen=True)
class Face:
    """A face of a polyhedral cone, recorded by generators and active facets.

    The face equals the parent cone intersected with the kernels of its
    active facet normals; `generator_indices` lists exactly the parent
    generators lying on it.
    """

    parent: PolyhedralCone
    generator_indices: tuple[int, ...]
    active_facets: tuple[int, ...]

    @property
    def is_improper(self) -> bool:
        return not self.active_facets

    def generators(self) -> tuple[Vector, ...]:
        return tuple(self.parent.generators[i] for i in self.generator_indices)

    @property
    def dim(self) -> int:
        gens = self.generators()
        if not gens:
            return 0
        return QMatrix.from_rows(list(gens)).rank()


@dataclass
class ConeOracle:
    """Membership oracle for cones with no finite facet description.

    `contains` / `strictly_contains` answer exact membership and relative
    interior membership; `interior_sample` is a point with
    strictly_contains(interior_sample()) true. `is_automorphism` decides
    exactly whether an invertible map carries the cone onto itself.
    """

    dim: int
    contains: Callable[[Sequence], bool]
    strictly_contains: Callable[[Sequence], bool]
    interior_sample: Callable[[], Vector]
    is_automorphism: Callable[[QMatrix], bool]
    description: str = "oracle"


ConeLike = Union[PolyhedralCone, ConeOracle]


# -- construction ---------------------------------------------------------------------


def build_cone(generators: Sequence[Sequence], *,
               max_dim: int = MAX_AMBIENT_DIM) -> PolyhedralCone:
    """Cone generated by the given rational vectors.

    Facet normals come from double description; the construction also
    verifies the round trip (the inequality system cuts out exactly the
    generated cone) and rejects cones that contain a line.
    """
    gens = [vector(g) for g in generators]
    gens = [g for g in gens if not is_zero_vector(g)]
    if not gens:
        raise EmptyInputError("need at least one nonzero generator")
    ambient = len(gens[0])
    if any(len(g) != ambient for g in gens):
        raise DimensionMismatchError("generators of mixed dimension")
    if ambient > max_dim:
        raise CapExceededError(f"ambient dimension {ambient} exceeds cap {max_dim}")
    if len(gens) > MAX_GENERATORS:
        raise CapExceededError(f"{len(gens)} generators exceed cap {MAX_GENERATORS}")

    # work inside the rational span
    gen_matrix = QMatrix.from_rows(gens)
    echelon, pivots = gen_matrix._echelon()
    d = len(pivots)
    span_basis = tuple(tuple(echelon[r][c] for c in range(ambient)) for r in range(d))
    emb = QMatrix.from_columns([vector(b) for b in span_basis])
    local = [emb.solve(g) for g in gens]
    if any(loc is None for loc in local):  # pragma: no cover
        raise InternalCheckError("generator outside its own span")

    normals_local = _dual_extreme_rays(local, d)
    if not normals_local or QMatrix.from_rows(normals_local).rank() < d:
        raise ContainsLineError("cone contains a line")

    # round trip: extreme rays of the inequality system must be generator rays
    rays_local = _dual_extreme_rays(normals_local, d)
    prim_local = [primitive_vector(g) for g in local]
    extreme_idx = []
    for r in rays_local:
        try:
            extreme_idx.append(prim_local.index(r))
        except ValueError:
            raise InternalCheckError(
                "double description round trip produced a foreign ray") from None
    # lift normals to ambient coordinates: n_amb = E (E^T E)^{-1} n_loc; a
    # full-dimensional span has the identity as its reduced echelon basis
    normals = tuple(normals_local)
    if d < ambient:
        lift = emb * (emb.transpose() * emb).inverse()
        normals = tuple(primitive_vector(lift.apply(n)) for n in normals_local)

    cone = PolyhedralCone(
        ambient_dim=ambient,
        generators=tuple(gens),
        facet_normals=normals,
        span_basis=span_basis,
        extreme_ray_indices=tuple(sorted(extreme_idx)),
    )
    for g in gens:
        if membership(cone, g) is Membership.OUTSIDE:  # pragma: no cover
            raise InternalCheckError("generator violates a computed facet")
    return cone


def membership(c: PolyhedralCone, x: Sequence) -> Membership:
    """Classify x against the cone; Interior means relative interior."""
    x = vector(x)
    if len(x) != c.ambient_dim:
        raise DimensionMismatchError(
            f"expected dimension {c.ambient_dim}, got {len(x)}")
    if not c.is_full_dimensional and c.span_coordinates(x) is None:
        return Membership.OUTSIDE
    xi = primitive_ints(x)
    products = [sum(a * b for a, b in zip(n, xi)) for n in c._int_normals]
    if any(p < 0 for p in products):
        return Membership.OUTSIDE
    if all(p > 0 for p in products):
        return Membership.INTERIOR
    return Membership.BOUNDARY


# -- faces ------------------------------------------------------------------------------


def _generators_killed_by(c: PolyhedralCone, facets: Sequence[int]) -> tuple[int, ...]:
    out = []
    for i, g in enumerate(c.generators):
        if all(dot(c.facet_normals[j], g) == 0 for j in facets):
            out.append(i)
    return tuple(out)


def minimal_extremal_face(c: PolyhedralCone, sub_generators: Sequence[Sequence]) -> Face:
    """The unique minimal face of c containing the given subcone.

    The facets active on the sum of the sub-generators (a relative interior
    point of the subcone) are exactly the facets active on the whole
    subcone; the face they cut out is the minimal one.
    """
    subs = [vector(v) for v in sub_generators]
    if not subs:
        raise EmptyInputError("need at least one sub-generator")
    for v in subs:
        if membership(c, v) is Membership.OUTSIDE:
            raise NotInConeError(f"sub-generator {v} lies outside the cone")
    total = subs[0]
    for v in subs[1:]:
        total = vec_add(total, v)
    active = _active_facets_at_all(c, [total])
    gens = _generators_killed_by(c, active)
    return Face(parent=c, generator_indices=gens, active_facets=active)


def enumerate_faces(c: PolyhedralCone) -> list[Face]:
    """All faces (including the apex and the cone itself), deterministic order.

    Every proper face is an intersection of facets, so the faces' generator
    sets are the closure of the facets' generator bitmasks under
    intersection, plus the full generator set; a face's active facets are
    those whose bitmask contains its own. Faces are ordered by (dimension,
    generator index list).
    """
    n = len(c.generators)
    if n > 16:
        raise CapExceededError("face enumeration capped at 16 generators")
    gens = [primitive_ints(g) for g in c.generators]
    facet_masks = [sum(1 << i for i, g in enumerate(gens)
                       if sum(a * b for a, b in zip(nrm, g)) == 0)
                   for nrm in c._int_normals]
    closed = {(1 << n) - 1}
    for fm in facet_masks:
        closed |= {fm & s for s in closed}
    faces = [Face(parent=c,
                  generator_indices=tuple(i for i in range(n) if s >> i & 1),
                  active_facets=tuple(j for j, fm in enumerate(facet_masks)
                                      if fm & s == s))
             for s in closed]
    faces.sort(key=lambda f: (f.dim, f.generator_indices))
    return faces


def _subcone_contains(vs: Sequence[Vector]) -> Callable[[Vector], bool]:
    """Exact membership test for cone(vs); the subcone is built once."""
    nonzero = [v for v in vs if not is_zero_vector(v)]
    if not nonzero:
        return is_zero_vector
    sub = build_cone(nonzero)
    return lambda x: membership(sub, x) is not Membership.OUTSIDE


def is_extremal_face(c: PolyhedralCone, f: Union[Face, Sequence[Sequence]]) -> bool:
    """Whether f is an extremal face of c (u + v in f forces u, v in f).

    Accepts either a Face of c or an arbitrary proposed subcone given by
    generators. The verdict is certified through the active-facet
    characterization; randomized generator-pair tests are run as a redundant
    property check and any disagreement is an internal error.
    """
    if isinstance(f, Face):
        if f.parent is not c:
            raise ForeignFaceError("face belongs to a different cone")
        gens = list(f.generators())
        in_f = _subcone_contains(gens)
        certified = (_generators_killed_by(c, f.active_facets) == f.generator_indices
                     and _active_facets_at_all(c, gens) == tuple(f.active_facets))
    else:
        gens = [vector(v) for v in f]
        for v in gens:
            if membership(c, v) is Membership.OUTSIDE:
                raise NotInConeError(f"proposed face generator {v} outside the cone")
        minimal = minimal_extremal_face(c, gens)
        in_f = _subcone_contains(gens)
        # f is a face iff it coincides with the minimal face containing it
        certified = all(in_f(c.generators[i]) for i in minimal.generator_indices)

    # redundant extremality probe on random cone points
    rng = random.Random(PAIR_CHECK_SEED)
    if gens:
        for _ in range(PAIR_CHECKS):
            u = _random_cone_point(c, rng)
            v = _random_cone_point(c, rng)
            if in_f(vec_add(u, v)):
                if not (in_f(u) and in_f(v)):
                    if certified:
                        raise InternalCheckError(
                            "pair test contradicts the facet characterization")
                    return False
    return certified


def _active_facets_at_all(c: PolyhedralCone, points: Sequence[Vector]) -> tuple[int, ...]:
    return tuple(j for j, n in enumerate(c.facet_normals)
                 if all(dot(n, p) == 0 for p in points))


def _random_cone_point(c: PolyhedralCone, rng: random.Random) -> Vector:
    acc = tuple(Fraction(0) for _ in range(c.ambient_dim))
    for g in c.generators:
        acc = vec_add(acc, vec_scale(g, Fraction(rng.randrange(0, 4))))
    return acc


# -- the positive semidefinite oracle ------------------------------------------------------


def _sym_from_vector(n: int, x: Sequence) -> QMatrix:
    x = vector(x)
    if len(x) != n * (n + 1) // 2:
        raise DimensionMismatchError("wrong length for a flattened symmetric matrix")
    entries = [[Fraction(0)] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = x[k]
            entries[j][i] = x[k]
            k += 1
    return QMatrix.from_rows(entries)


def _sym_to_vector(m: QMatrix) -> Vector:
    n = m.rows
    return tuple(m.entry(i, j) for i in range(n) for j in range(i, n))


def _is_psd(m: QMatrix) -> bool:
    """Exact PSD test: det(tI - m) must have weakly alternating signs."""
    cp = char_poly(m)
    n = m.rows
    for k in range(1, n + 1):
        # coefficient of t^{n-k} times (-1)^k is the k-th minor sum
        if cp.coeff(n - k) * (-1) ** k < 0:
            return False
    return True


def _is_pd(m: QMatrix) -> bool:
    """Sylvester: all leading principal minors positive."""
    n = m.rows
    for k in range(1, n + 1):
        sub = QMatrix(k, k, [m.entry(i, j) for i in range(k) for j in range(k)])
        if sub.det() <= 0:
            return False
    return True


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """The positive rational square root of x > 0, or None."""
    root = Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))
    return root if root * root == x else None


def _is_psd_congruence(n: int, m: QMatrix) -> bool:
    """Whether the map m on flattened symmetric n x n matrices is
    X -> c B X B^T for a rational c > 0 and a rational B.

    The maps carrying the PSD cone onto itself are exactly the congruences
    X -> A X A^T with A invertible (Schneider, Positive operators and an
    inertia theorem, 1965), and a rational m forces A = sqrt(c) B. So B is
    recovered from m: the image of E_ii must be u_i u_i^T / d_i, c = 1 / d_0
    and b_i = +-sqrt(d_0 / d_i) u_i, the sign read off the image of
    E_0i + E_i0. If d_0 / d_i is no rational square, or the recovered
    congruence misses any column of m, m is no automorphism.
    """
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    column = dict(zip(pairs, (m.column(k) for k in range(len(pairs)))))

    def congruence(bi: Vector, bj: Vector, scale: Fraction) -> Vector:
        # scale * (bi bj^T + bj bi^T), flattened
        return tuple(scale * (bi[a] * bj[b] + bj[a] * bi[b]) for a, b in pairs)

    b: list[Vector] = []
    d0 = None
    for i in range(n):
        image = _sym_from_vector(n, column[i, i])
        k = next((k for k in range(n) if image.entry(k, k) > 0), None)
        if k is None:
            return False
        d0 = d0 or image.entry(k, k)
        s = _rational_sqrt(d0 / image.entry(k, k))
        if s is None:
            return False
        bi = vec_scale(image.column(k), s)
        if i > 0 and column[0, i] != congruence(b[0], bi, 1 / d0):
            bi = vec_scale(bi, -1)
        b.append(bi)
    return all(column[i, j] == congruence(b[i], b[j], 1 / d0 if i < j else 1 / (2 * d0))
               for i, j in pairs)


def psd_cone_oracle(n: int, *, max_dim: int = MAX_AMBIENT_DIM) -> ConeOracle:
    """The cone of positive semidefinite symmetric n x n rational matrices.

    Vectors are upper triangles, row major, with off-diagonal coordinates
    taken against the symmetrized basis elements e_i e_j^T + e_j e_i^T. The
    ambient dimension n(n+1)/2 is held to the same cap as `build_cone`.
    """
    if n < 1:
        raise ValueError("n must be positive")
    dim = n * (n + 1) // 2
    if dim > max_dim:
        raise CapExceededError(
            f"psd({n}) has ambient dimension {dim}, exceeding cap {max_dim}")

    def contains(x: Sequence) -> bool:
        return _is_psd(_sym_from_vector(n, x))

    def strictly_contains(x: Sequence) -> bool:
        return _is_pd(_sym_from_vector(n, x))

    def interior_sample() -> Vector:
        return _sym_to_vector(QMatrix.identity(n))

    return ConeOracle(dim=dim, contains=contains, strictly_contains=strictly_contains,
                      interior_sample=interior_sample,
                      is_automorphism=lambda m: _is_psd_congruence(n, m),
                      description=f"psd({n})")
