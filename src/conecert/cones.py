"""Finitely generated convex cones with exact rational arithmetic.

A cone is built from generators by the double description method, which
yields its facet normals; pointedness is enforced (a cone containing a line
is rejected) and generator sets that span a proper subspace are handled by
working inside their rational span. All arithmetic is exact.

The double description works on primitive integer vectors and keeps each
ray's zero set as an int bitmask, updated as each constraint is added, for
the combinatorial adjacency test. `build_cone` maps the generators to their
distinct primitive rays once, runs the double description on those rays and
checks the facets it yields with an integer certificate on the facet-ridge
graph (`_certify_facets`); ranks of integer vectors use fraction-free
elimination. The certified ray masks decide extremality and are expanded to
generator masks at the end, so the cone keeps the integer facet normals and
each facet's generator bitmask, and face queries are AND and subset tests.

`PolyhedralCone` and `PsdCone` (the cone of positive semidefinite matrices,
which has no finite facet description) answer the same questions:
`ambient_dim`, `dim` (of the span), `kind`, exact `contains` and
`strictly_contains` (relative interior), an `interior_sample`, and
`is_automorphism(m)`, whose positive answer `invariance` labels. A
polyhedral cone also gives `span_coordinates`, read at the pivot columns of
its reduced echelon span basis, so no query on a built cone eliminates.
"""
from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import and_
from typing import Callable, Optional, Sequence, Union

from .errors import (
    CapExceededError,
    ContainsLineError,
    DimensionMismatchError,
    EmptyInputError,
    ForeignFaceError,
    InternalCheckError,
    NotInConeError,
    PreconditionViolatedError,
)
from .exactalg import (
    QMatrix,
    char_poly,
    dot,
    independent_rows,
    is_zero_vector,
    primitive_ints,
    primitive_vector,
    rational_nth_root,
    vec_add,
    vec_scale,
    vector,
)

Vector = tuple[Fraction, ...]

MAX_AMBIENT_DIM = 8
MAX_GENERATORS = 64


class Membership(enum.Enum):
    OUTSIDE = "outside"
    BOUNDARY = "boundary"
    INTERIOR = "interior"


# -- double description core -----------------------------------------------------


def _dual_extreme_rays(constraints: Sequence[Sequence], dim: int) -> list[tuple[int, ...]]:
    """Extreme rays of {y : <a, y> >= 0 for all a in constraints}, as sorted
    primitive integer vectors.

    Incremental double description over primitive integer vectors with the
    combinatorial adjacency test on bitmask zero sets. Requires the
    constraint vectors to span the space, which makes the dual cone pointed
    and every intermediate cone pointed as well.
    """
    cons = [primitive_ints(a) for a in constraints]
    # initial simplicial cone from the first maximal independent constraint subset
    basis_idx = independent_rows(cons)
    if len(basis_idx) < dim:
        raise InternalCheckError("constraints do not span the space")
    binv = QMatrix.from_rows([cons[i] for i in basis_idx]).inverse()
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
        # no new ray repeats another: adjacent rays p, n span a 2-face of
        # their own, which meets the hyperplane <a, y> = 0 in one ray
        # (Fukuda and Prodon, Double description method revisited, 1996)
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
                new_rays.append(primitive_ints([vp * x - vn * y for x, y in zip(rays[n], rp)]))
                new_masks.append(common | bit)
        rays = [rays[k] for k in keep] + new_rays
        masks = [masks[k] for k in keep] + new_masks
    return sorted(rays)


def _certify_facets(rays: Sequence[tuple[int, ...]], normals: Sequence[tuple[int, ...]],
                    dim: int) -> list[int]:
    """Check that `normals` list each facet of cone(rays) exactly once.

    `rays` are distinct primitive integer vectors spanning Q^dim and
    generating a pointed cone. Returns each facet's tight-ray bitmask; any
    failed clause is an InternalCheckError.

    (a) every ray satisfies every normal; (b) the rays tight on a normal
    have rank dim - 1, so each normal is a facet; (c) no facet is listed
    twice, and every ridge of a listed facet lies in exactly two listed
    facets (`_certify_ridges`). A pointed cone's facet-ridge graph is
    connected and each ridge lies in exactly two of its facets (Ziegler,
    Lectures on Polytopes, ch. 3), so a facet missing from the list would
    leave a ridge of a listed neighbour with one listed facet.
    """
    tight = []
    for n in normals:
        products = [sum(a * b for a, b in zip(n, r)) for r in rays]
        if any(p < 0 for p in products):
            raise InternalCheckError("generator violates a computed facet")
        if len(independent_rows(r for r, p in zip(rays, products) if p == 0)) != dim - 1:
            raise InternalCheckError("computed facet is not facet-dimensional")
        tight.append(sum(1 << i for i, p in enumerate(products) if p == 0))
    ranks: dict[int, int] = {}

    def rank(mask: int) -> int:
        if mask not in ranks:
            ranks[mask] = len(independent_rows(rays[i] for i in _bits(mask)))
        return ranks[mask]

    _certify_ridges(tight, dim, rank, {})
    return tight


def _certify_ridges(facets: Sequence[int], dim: int, rank: Callable[[int], int],
                    done: dict[int, list[int]]) -> None:
    """Clause (c) for a face of dimension `dim` whose facets are claimed to be
    `facets`, each given by the bitmask of the distinct rays on it; `rank(m)`
    is the rank of the rays of face m.

    A ridge is keyed by its own ray mask. A facet with dim - 1 rays is
    simplicial, and its ridges drop one of them. Any other facet f is a
    face of dimension dim - 1 whose facets are claimed to be its
    intersections of rank dim - 2 with the other listed facets, certified
    the same way: a facet h missing from `facets` leaves the ridge f & h out
    of f's list, so no double description runs below the top. A face is
    reached along many chains of facets; `done` keeps each certified face's
    facets by its mask, so each face is certified once.
    """
    if not facets:
        raise InternalCheckError("no computed facets")
    if len(set(facets)) != len(facets):
        raise InternalCheckError("a facet is listed twice")
    ridges: Counter[int] = Counter()
    for f in facets:
        if f.bit_count() == dim - 1:
            ridges.update(f & ~(1 << i) for i in _bits(f))
            continue
        if f not in done:
            sub = [f & g for g in facets if g != f and rank(f & g) == dim - 2]
            _certify_ridges(sub, dim - 1, rank, done)
            done[f] = sub
        ridges.update(done[f])
    if any(count != 2 for count in ridges.values()):
        raise InternalCheckError("a ridge does not lie in exactly two computed facets")


def _bits(mask: int):
    """Indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- cone types --------------------------------------------------------------------


@dataclass(frozen=True)
class PolyhedralCone:
    """A pointed cone, full dimensional inside the span of its generators.

    `facet_normals` are primitive integer vectors in ambient coordinates;
    together with membership in the span they cut out exactly the cone. Bit
    i of `facet_masks[j]` is set exactly when generator i lies on facet j.
    """

    kind = "polyhedral"
    invariance = "generators-exact"

    ambient_dim: int
    generators: tuple[Vector, ...]
    facet_normals: tuple[tuple[int, ...], ...]
    facet_masks: tuple[int, ...]
    span_basis: tuple[Vector, ...]      # reduced echelon rows, ambient coords
    extreme_ray_indices: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.span_basis)

    def span_coordinates(self, x: Sequence) -> Optional[Vector]:
        """Coordinates of x in the span basis, or None if x is outside the span:
        x's entries at the pivot columns, if they give x back (`build_cone`)."""
        x = vector(x)
        if len(x) != self.ambient_dim:
            raise DimensionMismatchError(
                f"expected dimension {self.ambient_dim}, got {len(x)}")
        c = tuple(x[next(j for j, v in enumerate(b) if v)] for b in self.span_basis)
        return c if all(sum(a * b[j] for a, b in zip(c, self.span_basis)) == xj
                        for j, xj in enumerate(x)) else None

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

    def is_automorphism(self, m: QMatrix) -> bool:
        """Whether the invertible map m carries the cone onto itself: a
        pointed cone is generated by its extreme rays, so exactly when m
        permutes them."""
        rays = [self.generators[i] for i in self.extreme_ray_indices]
        return {primitive_ints(m.apply(g)) for g in rays} == {primitive_ints(g) for g in rays}


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

    def generators(self) -> tuple[Vector, ...]:
        return tuple(self.parent.generators[i] for i in self.generator_indices)

    @property
    def dim(self) -> int:
        return len(independent_rows(primitive_ints(g) for g in self.generators()))


# -- construction ---------------------------------------------------------------------


def build_cone(generators: Sequence[Sequence], *,
               max_dim: int = MAX_AMBIENT_DIM) -> PolyhedralCone:
    """Cone generated by the given rational vectors.

    Every stage after the span works on the generators' distinct primitive
    rays: facet normals come from one double description run, checked by
    the integer facet certificate `_certify_facets` (the inequality system
    cuts out exactly the generated cone); cones that contain a line are
    rejected. A ray is extreme when the facets through it meet in it alone,
    and its first generator is kept. The certified ray masks are expanded
    to generator masks at the end, so every copy of a ray shares its bits.
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

    # work inside the rational span; each reduced echelon basis row is 1 at
    # its own pivot and 0 at the others, so local coordinates are the
    # generators' pivot entries (the generators themselves when full dimensional)
    echelon, pivots, _ = QMatrix.from_rows(gens)._echelon()
    d = len(pivots)
    span_basis = tuple(tuple(echelon[r][c] for c in range(ambient)) for r in range(d))
    # generator i lies on ray ray_of[i]; rays are numbered by first appearance
    index: dict[tuple[int, ...], int] = {}
    ray_of = [index.setdefault(primitive_ints([g[c] for c in pivots]), len(index))
              for g in gens]
    rays = list(index)

    normals_local = _dual_extreme_rays(rays, d)
    if len(independent_rows(normals_local)) < d:
        raise ContainsLineError("cone contains a line")
    tight = _certify_facets(rays, normals_local, d)

    # ray r is extreme exactly when the facets through it meet in r alone;
    # no facet meets in every ray, so a ray on no facet is extreme only in a
    # one-ray cone
    every = (1 << len(rays)) - 1
    extreme = [r for r in range(len(rays))
               if reduce(and_, (m for m in tight if m >> r & 1), every) == 1 << r]
    facet_masks = tuple(sum(1 << i for i, r in enumerate(ray_of) if m >> r & 1) for m in tight)
    # lift normals to ambient coordinates: n_amb = E (E^T E)^{-1} n_loc keeps
    # every sign on the span; a full-dimensional span needs no lift
    normals = tuple(normals_local)
    if d < ambient:
        emb = QMatrix.from_columns([vector(b) for b in span_basis])
        lift = emb * (emb.transpose() * emb).inverse()
        normals = tuple(primitive_ints(lift.apply(n)) for n in normals_local)

    return PolyhedralCone(
        ambient_dim=ambient,
        generators=tuple(gens),
        facet_normals=normals,
        facet_masks=facet_masks,
        span_basis=span_basis,
        extreme_ray_indices=tuple(ray_of.index(r) for r in extreme),
    )


def membership(c: PolyhedralCone, x: Sequence) -> Membership:
    """Classify x against the cone; Interior means relative interior."""
    x = vector(x)
    if len(x) != c.ambient_dim:
        raise DimensionMismatchError(
            f"expected dimension {c.ambient_dim}, got {len(x)}")
    if c.dim < c.ambient_dim and c.span_coordinates(x) is None:
        return Membership.OUTSIDE
    xi = primitive_ints(x)
    products = [sum(a * b for a, b in zip(n, xi)) for n in c.facet_normals]
    if any(p < 0 for p in products):
        return Membership.OUTSIDE
    if all(p > 0 for p in products):
        return Membership.INTERIOR
    return Membership.BOUNDARY


# -- faces ------------------------------------------------------------------------------


def _on_all(c: PolyhedralCone, facets: Sequence[int]) -> int:
    """Mask of the generators lying on every one of the given facets."""
    return reduce(and_, (c.facet_masks[j] for j in facets), (1 << len(c.generators)) - 1)


def _holding(c: PolyhedralCone, mask: int) -> tuple[int, ...]:
    """The facets holding every generator in `mask`."""
    return tuple(j for j, fm in enumerate(c.facet_masks) if fm & mask == mask)


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
    total = reduce(vec_add, subs)
    active = tuple(j for j, n in enumerate(c.facet_normals) if dot(n, total) == 0)
    return Face(c, tuple(_bits(_on_all(c, active))), active)


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
    closed = {(1 << n) - 1}
    for fm in c.facet_masks:
        closed |= {fm & s for s in closed}
    faces = [Face(parent=c, generator_indices=tuple(_bits(s)), active_facets=_holding(c, s))
             for s in closed]
    faces.sort(key=lambda f: (f.dim, f.generator_indices))
    return faces


def is_extremal_face(c: PolyhedralCone, f: Union[Face, Sequence[Sequence]]) -> bool:
    """Whether f is an extremal face of c (u + v in f forces u, v in f).

    Accepts either a Face of c or an arbitrary proposed subcone given by
    generators. The verdict is certified through the active-facet
    characterization.
    """
    if isinstance(f, Face):
        if f.parent is not c:
            raise ForeignFaceError("face belongs to a different cone")
        on = _on_all(c, f.active_facets)
        return (tuple(_bits(on)) == f.generator_indices
                and _holding(c, on) == tuple(f.active_facets))
    gens = [vector(v) for v in f]
    for v in gens:
        if membership(c, v) is Membership.OUTSIDE:
            raise NotInConeError(f"proposed face generator {v} outside the cone")
    on_face = set(minimal_extremal_face(c, gens).generator_indices)
    # f is a face iff it is the minimal face F containing it. F is generated
    # by the extreme rays of c on it, and such a ray lies in f only as a
    # positive multiple of a generator of f, since f lies in F
    rays = {primitive_ints(v) for v in gens}
    return all(primitive_ints(c.generators[i]) in rays
               for i in c.extreme_ray_indices if i in on_face)


# -- the positive semidefinite cone --------------------------------------------------------


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


def _minor_sums(m: QMatrix) -> list[Fraction]:
    """e_1, ..., e_n, e_k the sum of the k x k principal minors: (-1)^k times
    the coefficient of t^(n-k) in det(tI - m). For a symmetric m they are
    the elementary symmetric functions of its real eigenvalues."""
    cp = char_poly(m)
    n = m.rows
    return [cp.coeff(n - k) * (-1) ** k for k in range(1, n + 1)]


def _is_psd(m: QMatrix) -> bool:
    """Exact PSD test: every eigenvalue is >= 0 exactly when every e_k >= 0."""
    return all(e >= 0 for e in _minor_sums(m))


def _is_pd(m: QMatrix) -> bool:
    """Exact PD test: every eigenvalue is > 0 exactly when every e_k > 0."""
    return all(e > 0 for e in _minor_sums(m))


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
        s = rational_nth_root(d0 / image.entry(k, k), 2)
        if s is None:
            return False
        bi = vec_scale(image.column(k), s)
        if i > 0 and column[0, i] != congruence(b[0], bi, 1 / d0):
            bi = vec_scale(bi, -1)
        b.append(bi)
    return all(column[i, j] == congruence(b[i], b[j], 1 / d0 if i < j else 1 / (2 * d0))
               for i, j in pairs)


@dataclass(frozen=True)
class PsdCone:
    """The cone of positive semidefinite symmetric n x n rational matrices.

    Vectors are upper triangles, row major, with off-diagonal coordinates
    taken against the symmetrized basis elements e_i e_j^T + e_j e_i^T. The
    cone is full dimensional, so `dim` is the ambient dimension n(n+1)/2.
    Membership is exact (`_is_psd`, `_is_pd`), and `is_automorphism`
    recovers the map as a congruence (`_is_psd_congruence`).
    """

    n: int
    invariance = "congruence-exact"

    @property
    def ambient_dim(self) -> int:
        return self.n * (self.n + 1) // 2

    dim = ambient_dim

    @property
    def kind(self) -> str:
        return f"psd({self.n})"

    def contains(self, x: Sequence) -> bool:
        return _is_psd(_sym_from_vector(self.n, x))

    def strictly_contains(self, x: Sequence) -> bool:
        return _is_pd(_sym_from_vector(self.n, x))

    def interior_sample(self) -> Vector:
        return _sym_to_vector(QMatrix.identity(self.n))

    def is_automorphism(self, m: QMatrix) -> bool:
        return _is_psd_congruence(self.n, m)


ConeLike = Union[PolyhedralCone, PsdCone]


def psd_cone_oracle(n: int, *, max_dim: int = MAX_AMBIENT_DIM) -> PsdCone:
    """The PSD cone of n x n matrices, its ambient dimension n(n+1)/2 held
    to the same cap as `build_cone`."""
    if n < 1:
        raise PreconditionViolatedError("n must be positive")
    cone = PsdCone(n)
    if cone.ambient_dim > max_dim:
        raise CapExceededError(
            f"psd({n}) has ambient dimension {cone.ambient_dim}, exceeding cap {max_dim}")
    return cone
