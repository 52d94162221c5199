import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conecert import cones
from conecert.cones import (
    Face,
    Membership,
    build_cone,
    enumerate_faces,
    is_extremal_face,
    membership,
    minimal_extremal_face,
    psd_cone_oracle,
)
from conecert.errors import (
    CapExceededError,
    ContainsLineError,
    EmptyInputError,
    InternalCheckError,
    NotInConeError,
)
from conecert.exactalg import (
    QMatrix,
    dot,
    is_zero_vector,
    primitive_ints,
    vec_add,
    vec_scale,
    vector,
)


@pytest.fixture
def quadrant():
    return build_cone([[1, 0], [0, 1]])


@pytest.fixture
def octant():
    return build_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.fixture
def square_cone():
    return build_cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])


def test_quadrant_facets(quadrant):
    assert set(quadrant.facet_normals) == {(1, 0), (0, 1)}


def test_square_cone_facets(square_cone):
    assert set(square_cone.facet_normals) == {(1, 1, 1), (1, -1, 1),
                                              (-1, 1, 1), (-1, -1, 1)}


def test_rejects_lines_and_empty():
    with pytest.raises(ContainsLineError):
        build_cone([[1, 0], [-1, 0]])
    with pytest.raises(ContainsLineError):
        build_cone([[1, 0], [0, 1], [-1, -1]])
    with pytest.raises(EmptyInputError):
        build_cone([[0, 0]])


def test_caps():
    with pytest.raises(CapExceededError):
        build_cone([[1] * 9])
    with pytest.raises(CapExceededError):
        build_cone([[1, i] for i in range(100)])


def test_membership(quadrant, square_cone):
    assert membership(quadrant, [1, 1]) is Membership.INTERIOR
    assert membership(quadrant, [1, 0]) is Membership.BOUNDARY
    assert membership(quadrant, [-1, 2]) is Membership.OUTSIDE
    # rational points are cleared of denominators before the integer products
    assert membership(quadrant, [Fraction(1, 2), Fraction(1, 3)]) is Membership.INTERIOR
    assert membership(quadrant, ["2/3", 0]) is Membership.BOUNDARY
    assert membership(quadrant, [Fraction(-1, 6), Fraction(5, 7)]) is Membership.OUTSIDE
    assert membership(square_cone, ["1/3", "1/4", 1]) is Membership.INTERIOR
    assert membership(square_cone, ["1/2", "1/2", 1]) is Membership.BOUNDARY
    assert membership(square_cone, ["1/2", "1/2", "99/100"]) is Membership.OUTSIDE


def test_membership_relative_to_span():
    ray = build_cone([[1, 2, 3]])
    assert membership(ray, [2, 4, 6]) is Membership.INTERIOR
    assert membership(ray, [1, 2, 4]) is Membership.OUTSIDE
    assert membership(ray, [-1, -2, -3]) is Membership.OUTSIDE
    assert membership(ray, ["1/2", 1, "3/2"]) is Membership.INTERIOR
    # a wedge in the plane z = x + y; (1, 1, 1) and (1, 1, 5/2) satisfy every
    # facet inequality but lie off the span
    wedge = build_cone([[1, 0, 1], [0, 1, 1]])
    assert wedge.dim < wedge.ambient_dim
    assert membership(wedge, [1, 1, 2]) is Membership.INTERIOR
    assert membership(wedge, [1, 0, 1]) is Membership.BOUNDARY
    for off_span in ((1, 1, 1), (1, 1, Fraction(5, 2))):
        assert all(dot(n, vector(off_span)) >= 0 for n in wedge.facet_normals)
        assert membership(wedge, off_span) is Membership.OUTSIDE


def _solve_coordinates(cone, x):
    """The reference: one exact solution of E c = x, E the span basis as
    columns, or None."""
    return QMatrix.from_columns(list(cone.span_basis)).solve(x)


def _proper_span_cones(rng, count):
    """Seeded pointed cones whose generators span a proper subspace, with
    rational basis entries."""
    out = []
    while len(out) < count:
        ambient = rng.randrange(2, 7)
        span = rng.randrange(1, ambient)
        basis = [[Fraction(rng.randrange(-3, 4), rng.choice([1, 1, 2, 3]))
                  for _ in range(ambient)] for _ in range(span)]
        gens = []
        for _ in range(rng.randrange(1, 8)):
            coeffs = [rng.randrange(1, 3)] + [rng.randrange(-1, 2) for _ in range(span - 1)]
            gens.append([sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(ambient)])
        try:
            out.append(build_cone(gens))
        except (EmptyInputError, ContainsLineError):
            continue
    return out


def test_span_coordinates_match_the_solve_reference():
    """Coordinates read at the pivot columns agree with an exact solve on
    generators, on points of the span and on points off it."""
    rng = random.Random(20261019)
    seen = Counter()
    for cone in _proper_span_cones(rng, 40):
        assert cone.dim < cone.ambient_dim
        pivots = [next(j for j, v in enumerate(b) if v) for b in cone.span_basis]
        off_pivot = [j for j in range(cone.ambient_dim) if j not in pivots]
        inside = [vector(sum(c * b[i] for c, b in zip(coeffs, cone.span_basis))
                         for i in range(cone.ambient_dim))
                  for coeffs in ([Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                                  for _ in range(cone.dim)] for _ in range(3))]
        # a unit vector at a column with no pivot is off the span, so is x + e_j
        outside = [vec_add(x, vector(int(i == rng.choice(off_pivot))
                                     for i in range(cone.ambient_dim))) for x in inside]
        outside.append(vector(rng.randrange(-5, 6) for _ in range(cone.ambient_dim)))
        for kind, points in (("generator", cone.generators), ("inside", inside),
                             ("outside", outside)):
            for x in points:
                got = cone.span_coordinates(x)
                assert got == _solve_coordinates(cone, x), (cone, x)
                seen[kind, got is None] += 1
    assert seen["generator", True] == seen["inside", True] == 0
    assert seen["generator", False] >= 40 and seen["inside", False] == 120
    assert seen["outside", True] >= 120
    full = build_cone([(1, 0), (1, 1)])
    assert full.span_coordinates((Fraction(1, 2), -3)) == (Fraction(1, 2), -3)


def test_minimal_face_examples(quadrant, octant, square_cone):
    ray = minimal_extremal_face(quadrant, [[1, 0]])
    assert ray.generator_indices == (0,)
    two_face = minimal_extremal_face(octant, [[1, 1, 0]])
    assert two_face.generator_indices == (0, 1)
    slab = minimal_extremal_face(square_cone, [[1, 1, 2]])
    assert slab.generator_indices == (0, 1)


def test_minimal_face_improper(quadrant):
    face = minimal_extremal_face(quadrant, [[1, 2]])
    assert not face.active_facets
    assert face.generator_indices == (0, 1)


def test_minimal_face_rejects_outside(quadrant):
    with pytest.raises(NotInConeError):
        minimal_extremal_face(quadrant, [[-1, 0]])


def test_minimal_face_brute_force_octant(octant):
    # every coordinate-subset face, against exhaustive enumeration
    faces = enumerate_faces(octant)
    assert len(faces) == 8
    face = minimal_extremal_face(octant, [[1, 1, 0]])
    containing = [f for f in faces
                  if set(face.generator_indices) <= set(f.generator_indices)
                  and membership(octant, [1, 1, 0]) is not Membership.OUTSIDE]
    assert min(len(f.generator_indices) for f in containing) == 2


def test_is_extremal_face(quadrant, octant):
    assert is_extremal_face(quadrant, minimal_extremal_face(quadrant, [[1, 0]]))
    assert is_extremal_face(octant, minimal_extremal_face(octant, [[1, 1, 0]]))
    assert is_extremal_face(quadrant, [[1, 0]])
    assert not is_extremal_face(quadrant, [[1, 1]])


def test_faces_are_extremal_on_random_cone_points():
    """For every face of seeded random pointed cones, a sum u + v of cone
    points lies in the face only when u and v do, with the face tested by
    membership in the cone of its generators; `is_extremal_face` agrees."""
    rng = random.Random(31415)
    in_sums = off_sums = 0
    for _ in range(12):
        d = rng.randrange(2, 5)
        gens = [(rng.randrange(1, 4), *(rng.randrange(-3, 4) for _ in range(d - 1)))
                for _ in range(rng.randrange(d, d + 4))]
        c = build_cone(gens)
        for face in enumerate_faces(c):
            assert is_extremal_face(c, face)
            on = set(face.generator_indices)
            if on:
                assert is_extremal_face(c, face.generators())
                sub = build_cone(face.generators())

            def point():
                # an off-face generator enters with probability 1/4
                coeffs = [rng.randrange(3) if i in on or rng.random() < 0.25 else 0
                          for i in range(len(gens))]
                return vector(sum(k * g[j] for k, g in zip(coeffs, gens)) for j in range(d))

            def in_face(x):
                return membership(sub, x) is not Membership.OUTSIDE if on else is_zero_vector(x)

            for _ in range(8):
                u, v = point(), point()
                if in_face(vec_add(u, v)):
                    assert in_face(u) and in_face(v)
                    in_sums += 1
                else:
                    off_sums += 1
    assert in_sums > 100 and off_sums > 100


def _subcone_reference(c, gens):
    """The route `is_extremal_face` took before it read extreme rays: build
    the proposed subcone, then test every generator of c on the minimal face
    for membership in it."""
    gens = [vector(v) for v in gens]
    for v in gens:
        if membership(c, v) is Membership.OUTSIDE:
            raise NotInConeError(f"proposed face generator {v} outside the cone")
    minimal = minimal_extremal_face(c, gens)
    nonzero = [v for v in gens if not is_zero_vector(v)]
    if not nonzero:
        return all(is_zero_vector(c.generators[i]) for i in minimal.generator_indices)
    sub = build_cone(nonzero)
    return all(membership(sub, c.generators[i]) is not Membership.OUTSIDE
               for i in minimal.generator_indices)


def _outcome(fn, c, gens):
    try:
        return fn(c, gens)
    except (NotInConeError, EmptyInputError) as exc:
        return type(exc)


def test_is_extremal_face_matches_the_subcone_reference():
    """Generator lists on seeded pointed cones of dimension 2-4, some in a
    proper subspace, with repeated, redundant and zero generators: faces,
    their scaled and combined generators, random subsets, an empty list and
    points off the cone all get the reference's answer or error."""
    rng = random.Random(27182)
    seen = Counter()
    for _ in range(40):
        d = rng.randrange(2, 5)
        base = [(rng.randrange(1, 4), *(rng.randrange(-3, 4) for _ in range(d - 1)))
                for _ in range(rng.randrange(d, d + 4))]
        gens = base + [base[0], tuple(a + b for a, b in zip(base[0], base[1])), (0,) * d]
        if rng.random() < 0.25:
            gens = [g + (0,) for g in gens]
        c = build_cone(gens)
        faces = enumerate_faces(c)

        def combo(pool):
            coeffs = [rng.randrange(3) for _ in pool]
            return vector(sum(a * g[k] for a, g in zip(coeffs, pool))
                          for k in range(c.ambient_dim))

        for _ in range(12):
            face = list(rng.choice(faces).generators())
            pool = face if face and rng.random() < 0.6 else list(c.generators)
            kind = rng.randrange(5)
            if kind == 0:
                query = [vec_scale(g, Fraction(rng.randrange(1, 5), rng.randrange(1, 4)))
                         for g in pool]
            elif kind == 1:
                query = rng.sample(pool, rng.randrange(len(pool) + 1))
            elif kind == 2:
                query = pool + [combo(pool) for _ in range(2)] + [(0,) * c.ambient_dim]
            elif kind == 3:
                query = [combo(pool) for _ in range(rng.randrange(1, 4))]
            else:
                query = pool + [vec_scale(combo(c.generators), -1)]
            expected = _outcome(_subcone_reference, c, query)
            assert _outcome(is_extremal_face, c, query) == expected, (gens, query)
            seen[expected] += 1
    assert seen[True] > 100 and seen[False] > 100, seen
    assert seen[NotInConeError] > 10 and seen[EmptyInputError] > 0, seen


def test_faces_ordered_and_complete(octant):
    faces = enumerate_faces(octant)
    keys = [(f.dim, f.generator_indices) for f in faces]
    assert keys == sorted(keys)
    assert faces[0].generator_indices == ()          # apex
    assert not faces[-1].active_facets               # the cone itself


def test_psd_oracle_membership():
    oracle = psd_cone_oracle(2)
    assert oracle.strictly_contains([1, 0, 5])
    assert oracle.contains([1, 0, 0]) and not oracle.strictly_contains([1, 0, 0])
    assert not oracle.contains([0, 1, 0])
    assert oracle.strictly_contains(oracle.interior_sample())


def test_psd_oracle_dimension_three():
    oracle = psd_cone_oracle(3)
    assert oracle.dim == 6
    assert oracle.contains([1, 0, 0, 1, 0, 0])        # diag(1,1,0)
    assert not oracle.strictly_contains([1, 0, 0, 1, 0, 0])
    assert oracle.strictly_contains([2, 1, 0, 2, 1, 2])


def _sylvester_pd(m: QMatrix) -> bool:
    """Sylvester's criterion, the reference for `cones._is_pd`: every
    leading principal minor is positive."""
    return all(QMatrix(k, k, [m.entry(i, j) for i in range(k) for j in range(k)]).det() > 0
               for k in range(1, m.rows + 1))


def test_pd_test_matches_sylvester():
    rng = random.Random(4407)
    seen = Counter()
    for _ in range(400):
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            # b b^T is PSD, and singular when b has fewer than n columns
            k = rng.randint(1, n)
            b = QMatrix(n, k, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                               for _ in range(n * k)])
            m = b * b.transpose()
            assert cones._is_psd(m)
            kind = "singular psd" if m.det() == 0 else "psd"
        else:
            upper = {(i, j): Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                     for i in range(n) for j in range(i, n)}
            m = QMatrix.from_rows([[upper[min(i, j), max(i, j)] for j in range(n)]
                                   for i in range(n)])
            kind = "symmetric"
        want = _sylvester_pd(m)
        assert cones._is_pd(m) is want, m
        seen[kind, want] += 1
    assert min(seen["singular psd", False], seen["psd", True],
               seen["symmetric", True], seen["symmetric", False]) > 20


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_psd_congruence_invariance(entries, a, b, c):
    m = QMatrix(2, 2, entries)
    if m.det() == 0:
        return
    oracle = psd_cone_oracle(2)
    h = QMatrix.from_rows([[a, b], [b, c]])
    conj = m.transpose() * h * m
    flat = (h.entry(0, 0), h.entry(0, 1), h.entry(1, 1))
    flat_conj = (conj.entry(0, 0), conj.entry(0, 1), conj.entry(1, 1))
    assert oracle.contains(flat) == oracle.contains(flat_conj)


def test_duplicate_and_zero_generators_tolerated():
    cone = build_cone([[1, 0], [1, 0], [0, 0], [0, 1]])
    assert set(cone.facet_normals) == {(1, 0), (0, 1)}
    assert len(cone.generators) == 3          # the zero vector is dropped
    assert membership(cone, [1, 1]) is Membership.INTERIOR


def test_redundant_generator_not_extreme():
    cone = build_cone([[1, 0], [0, 1], [1, 1]])
    assert set(cone.facet_normals) == {(1, 0), (0, 1)}
    assert cone.extreme_ray_indices == (0, 1)


def test_membership_dimension_mismatch(quadrant):
    from conecert.errors import DimensionMismatchError
    with pytest.raises(DimensionMismatchError):
        membership(quadrant, [1, 2, 3])
    with pytest.raises(DimensionMismatchError):
        membership(quadrant, [Fraction(1, 2)])
    with pytest.raises(DimensionMismatchError):
        membership(build_cone([[1, 2, 3]]), [1, 2])


def test_psd_oracle_size_one():
    oracle = psd_cone_oracle(1)
    assert oracle.dim == 1
    assert oracle.contains([0]) and not oracle.strictly_contains([0])
    assert oracle.strictly_contains([3])
    assert not oracle.contains([-1])


def test_psd_oracle_size_capped_by_ambient_dimension():
    from conecert.errors import CapExceededError
    assert psd_cone_oracle(3).dim == 6
    with pytest.raises(CapExceededError):
        psd_cone_oracle(4)
    assert psd_cone_oracle(4, max_dim=10).dim == 10


def test_minimal_face_of_zero_vector_is_apex(octant):
    face = minimal_extremal_face(octant, [[0, 0, 0]])
    assert face.generator_indices == ()
    assert len(face.active_facets) == len(octant.facet_normals)
    assert face.dim == 0


def test_double_description_roundtrip_seeded():
    rng = random.Random(11)
    for _ in range(25):
        dim = rng.randrange(2, 5)
        gens = [[rng.randrange(1, 4)] + [rng.randrange(-3, 4) for _ in range(dim - 1)]
                for _ in range(rng.randrange(dim, 9))]
        cone = build_cone(gens)
        for g in cone.generators:
            assert membership(cone, g) is not Membership.OUTSIDE
        assert membership(cone, cone.interior_sample()) is Membership.INTERIOR
        for idx in cone.extreme_ray_indices:
            assert membership(cone, cone.generators[idx]) is not Membership.OUTSIDE


def _faces_by_subsets(c):
    """Faces by closing every generator subset under the active-facet
    correspondence: the 2^n loop `enumerate_faces` used before the facet
    closure, kept as a reference."""
    n = len(c.generators)
    found = {}
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            sel = tuple(j for j, nrm in enumerate(c.facet_normals)
                        if all(dot(nrm, c.generators[i]) == 0 for i in subset))
            gens = tuple(i for i, g in enumerate(c.generators)
                         if all(dot(c.facet_normals[j], g) == 0 for j in sel))
            found.setdefault(gens, sel)
    faces = [Face(parent=c, generator_indices=g, active_facets=a)
             for g, a in found.items()]
    faces.sort(key=lambda f: (f.dim, f.generator_indices))
    return faces


def _random_face_test_cones(rng):
    """Pointed cones with at most 8 generators: full dimensional, spanning a
    proper subspace, with duplicate generators, and single rays."""
    for case in range(60):
        kind = case % 4
        ambient = rng.randrange(2, 5)
        span = ambient if kind == 0 else rng.randrange(1, ambient + 1)
        basis = [[rng.randrange(-2, 3) for _ in range(ambient)] for _ in range(span)]
        if QMatrix.from_rows(basis).rank() < span:
            continue
        count = 1 if kind == 3 else rng.randrange(span, 8)
        gens = []
        for _ in range(count):
            coeffs = [rng.randrange(1, 4)] + [rng.randrange(-2, 3) for _ in range(span - 1)]
            gens.append([sum(c * b[i] for c, b in zip(coeffs, basis))
                         for i in range(ambient)])
        if kind == 2:
            gens.append(list(gens[rng.randrange(len(gens))]))
        if kind == 3:
            gens.append([2 * x for x in gens[0]])
        yield build_cone(gens)


def test_enumerate_faces_matches_subset_loop():
    kinds = set()
    for cone in _random_face_test_cones(random.Random(5)):
        assert len(cone.generators) <= 8
        kinds.add((cone.dim == cone.ambient_dim, cone.dim))
        expected = [(f.dim, f.generator_indices, f.active_facets)
                    for f in _faces_by_subsets(cone)]
        assert [(f.dim, f.generator_indices, f.active_facets)
                for f in enumerate_faces(cone)] == expected
    assert (True, 4) in kinds and (False, 1) in kinds and (False, 2) in kinds


def test_facet_masks_record_the_generators_on_each_facet():
    for cone in _random_face_test_cones(random.Random(5)):
        assert len(cone.facet_masks) == len(cone.facet_normals)
        for normal, mask in zip(cone.facet_normals, cone.facet_masks):
            assert all(type(x) is int for x in normal)
            assert mask >> len(cone.generators) == 0
            for i, g in enumerate(cone.generators):
                assert (mask >> i & 1 == 1) == (dot(normal, g) == 0)


def _fraction_face(c, points):
    """(generators, active facets) of the face cut out by the facets active
    on every point, by `Fraction` dot products with the ambient normals: the
    route before the cone kept its facet masks, kept as a reference."""
    normals = [vector(n) for n in c.facet_normals]
    active = tuple(j for j, n in enumerate(normals) if all(dot(n, p) == 0 for p in points))
    gens = tuple(i for i, g in enumerate(c.generators)
                 if all(dot(normals[j], g) == 0 for j in active))
    return gens, active


def test_face_queries_match_the_fraction_route():
    rng = random.Random(6)
    for cone in _random_face_test_cones(random.Random(5)):
        n = len(cone.generators)
        for _ in range(5):
            picked = rng.sample(range(n), rng.randrange(1, n + 1))
            subs = [vec_scale(cone.generators[i], rng.randrange(0, 3)) for i in picked]
            face = minimal_extremal_face(cone, subs)
            total = subs[0]
            for v in subs[1:]:
                total = vec_add(total, v)
            assert (face.generator_indices, face.active_facets) == _fraction_face(cone, [total])
            assert is_extremal_face(cone, face)
            gens = face.generators()
            assert _fraction_face(cone, gens) == (face.generator_indices, face.active_facets)
            for bad in (Face(cone, face.generator_indices[1:], face.active_facets),
                        Face(cone, face.generator_indices, face.active_facets[1:])):
                if bad != face:
                    assert not is_extremal_face(cone, bad)


def _int_det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _int_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _brute_force_facets(gens):
    """One-sided primitive normals of hyperplanes through (d-1)-subsets."""
    d = len(gens[0])
    facets = set()
    for subset in itertools.combinations(gens, d - 1):
        normal = [(-1) ** j * _int_det([[p[k] for k in range(d) if k != j] for p in subset])
                  for j in range(d)]
        g = gcd(*normal)
        if g == 0:
            continue
        normal = [x // g for x in normal]
        signs = {(s > 0) - (s < 0) for s in (sum(a * b for a, b in zip(normal, v))
                                             for v in gens)}
        if signs <= {0, 1}:
            facets.add(tuple(normal))
        elif signs <= {0, -1}:
            facets.add(tuple(-x for x in normal))
    return facets


@st.composite
def _full_dimensional_cones(draw):
    d = draw(st.integers(1, 5))
    gen = st.tuples(st.integers(1, 3), *[st.integers(-3, 3)] * (d - 1))
    gens = draw(st.lists(gen, min_size=d, max_size=9))
    scale = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
    scales = draw(st.lists(scale, min_size=len(gens), max_size=len(gens)))
    return gens, scales


@settings(max_examples=120, deadline=None)
@given(_full_dimensional_cones())
def test_facets_match_brute_force(case):
    gens, scales = case
    assume(QMatrix.from_rows(gens).rank() == len(gens[0]))
    cone = build_cone(gens)
    normals = [tuple(int(x) for x in n) for n in cone.facet_normals]
    assert len(set(normals)) == len(normals)
    assert set(normals) == _brute_force_facets(gens)
    scaled = build_cone([[x * s for x in g] for g, s in zip(gens, scales)])
    assert scaled.facet_normals == cone.facet_normals
    assert scaled.extreme_ray_indices == cone.extreme_ray_indices


# -- the facet certificate -------------------------------------------------------


SQUARE_PYRAMID = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]


def _int_facets(gens):
    """Primitive integer generators and facet normals of a full-dimensional cone."""
    cone = build_cone(gens)
    assert cone.dim == cone.ambient_dim
    return ([primitive_ints(g) for g in cone.generators],
            [primitive_ints(n) for n in cone.facet_normals])


def _sphere_cone(rng, d, n):
    """n distinct generators near a sphere in the slice x_0 = 2r, as on the
    benchmark's ladder; almost all of them are extreme."""
    gens = []
    while len(gens) < n:
        v = [rng.gauss(0.0, 1.0) for _ in range(d - 1)]
        norm = sum(x * x for x in v) ** 0.5 or 1.0
        g = (40,) + tuple(round(20 * x / norm) for x in v)
        if g not in gens:
            gens.append(g)
    return gens


def _certificate_cases():
    rng = random.Random(8)
    yield SQUARE_PYRAMID
    # cones over the 3- and 4-cube: every facet is a cone over a cube of one
    # dimension less, so the 5-d cone's certificate recurses twice
    yield [(1,) + c for c in itertools.product((-1, 1), repeat=3)]
    yield [(1,) + c for c in itertools.product((-1, 1), repeat=4)]
    for d, n in ((3, 8), (4, 9), (4, 10), (5, 10), (5, 11)):
        yield _sphere_cone(rng, d, n)


def test_certificate_accepts_built_facets():
    for gens in _certificate_cases():
        ints, normals = _int_facets(gens)
        d = len(ints[0])
        masks = cones._certify_facets(ints, normals, d)
        assert masks == [sum(1 << i for i, g in enumerate(ints)
                             if sum(a * b for a, b in zip(n, g)) == 0) for n in normals]


def test_certificate_rejects_any_dropped_facet():
    for gens in _certificate_cases():
        ints, normals = _int_facets(gens)
        for j in range(len(normals)):
            with pytest.raises(InternalCheckError):
                cones._certify_facets(ints, normals[:j] + normals[j + 1:], len(ints[0]))


def test_certificate_rejects_a_valid_non_facet_inequality():
    for gens in _certificate_cases():
        ints, normals = _int_facets(gens)
        d = len(ints[0])
        tight = [{i for i, g in enumerate(ints) if dot(vector(n), vector(g)) == 0}
                 for n in normals]
        # two facets are adjacent when they share a ridge, a face of rank d - 2
        j, k = next((j, k) for j, k in itertools.combinations(range(len(normals)), 2)
                    if tight[j] & tight[k] and QMatrix.from_rows(
                        [ints[i] for i in tight[j] & tight[k]]).rank() == d - 2)
        extra = primitive_ints(vector(a + b for a, b in zip(normals[j], normals[k])))
        with pytest.raises(InternalCheckError, match="facet-dimensional"):
            cones._certify_facets(ints, normals + [extra], d)


def test_certificate_small_dimensions():
    assert cones._certify_facets([(2,)], [(1,)], 1) == [0]
    for normals in ([], [(1,), (1,)], [(-1,)]):
        with pytest.raises(InternalCheckError):
            cones._certify_facets([(2,)], normals, 1)
    quadrant = [(1, 0), (0, 1)]
    assert cones._certify_facets(quadrant, [(0, 1), (1, 0)], 2) == [0b01, 0b10]
    for normals in ([], [(1, 0)], [(0, 1), (0, 1)], [(0, 1), (1, 0), (0, 1)],
                    [(0, 1), (1, 0), (1, 1)], [(0, 1), (1, -1)]):
        with pytest.raises(InternalCheckError):
            cones._certify_facets(quadrant, normals, 2)


def test_copies_of_a_ray_share_its_facet_bits():
    """The certificate sees distinct rays; the build expands its masks to
    every copy of a ray."""
    cone = build_cone([(1, 0), (0, 1), (1, 0)])
    assert set(cone.facet_masks) == {0b101, 0b010}
    assert cone.extreme_ray_indices == (0, 1)


def _simplex_product(a, b):
    """The cone over simplex_a x simplex_b: every facet is a cone over a
    product of a simplex with a facet of the other."""
    def vertices(k):
        return [tuple(int(i == j) for i in range(k)) for j in range(-1, k)]
    return [(1,) + v + w for v in vertices(a) for w in vertices(b)]


def _degenerate_constraint_sets():
    rng = random.Random(19)
    yield from _certificate_cases()
    yield _simplex_product(2, 2)
    yield _simplex_product(3, 2)
    yield [(1,) + v + c for v in [(0,), (1,)] for c in itertools.product((-1, 1), repeat=3)]
    # small entries put many generators on one plane
    grid = [(1,) + c for c in itertools.product((-1, 0, 1), repeat=3)]
    yield grid
    for _ in range(6):
        yield rng.sample(grid, rng.randrange(8, 16)) + [(1, 1, 1, 1)]


def test_double_description_repeats_no_ray():
    """Adjacent rays span a 2-face of their own, which meets each new
    hyperplane in one ray, so the double description lists no ray twice and
    needs no dedupe; the rays are the brute-force facets."""
    for gens in _degenerate_constraint_sets():
        rays = cones._dual_extreme_rays(gens, len(gens[0]))
        assert len(set(rays)) == len(rays)
        assert set(rays) == _brute_force_facets(gens)


def test_certificate_rejects_a_violated_inequality():
    ints, normals = _int_facets(SQUARE_PYRAMID)
    with pytest.raises(InternalCheckError, match="violates"):
        cones._certify_facets(ints, normals[:-1] + [(1, 0, 0)], 3)


def _reference_extreme_rays(cone):
    """First index of each ray the old round trip gave: the double
    description run again from the facets, in span coordinates."""
    emb = QMatrix.from_columns(list(cone.span_basis))
    local = [primitive_ints(emb.solve(g)) for g in cone.generators]
    normals = [emb.transpose().apply(n) for n in cone.facet_normals]
    return tuple(sorted(local.index(r) for r in cones._dual_extreme_rays(normals, cone.dim)))


def test_extreme_rays_match_the_round_trip_reference():
    rng = random.Random(808)
    seen = {"proper": 0, "duplicates": 0, "non-simplicial": 0}
    cases = list(_certificate_cases()) + [
        [(1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 1, 0), (2, 1, 1)],
        [(2, 0, 2, 0), (0, 2, 2, 0), (-2, 0, 2, 0), (0, -2, 2, 0), (0, 0, 4, 0)],
        # three copies, and parallel multiples, of one generator
        [(1, 2, 0), (0, 1, 1), (1, 2, 0), (1, 0, 1), (1, 2, 0)],
        [(1, 2, 0), (0, 1, 1), (3, 6, 0), (1, 0, 1), (Fraction(1, 2), 1, 0), (0, 2, 2)],
        [(1, 0, 0), (2, 0, 0), (3, 0, 0)],
    ]
    for _ in range(60):
        ambient = rng.randrange(2, 6)
        span = rng.randrange(1, ambient + 1)
        basis = [[rng.randrange(-2, 3) for _ in range(ambient)] for _ in range(span)]
        gens = []
        for _ in range(rng.randrange(1, 10)):
            coeffs = [rng.randrange(1, 3)] + [rng.randrange(-1, 2) for _ in range(span - 1)]
            gens.append([sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(ambient)])
        if rng.random() < 0.4:
            gens.append(list(gens[0]))
        cases.append(gens)
    for gens in cases:
        try:
            cone = build_cone(gens)
        except EmptyInputError:
            continue
        assert cone.extreme_ray_indices == _reference_extreme_rays(cone)
        ints = [primitive_ints(g) for g in cone.generators]
        seen["proper"] += cone.dim < cone.ambient_dim
        seen["duplicates"] += len(set(ints)) < len(ints)
        seen["non-simplicial"] += any(
            len({g for g in ints if dot(vector(n), vector(g)) == 0}) > cone.dim - 1
            for n in cone.facet_normals)
    assert all(count >= 3 for count in seen.values()), seen


def test_a_build_runs_one_double_description(monkeypatch):
    """The certificate reads every face's facets off the listed facets, so
    cones with simplicial and with non-simplicial facets take one run."""
    calls = []
    dual = cones._dual_extreme_rays
    monkeypatch.setattr(cones, "_dual_extreme_rays",
                        lambda *args: calls.append(args) or dual(*args))
    for gens in (SQUARE_PYRAMID, _sphere_cone(random.Random(3), 5, 10),
                 [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                 [(1,) + c for c in itertools.product((-1, 1), repeat=4)]):
        calls.clear()
        build_cone(gens)
        assert len(calls) == 1


def test_each_non_simplicial_face_is_certified_once(monkeypatch):
    """The cone over the 4-cube has 8 facets over 3-cubes and 24 faces over
    squares, each reached from two facets; each is certified once, after
    the cone itself."""
    calls = []
    ridges = cones._certify_ridges
    monkeypatch.setattr(cones, "_certify_ridges",
                        lambda *args: calls.append(args[0]) or ridges(*args))
    build_cone([(1,) + c for c in itertools.product((-1, 1), repeat=4)])
    assert len(calls) == 1 + 8 + 24
    assert len(set(map(tuple, calls))) == len(calls)
