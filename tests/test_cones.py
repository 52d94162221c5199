import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.cones import (
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
    NotInConeError,
)
from conecert.exactalg import QMatrix


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


def test_membership(quadrant):
    assert membership(quadrant, [1, 1]) is Membership.INTERIOR
    assert membership(quadrant, [1, 0]) is Membership.BOUNDARY
    assert membership(quadrant, [-1, 2]) is Membership.OUTSIDE


def test_membership_relative_to_span():
    ray = build_cone([[1, 2, 3]])
    assert membership(ray, [2, 4, 6]) is Membership.INTERIOR
    assert membership(ray, [1, 2, 4]) is Membership.OUTSIDE
    assert membership(ray, [-1, -2, -3]) is Membership.OUTSIDE


def test_minimal_face_examples(quadrant, octant, square_cone):
    ray = minimal_extremal_face(quadrant, [[1, 0]])
    assert ray.generator_indices == (0,)
    two_face = minimal_extremal_face(octant, [[1, 1, 0]])
    assert two_face.generator_indices == (0, 1)
    slab = minimal_extremal_face(square_cone, [[1, 1, 2]])
    assert slab.generator_indices == (0, 1)


def test_minimal_face_improper(quadrant):
    face = minimal_extremal_face(quadrant, [[1, 2]])
    assert face.is_improper
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


def test_faces_ordered_and_complete(octant):
    faces = enumerate_faces(octant)
    keys = [(f.dim, f.generator_indices) for f in faces]
    assert keys == sorted(keys)
    assert faces[0].generator_indices == ()          # apex
    assert faces[-1].is_improper                     # the cone itself


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


def test_psd_oracle_size_one():
    oracle = psd_cone_oracle(1)
    assert oracle.dim == 1
    assert oracle.contains([0]) and not oracle.strictly_contains([0])
    assert oracle.strictly_contains([3])
    assert not oracle.contains([-1])


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
