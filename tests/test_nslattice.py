import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.errors import (
    DimensionMismatchError,
    PreconditionViolatedError,
    SingularMatrixError,
)
from conecert.exactalg import QMatrix, QPoly
from conecert.nslattice import (
    FIBRE_FIRST,
    FIBRE_SECOND,
    QuotientVerdict,
    SymClass,
    elliptic_product_report,
    intersect,
    is_ample,
    pullback_action,
    pullback_class,
    quotient_image_selfintersection,
)

classes = st.builds(SymClass, st.integers(-5, 5), st.integers(-5, 5),
                    st.integers(-5, 5))


def _is_psd(h):
    """Nef = positive semidefinite, by exact minor signs."""
    return h.a >= 0 and h.c >= 0 and h.det() >= 0


def test_intersection_anchors():
    assert intersect(FIBRE_FIRST, FIBRE_FIRST) == 0
    assert intersect(FIBRE_SECOND, FIBRE_SECOND) == 0
    assert intersect(FIBRE_FIRST, FIBRE_SECOND) == 1
    assert intersect(SymClass(1, 0, 1), SymClass(1, 0, 1)) == 2


@given(classes, classes)
def test_intersection_symmetry(h1, h2):
    assert intersect(h1, h2) == intersect(h2, h1)


@given(classes, classes, classes)
@settings(max_examples=50)
def test_intersection_additivity(h1, h2, h3):
    total = SymClass(h2.a + h3.a, h2.b + h3.b, h2.c + h3.c)
    assert intersect(h1, total) == intersect(h1, h2) + intersect(h1, h3)


def test_nef_ample_examples():
    assert is_ample(SymClass(1, 0, 5))
    # a fibre is nef (semidefinite) but not ample
    assert _is_psd(SymClass(1, 0, 0)) and not is_ample(SymClass(1, 0, 0))
    assert not is_ample(SymClass(0, 1, 0))
    assert not is_ample(SymClass(-1, 0, -1))


@settings(max_examples=40)
@given(classes, st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_nef_congruence_invariance(h, entries):
    a = QMatrix(2, 2, entries)
    if a.det() == 0:
        return
    assert _is_psd(h) == _is_psd(pullback_class(a, h))


def test_pullback_action_matrix():
    act = pullback_action([[1, -5], [1, 1]])
    assert act.ns_matrix == QMatrix.from_rows([[1, 2, 1], [-5, -4, 1], [25, -10, 1]])


def test_pullback_action_scalars():
    assert pullback_action([[1, 0], [0, 1]]).ns_matrix == QMatrix.identity(3)
    assert pullback_action([[4, 0], [0, 4]]).ns_matrix == QMatrix.identity(3).scale(16)


def test_pullback_rejects_singular():
    with pytest.raises(SingularMatrixError):
        pullback_action([[1, 1], [1, 1]])


def test_pullback_rejects_non_2x2():
    for rows in ([[2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 2, 3], [4, 5, 6]]):
        with pytest.raises(DimensionMismatchError):
            pullback_action(rows)


def test_pullback_rejects_non_integral():
    half = QMatrix.from_rows([["1/2", 0], [0, 1]])
    for call in (lambda: pullback_class(half, FIBRE_FIRST),
                 lambda: pullback_action(half),
                 lambda: elliptic_product_report(half)):
        with pytest.raises(PreconditionViolatedError):
            call()


def test_class_from_vector_rejects_non_integer_entries():
    assert SymClass.from_vector([1, "3/1", -2]) == SymClass(1, 3, -2)
    for v in (["1/2", "3/2", 0], [1, 2, "-7/3"]):
        with pytest.raises(PreconditionViolatedError):
            SymClass.from_vector(v)


def test_determinant_cube_identity_seeded():
    rng = random.Random(5)
    for _ in range(60):
        a = QMatrix(2, 2, [rng.randrange(-6, 7) for _ in range(4)])
        if a.det() == 0:
            continue
        assert pullback_action(a).ns_matrix.det() == a.det() ** 3


def test_projection_formula_seeded():
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        a = QMatrix(2, 2, [rng.randrange(-5, 6) for _ in range(4)])
        if a.det() == 0:
            continue
        h1 = SymClass(rng.randrange(-5, 6), rng.randrange(-5, 6), rng.randrange(-5, 6))
        h2 = SymClass(rng.randrange(-5, 6), rng.randrange(-5, 6), rng.randrange(-5, 6))
        assert intersect(pullback_class(a, h1), pullback_class(a, h2)) == \
            int(a.det() ** 2) * intersect(h1, h2)
        checked += 1


def test_golden_product_report():
    rep = elliptic_product_report()
    assert rep.rho == 3
    assert rep.char_poly == QPoly([-216, -12, 2, 1])
    assert rep.real_eigenvalue_count == 1
    assert rep.spectral_radius == 6
    assert rep.q == 6
    assert rep.witness_class == SymClass(1, 0, 5)
    assert rep.witness_is_ample
    assert rep.deg_f == 36 and rep.degree_consistent
    assert rep.verdict == "polarized"
    # the witness satisfies the exact congruence identity a^T H a = 6 H
    pulled = pullback_class(rep.endo, rep.witness_class)
    assert pulled == SymClass(6, 0, 30)


def test_identity_report_rejects_q_one():
    rep = elliptic_product_report([[1, 0], [0, 1]])
    assert rep.q == 1
    assert not rep.polarized_above_one
    assert rep.verdict == "not_polarized_for_q_above_1"


def test_doubling_report():
    rep = elliptic_product_report([[2, 0], [0, 2]])
    assert rep.q == 4
    assert rep.witness_class == SymClass(1, 0, 1)
    assert rep.deg_f == 16


def test_quotient_image_logic():
    res = quotient_image_selfintersection(0, True)
    assert res.image_sq == 0 and not res.ample_possible
    assert res.verdict is QuotientVerdict.CONTRADICTS_AMPLENESS
    res = quotient_image_selfintersection(2, True)
    assert res.image_sq == 1 and res.ample_possible
    assert res.verdict is QuotientVerdict.NO_CONTRADICTION
    res = quotient_image_selfintersection(0, False)
    assert res.verdict is QuotientVerdict.UNKNOWN and res.ample_possible


def test_random_pullbacks_never_crash_and_match_degree():
    # whenever a random pullback is polarized, the scaling factor must be
    # the square root of the topological degree (q^2 = det(a)^2 on a surface)
    rng = random.Random(97)
    polarized_seen = 0
    for _ in range(60):
        a = QMatrix(2, 2, [rng.randrange(-4, 5) for _ in range(4)])
        if a.det() == 0:
            continue
        rep = elliptic_product_report(a)
        if rep.polarization.is_polarized:
            polarized_seen += 1
            assert rep.q == abs(a.det())
            assert rep.deg_f == rep.q ** 2
            assert rep.witness_is_ample or not rep.polarized_above_one
    assert polarized_seen > 0


def test_rotation_like_pullback_is_polarized():
    rep = elliptic_product_report([[0, -3], [3, 0]])
    assert rep.q == 9
    assert rep.polarized_above_one
