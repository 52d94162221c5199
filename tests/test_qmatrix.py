from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.errors import (
    DimensionMismatchError,
    EmptyInputError,
    NonSemisimpleAtQError,
    NotAnEigenvalueError,
    SingularMatrixError,
)
from conecert.exactalg import (
    QMatrix,
    QPoly,
    char_poly,
    evaluate_poly_at_matrix,
    independent_rows,
    min_poly,
    primitive_vector,
    spectral_projector,
)

PULLBACK_3X3 = QMatrix.from_rows([[1, 2, 1], [-5, -4, 1], [25, -10, 1]])


def small_matrix(n):
    return st.lists(st.integers(-4, 4), min_size=n * n, max_size=n * n).map(
        lambda es: QMatrix(n, n, es))


def test_char_poly_examples():
    assert char_poly(QMatrix.identity(2)) == QPoly([1, -2, 1])
    assert char_poly(PULLBACK_3X3) == QPoly([-216, -12, 2, 1])
    assert char_poly(QMatrix.from_rows([[0, 2], [2, 0]])) == QPoly([-4, 0, 1])


def test_char_poly_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        char_poly(QMatrix.zeros(2, 3))


def test_min_poly_examples():
    assert min_poly(QMatrix.identity(4)) == QPoly([-1, 1])
    assert min_poly(QMatrix.from_rows([[1, 1], [0, 1]])) == QPoly([1, -2, 1])
    diag = QMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert min_poly(diag) == QPoly.linear_root(2) * QPoly.linear_root(3)


@given(small_matrix(3))
@settings(max_examples=40, deadline=None)
def test_min_divides_char_and_both_annihilate(m):
    cp = char_poly(m)
    mp = min_poly(m)
    assert (cp % mp).is_zero
    zero = QMatrix.zeros(3, 3)
    assert evaluate_poly_at_matrix(cp, m) == zero
    assert evaluate_poly_at_matrix(mp, m) == zero


@given(small_matrix(3))
@settings(max_examples=30, deadline=None)
def test_det_via_char_poly(m):
    cp = char_poly(m)
    assert m.det() == cp(0) * (-1) ** 3


def test_det_row_swaps_and_singular():
    assert QMatrix.from_rows([[0, 1], [1, 0]]).det() == -1
    # column 0 pivots on row 1, column 1 on row 2: two swaps, sign +
    assert QMatrix.from_rows([[0, 0, 3], [2, 0, 0], [0, 5, 1]]).det() == 30
    assert QMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]]).det() == 0
    with pytest.raises(DimensionMismatchError):
        QMatrix.zeros(2, 3).det()


def test_inverse_round_trip():
    m = QMatrix.from_rows([[1, -5], [1, 1]])
    assert m * m.inverse() == QMatrix.identity(2)
    swap = QMatrix.from_rows([[0, 2, 1], [3, 0, 0], [0, 0, 4]])
    assert swap * swap.inverse() == QMatrix.identity(3)
    assert swap.inverse() * swap == QMatrix.identity(3)
    with pytest.raises(SingularMatrixError):
        QMatrix.zeros(2, 2).inverse()
    with pytest.raises(SingularMatrixError):
        QMatrix.from_rows([[1, 2], [2, 4]]).inverse()
    with pytest.raises(DimensionMismatchError):
        QMatrix.zeros(3, 2).inverse()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(
    st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=1, max_size=7)))
def test_independent_rows_is_the_first_basis(rows):
    """The integer helper picks the pivots of the Fraction echelon form of
    the rows as columns, that is, each row not spanned by the rows before it."""
    _, pivots, _ = QMatrix.from_columns([tuple(r) for r in rows])._echelon()
    assert independent_rows(rows) == pivots


def test_independent_rows_examples():
    assert independent_rows([]) == []
    assert independent_rows([(0, 0), (2, 4), (1, 2), (0, 5), (7, 7)]) == [1, 3]
    assert independent_rows([(6, 10, 15), (3, 5, 8)]) == [0, 1]


def test_solve_and_eigenvector():
    m = PULLBACK_3X3 - QMatrix.identity(3).scale(6)
    assert m.apply((1, 0, 5)) == (0, 0, 0)
    assert m.rank() == 2
    assert m.solve((1, 1, 1)) is None or m.apply(m.solve((1, 1, 1))) == (1, 1, 1)


def test_spectral_projector_trivial_cases():
    assert spectral_projector(QMatrix.identity(3).scale(7), 7) == QMatrix.identity(3)
    assert spectral_projector(QMatrix.from_rows([[6, 0], [0, -6]]), 6) == \
        QMatrix.from_rows([[1, 0], [0, 0]])


def test_spectral_projector_identities_on_pullback():
    p = spectral_projector(PULLBACK_3X3, 6)
    assert p * p == p
    assert PULLBACK_3X3 * p == p * PULLBACK_3X3
    assert PULLBACK_3X3 * p == p.scale(6)
    assert (PULLBACK_3X3 - QMatrix.identity(3).scale(6)) * p == QMatrix.zeros(3, 3)
    assert primitive_vector(p.apply((1, 0, 1))) == (1, 0, 5)
    # identity on the eigenspace, which is the line through (1, 0, 5)
    assert p.apply((1, 0, 5)) == (1, 0, 5)
    assert sum(p.entry(k, k) for k in range(3)) == 1


def test_spectral_projector_errors():
    with pytest.raises(NotAnEigenvalueError):
        spectral_projector(QMatrix.identity(2), 3)
    with pytest.raises(NonSemisimpleAtQError):
        spectral_projector(QMatrix.from_rows([[1, 1], [0, 1]]), 1)


# -- differential tests: the integer kernels against plain Fraction loops ------------


def ref_mul(a: QMatrix, b: QMatrix) -> QMatrix:
    out = [Fraction(0)] * (a.rows * b.cols)
    for i in range(a.rows):
        for k in range(a.cols):
            x = a.entry(i, k)
            for j in range(b.cols):
                out[i * b.cols + j] += x * b.entry(k, j)
    return QMatrix(a.rows, b.cols, out)


def ref_apply(m: QMatrix, v) -> tuple:
    return tuple(sum((x * y for x, y in zip(m.row(i), v)), Fraction(0))
                 for i in range(m.rows))


def ref_char_poly(m: QMatrix) -> QPoly:
    n = m.rows
    coeffs = [Fraction(1)]
    mk = m
    for k in range(1, n + 1):
        ck = -sum((mk.entry(i, i) for i in range(n)), Fraction(0)) / k
        coeffs.append(ck)
        if k < n:
            mk = ref_mul(m, mk + QMatrix.identity(n).scale(ck))
    return QPoly(list(reversed(coeffs)))


def ref_evaluate(p: QPoly, m: QMatrix) -> QMatrix:
    out = QMatrix.zeros(m.rows, m.rows)
    for c in reversed(p.coeffs):
        out = ref_mul(out, m) + QMatrix.identity(m.rows).scale(c)
    return out


# numerators up to 10^60 over denominators up to 10^6, with zeros and small integers
ENTRY = st.one_of(st.just(0), st.integers(-3, 3),
                  st.builds(Fraction, st.integers(-10 ** 60, 10 ** 60), st.integers(1, 10 ** 6)))


def matrices(rows, cols):
    return st.lists(ENTRY, min_size=rows * cols, max_size=rows * cols).map(
        lambda es: QMatrix(rows, cols, es))


def singular(m: QMatrix) -> QMatrix:
    """m with its last row replaced by a multiple of its first (zero when n = 1)."""
    rows = m.to_rows()
    rows[-1] = [3 * x for x in rows[0]] if m.rows > 1 else [0] * m.cols
    return QMatrix.from_rows(rows)


SQUARE = st.integers(1, 8).flatmap(lambda n: st.one_of(
    matrices(n, n), matrices(n, n).map(singular), st.just(QMatrix.zeros(n, n))))
POLY = st.lists(ENTRY, max_size=5).map(QPoly)


@given(SQUARE)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_char_poly_matches_fraction_loop_and_annihilates(m):
    cp = char_poly(m)
    assert cp == ref_char_poly(m)
    assert evaluate_poly_at_matrix(cp, m) == QMatrix.zeros(m.rows, m.rows)


@given(SQUARE, POLY)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_evaluate_poly_matches_fraction_loop(m, p):
    assert evaluate_poly_at_matrix(p, m) == ref_evaluate(p, m)


@given(st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)).flatmap(
    lambda s: st.tuples(matrices(s[0], s[1]), matrices(s[1], s[2]),
                        st.lists(ENTRY, min_size=s[1], max_size=s[1]))))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_product_and_apply_match_fraction_loops(args):
    a, b, v = args
    assert a * b == ref_mul(a, b)
    assert a.apply(v) == ref_apply(a, v)


def test_constructor_preconditions_raise_library_errors():
    with pytest.raises(DimensionMismatchError, match="matrix dimensions must be positive"):
        QMatrix(0, 2, [])
    with pytest.raises(DimensionMismatchError, match="entry count does not match"):
        QMatrix(2, 2, [1, 2, 3])
    with pytest.raises(DimensionMismatchError, match="ragged rows"):
        QMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(EmptyInputError, match="no rows"):
        QMatrix.from_rows([])
