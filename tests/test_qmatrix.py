import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert import cones
from conecert.cones import build_cone
from conecert.errors import (
    ContainsLineError,
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
    qmatrix,
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
    assert m.det() == cp(0) * (-1) ** 3 == ref_det(m)


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
    _, pivots = ref_echelon(QMatrix.from_columns([tuple(r) for r in rows]))
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


# the references read and return lists of `Fraction` rows, so no QMatrix
# arithmetic enters them


def ref_mul(a: list, b: list) -> list:
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def ref_apply(m: QMatrix, v) -> tuple:
    return tuple(sum((x * y for x, y in zip(m.row(i), v)), Fraction(0))
                 for i in range(m.rows))


def plus_identity(a: list, c: Fraction) -> list:
    return [[x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(a)]


def ref_char_poly(a: list) -> QPoly:
    """det(tI - a) by Faddeev-LeVerrier over `Fraction`."""
    n, coeffs, mk = len(a), [Fraction(1)], a
    for k in range(1, n + 1):
        coeffs.append(-sum((mk[i][i] for i in range(n)), Fraction(0)) / k)
        mk = ref_mul(a, plus_identity(mk, coeffs[-1]))
    return QPoly(coeffs[::-1])


def ref_det(m: QMatrix) -> Fraction:
    """The Leibniz sum over permutations, each signed by its inversions."""
    n = m.rows
    return sum((prod((m.entry(i, j) for i, j in enumerate(perm)), start=Fraction(1))
                * (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
                for perm in itertools.permutations(range(n))), Fraction(0))


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of the rows and its pivot columns, by
    Gauss-Jordan over `Fraction`."""
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def ref_echelon(m: QMatrix) -> tuple[list[list[Fraction]], list[int]]:
    return rref(m.to_rows())


def ref_inverse(m: QMatrix):
    """The right half of the reduced row echelon form of [m | I], or None
    when m is singular."""
    n = m.rows
    rows, pivots = ref_echelon(QMatrix(n, 2 * n, [x for i in range(n) for x in (
        *m.row(i), *(int(i == j) for j in range(n)))]))
    if pivots[:n] != list(range(n)):
        return None
    return QMatrix(n, n, [x for row in rows for x in row[n:]])


def ref_solve(m: QMatrix, b):
    """One solution of m x = b from the reduced echelon form of [m | b]:
    each pivot row's last entry at its pivot column, zero elsewhere; None
    when b's column holds a pivot."""
    rows, pivots = ref_echelon(QMatrix(m.rows, m.cols + 1, [x for i in range(m.rows)
                                                            for x in (*m.row(i), b[i])]))
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, c in enumerate(pivots):
        x[c] = rows[r][m.cols]
    return tuple(x)


def ref_evaluate(p: QPoly, a: list) -> list:
    out = [[Fraction(0)] * len(a) for _ in a]
    for c in reversed(p.coeffs):
        out = plus_identity(ref_mul(out, a), c)
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
    assert cp == ref_char_poly(m.to_rows())
    assert evaluate_poly_at_matrix(cp, m) == QMatrix.zeros(m.rows, m.rows)


@given(SQUARE, POLY)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_evaluate_poly_matches_fraction_loop(m, p):
    assert evaluate_poly_at_matrix(p, m).to_rows() == ref_evaluate(p, m.to_rows())


@given(st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)).flatmap(
    lambda s: st.tuples(matrices(s[0], s[1]), matrices(s[1], s[2]),
                        st.lists(ENTRY, min_size=s[1], max_size=s[1]))))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_product_and_apply_match_fraction_loops(args):
    a, b, v = args
    assert (a * b).to_rows() == ref_mul(a.to_rows(), b.to_rows())
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


def hundred_digit_matrix(rng: random.Random, n: int) -> QMatrix:
    """Entries with numerators and denominators of up to 100 digits, some of
    them zero or small, so that zero pivots force row swaps."""
    def entry():
        kind = rng.random()
        if kind < 0.15:
            return 0
        if kind < 0.3:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-10 ** 100, 10 ** 100), rng.randint(1, 10 ** 100))
    return QMatrix(n, n, [entry() for _ in range(n * n)])


def test_det_and_inverse_match_leibniz_and_gauss_jordan():
    rng = random.Random(20261020)
    cases = [QMatrix.zeros(1, 1), QMatrix.identity(1), QMatrix(1, 1, [Fraction(-7, 3)])]
    for n in range(1, 6):
        for _ in range(4):
            m = hundred_digit_matrix(rng, n)
            cases += [m, singular(m)]
    m = hundred_digit_matrix(rng, 6)
    cases += [m, singular(m)]
    for m in cases:
        if m.rows <= 5:
            assert m.det() == ref_det(m), m
        expected = ref_inverse(m)
        if expected is None:
            assert m.det() == 0
            with pytest.raises(SingularMatrixError):
                m.inverse()
        else:
            assert m.inverse() == expected
            assert m * expected == QMatrix.identity(m.rows)
    assert sum(ref_inverse(m) is None for m in cases) >= 15


def test_elimination_runs_only_for_the_span(monkeypatch):
    """A full-dimensional cone build eliminates over integers only: its span
    reads `independent_rows` on the primitive generators and their columns,
    and its echelon basis is the shared identity, so nothing solves and only
    the double description inverts the pivot block; every `det`, `inverse`
    and `rank` reads the integer passes too."""
    rows_seen, inverted, solved = [], [], []

    def rows_spy(rows):
        rows_seen.append([tuple(r) for r in rows])
        return independent_rows(rows_seen[-1])

    inverse, solve = QMatrix.inverse, QMatrix.solve
    monkeypatch.setattr(cones, "independent_rows", rows_spy)
    monkeypatch.setattr(qmatrix, "independent_rows", rows_spy)
    monkeypatch.setattr(QMatrix, "inverse", lambda self: inverted.append(self) or inverse(self))
    monkeypatch.setattr(QMatrix, "solve", lambda self, b: solved.append(self) or solve(self, b))
    for gens in ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]],
                 [[1, 0], [1, 1]],
                 [[1, 2, 0, 1], [0, 1, 3, 1], [2, 0, 1, 1], [1, 1, 1, 3], [0, 0, 1, 2]]):
        rows_seen.clear()
        inverted.clear()
        cone = build_cone(gens)
        assert cone.dim == cone.ambient_dim
        assert solved == []
        # the span: independent generators, then their independent columns;
        # the double description inverts the pivot block, the span does not
        block = gens[:cone.dim]
        assert rows_seen[:2] == [[tuple(g) for g in gens], list(zip(*block))]
        assert inverted == [QMatrix.from_rows(block)]
        assert cone.span_basis is build_cone(gens).span_basis
        assert QMatrix.from_rows(cone.span_basis) == QMatrix.identity(cone.dim)
        assert all(type(x) is int for rows in rows_seen for row in rows for x in row)
    rows_seen.clear()
    rng = random.Random(7)
    for n in range(1, 6):
        m = hundred_digit_matrix(rng, n)
        for x in (m, singular(m)):
            x.det()
            x.rank()
            if x.det() != 0:
                x.inverse()
        QMatrix.from_rows([list(m.row(0)) + [1]]).rank()
    assert solved == []
    assert rows_seen and all(type(x) is int for rows in rows_seen for row in rows for x in row)


def test_span_and_solve_match_the_fraction_reference():
    """A cone's span basis is the nonzero part of the `Fraction` echelon
    form of its generators, on proper spans in Q^2 to Q^8 with rational
    entries of up to 30 digits over 30 digits; `solve` gives the reference
    solution on full, rank-deficient and all-zero matrices, with right-hand
    sides in the column space and random ones."""
    rng = random.Random(20261022)

    def entry():
        kind = rng.random()
        if kind < 0.2:
            return Fraction(0)
        if kind < 0.5:
            return Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        return Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 30))

    built = Counter()
    while sum(built.values()) < 60:
        ambient = rng.randint(2, 8)
        span = rng.randint(1, ambient - 1)
        basis = [[entry() for _ in range(ambient)] for _ in range(span)]
        gens = [[sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(ambient)]
                for coeffs in ([rng.randint(1, 2)] + [rng.randint(-1, 1) for _ in range(span - 1)]
                               for _ in range(rng.randint(1, 8)))]
        try:
            cone = build_cone(gens)
        except (EmptyInputError, ContainsLineError):
            continue
        rows, pivots = ref_echelon(QMatrix.from_rows(gens))
        assert cone.span_basis == tuple(tuple(row) for row in rows[:len(pivots)])
        built[cone.dim < cone.ambient_dim, cone.dim > 1] += 1
    assert built[True, True] >= 20 and built[True, False] >= 5

    solved = Counter()
    for _ in range(300):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        kind = rng.choice(["full", "deficient", "zero"])
        m = QMatrix(r, c, [0 if kind == "zero" else entry() for _ in range(r * c)])
        if kind == "deficient":
            m = singular(m)
        for rhs in ("image", "random"):
            b = m.apply([entry() for _ in range(c)]) if rhs == "image" else \
                [entry() for _ in range(r)]
            expected = ref_solve(m, b)
            assert m.solve(b) == expected, (m, b)
            solved[kind, rhs, expected is None] += 1
    assert all(solved[kind, "image", False] >= 20 and solved[kind, "image", True] == 0
               and solved[kind, "random", True] >= 10 for kind in ("full", "deficient", "zero"))


def test_det_and_inverse_scale_each_row_by_its_own_denominators(monkeypatch):
    """On entries over unrelated large denominators, the pass behind `det`
    and `inverse` sees each row times the lcm r_i of its own denominators,
    so its c_n = +-det(R m) stays within Hadamard's bound for R m; one common
    denominator D would make it D^n / (r_1 ... r_n) times larger."""
    calls = []
    faddeev = qmatrix._faddeev
    monkeypatch.setattr(qmatrix, "_faddeev",
                        lambda a, n: calls.append(faddeev(a, n)) or calls[-1])
    rng = random.Random(20261021)
    for n in (2, 5, 8):
        m = QMatrix(n, n, [Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 21))
                           for _ in range(n * n)])
        scaled = []
        for i in range(n):
            r = lcm(*(x.denominator for x in m.row(i)))
            scaled.append([x * r for x in m.row(i)])
        hadamard_squared = prod(sum(x * x for x in row) for row in scaled)
        calls.clear()
        det, inverse = m.det(), m.inverse()
        assert len(calls) == 2
        assert all(coeffs[-1] ** 2 <= hadamard_squared for coeffs, _ in calls)
        assert inverse == ref_inverse(m)
        assert det * inverse.det() == 1


def is_reduced(m: QMatrix) -> bool:
    return m.den > 0 and gcd(m.den, *m.nums) == 1 and all(type(x) is int for x in m.nums)


def test_representation_is_reduced_and_one_per_value():
    """`nums` over `den` is reduced with den > 0, the zero matrix has den 1,
    and equal values reached by different routes compare and hash equal."""
    m = QMatrix.from_rows([[Fraction(1, 2), Fraction(-3, 4)], [Fraction(5, 6), 0]])
    assert (m.nums, m.den) == ((6, -9, 10, 0), 12)
    for zero in (QMatrix.zeros(2, 2), m - m, m.scale(0), m * QMatrix.zeros(2, 2)):
        assert (zero.nums, zero.den) == ((0, 0, 0, 0), 1)
    routes = [
        QMatrix.from_rows([["1/2", "-3/4"], ["10/12", 0]]),
        QMatrix.from_columns([(Fraction(1, 2), Fraction(5, 6)), (Fraction(-3, 4), 0)]),
        QMatrix.identity(2).scale(Fraction(1, 3)) * m.scale(3),
        QMatrix.from_rows([[0, 1], [1, 0]]) * (QMatrix.from_rows([[0, 1], [1, 0]]) * m),
        m.scale(Fraction(-1, 2)).scale(-2),
        m.transpose().transpose(),
        (m + m) - m,
        m - QMatrix.zeros(2, 2) + QMatrix.zeros(2, 2),
        m.inverse().inverse(),
    ]
    for other in routes:
        assert is_reduced(other)
        assert other == m and hash(other) == hash(m)
        assert (other.nums, other.den) == (m.nums, m.den)
    assert m != m.scale(2) and m != m.transpose() and m != QMatrix(1, 4, m.entries)
    assert QMatrix.from_rows([[2, 4]]).scale(Fraction(1, 2)).is_integer
    assert not QMatrix.from_rows([[2, 3]]).scale(Fraction(1, 2)).is_integer
    assert m.max_abs_entry() == Fraction(5, 6)


def large_fraction_rows(rng: random.Random, r: int, c: int, deficient: bool) -> list:
    """r x c rows of zeros, small integers and 30-digit numerators over
    20-digit denominators; a deficient matrix's last row is a rational
    combination of the others (zero when r = 1)."""
    def entry():
        kind = rng.random()
        if kind < 0.15:
            return Fraction(0)
        if kind < 0.3:
            return Fraction(rng.randint(-3, 3))
        return Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(10 ** 19, 10 ** 20))

    rows = [[entry() for _ in range(c)] for _ in range(r)]
    if deficient:
        ks = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(r - 1)]
        rows[-1] = [sum((k * row[j] for k, row in zip(ks, rows)), Fraction(0)) for j in range(c)]
    return rows


def ref_gauss_det(a: list) -> Fraction:
    """Gaussian elimination with row swaps over `Fraction`."""
    rows, det = [list(row) for row in a], Fraction(1)
    for c in range(len(rows)):
        p = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p], det = rows[p], rows[c], -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def test_operations_match_a_fraction_reference_on_large_entries():
    """`*`, `scale`, `+`, `-`, `transpose`, `char_poly`, polynomial
    evaluation, `det`, `inverse`, `rank` and `solve` against `Fraction`
    references on lists of rows, over 300 seeded 1x1 to 6x6 matrices of
    30-digit numerators over 20-digit denominators, a third of them rank
    deficient; every result is reduced."""
    rng = random.Random(20261023)
    singular_seen = 0
    for k in range(300):
        n, c = 1 + k % 6, rng.randint(1, 6)
        a = large_fraction_rows(rng, n, n, deficient=k % 3 == 0)
        b, o = large_fraction_rows(rng, n, c, False), large_fraction_rows(rng, n, n, False)
        m, mb, mo = QMatrix.from_rows(a), QMatrix.from_rows(b), QMatrix.from_rows(o)
        s = Fraction(rng.randint(-10 ** 20, 10 ** 20), rng.randint(1, 10 ** 10))
        p = QPoly([Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 3))
                   for _ in range(rng.randint(1, 4))])
        results = {
            "*": (m * mb, ref_mul(a, b)),
            "scale": (m.scale(s), [[s * x for x in row] for row in a]),
            "+": (m + mo, [[x + y for x, y in zip(u, v)] for u, v in zip(a, o)]),
            "-": (m - mo, [[x - y for x, y in zip(u, v)] for u, v in zip(a, o)]),
            "transpose": (mb.transpose(), [list(col) for col in zip(*b)]),
            "evaluate": (evaluate_poly_at_matrix(p, m), ref_evaluate(p, a)),
        }
        for name, (got, expected) in results.items():
            assert is_reduced(got), name
            assert got.to_rows() == expected, name
        assert char_poly(m) == ref_char_poly(a)
        det = ref_gauss_det(a)
        assert m.det() == det
        _, pivots = rref(a)
        assert m.rank() == len(pivots)
        if det:
            identity = plus_identity([[Fraction(0)] * n for _ in a], Fraction(1))
            inverse = rref([row + unit for row, unit in zip(a, identity)])[0]
            assert is_reduced(m.inverse())
            assert m.inverse().to_rows() == [row[n:] for row in inverse]
        else:
            singular_seen += 1
            with pytest.raises(SingularMatrixError):
                m.inverse()
        for rhs in ([sum(x for x in row) for row in a], [row[0] for row in o]):
            aug, aug_pivots = rref([row + [y] for row, y in zip(a, rhs)])
            x = m.solve(rhs)
            if n in aug_pivots:
                assert x is None
            else:
                assert list(x) == [next((aug[i][n] for i, q in enumerate(aug_pivots) if q == j),
                                        Fraction(0)) for j in range(n)]
    assert singular_seen >= 100
