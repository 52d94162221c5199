"""Dense exact rational matrices and the spectral operations built on them.

Dimensions here are desk scale (at most ~10). Entries are `Fraction`s, but
products, characteristic polynomials (Faddeev-LeVerrier) and polynomial
evaluation run over integer numerators with one common denominator (`_ints`,
`_int_product`). Elimination (`_echelon`) stays on `Fraction`; ranks of
integer vectors are fraction free (`independent_rows`). Minimal polynomials
come from the first linear dependence among matrix powers, and spectral
projectors from polynomial interpolation on the minimal polynomial (h = 1 at
the chosen eigenvalue, h = 0 on the complementary factor).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

from ..errors import (
    DimensionMismatchError,
    EmptyInputError,
    ImmutableValueError,
    InternalCheckError,
    NonSemisimpleAtQError,
    NotAnEigenvalueError,
    SingularMatrixError,
)
from .qpoly import QPoly, _frac, primitive_ints

Scalar = Union[int, Fraction]
Vector = tuple[Fraction, ...]


# -- vector helpers ------------------------------------------------------------

def vector(xs: Iterable[Scalar]) -> Vector:
    return tuple(_frac(x) for x in xs)


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))

def vec_scale(u: Vector, c: Scalar) -> Vector:
    c = _frac(c)
    return tuple(a * c for a in u)

def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))

def is_zero_vector(u: Vector) -> bool:
    return all(a == 0 for a in u)


def primitive_vector(u: Vector) -> Vector:
    """Scale by a positive rational so entries are coprime integers.

    Preserves direction, so it is the canonical representative of a ray.
    """
    return tuple(_frac(x) for x in primitive_ints(u))


def independent_rows(rows: Iterable[Sequence[int]]) -> list[int]:
    """Indices of the integer rows independent of the rows before them.

    The result is the first maximal independent subset, so its length is the
    rank. Elimination is fraction free: a new row is reduced against each
    kept row by integer cross multiplication and divided by its content.
    The scan stops at full column rank.
    """
    kept: list[tuple[int, list[int]]] = []   # (pivot column, reduced row)
    picked: list[int] = []
    for i, row in enumerate(rows):
        v = list(row)
        for c, b in kept:
            if v[c]:
                f, p = v[c], b[c]
                v = [p * x - f * y for x, y in zip(v, b)]
        c = next((c for c, x in enumerate(v) if x), None)
        if c is None:
            continue
        g = gcd(*v)
        kept.append((c, [x // g for x in v]))
        picked.append(i)
        if len(kept) == len(v):
            break
    return picked


def _ints(entries: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over one common denominator D, the lcm of the
    entry denominators: entries[i] == ints[i] / D."""
    d = lcm(*(e.denominator for e in entries))
    return [e.numerator * (d // e.denominator) for e in entries], d


def _int_product(a: list[int], b: list[int], inner: int, cols: int) -> list[int]:
    """Row-major product of integer matrices a (rows x inner) and b (inner x cols)."""
    b_cols = [b[j::cols] for j in range(cols)]
    return [sum(map(mul, a[i:i + inner], col))
            for i in range(0, len(a), inner) for col in b_cols]


class QMatrix:
    """An immutable rows x cols matrix of exact rationals, row major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]):
        entries = tuple(_frac(e) for e in entries)
        if rows <= 0 or cols <= 0:
            raise DimensionMismatchError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise DimensionMismatchError("entry count does not match dimensions")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise ImmutableValueError("QMatrix is immutable")

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "QMatrix":
        r = len(rows)
        if r == 0:
            raise EmptyInputError("no rows")
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise DimensionMismatchError("ragged rows")
        return QMatrix(r, c, [x for row in rows for x in row])

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "QMatrix":
        return QMatrix(rows, cols, [0] * (rows * cols))

    @staticmethod
    def from_columns(cols: Sequence[Vector]) -> "QMatrix":
        n = len(cols[0])
        return QMatrix(n, len(cols), [cols[j][i] for i in range(n) for j in range(len(cols))])

    # -- access -------------------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_integer(self) -> bool:
        return all(e.denominator == 1 for e in self.entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"QMatrix({self.to_rows()!r})"

    # -- arithmetic ------------------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("shape mismatch")
        return QMatrix(self.rows, self.cols,
                       [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("shape mismatch")
        return QMatrix(self.rows, self.cols,
                       [a - b for a, b in zip(self.entries, other.entries)])

    def scale(self, c: Scalar) -> "QMatrix":
        c = _frac(c)
        return QMatrix(self.rows, self.cols, [c * e for e in self.entries])

    def __mul__(self, other) -> "QMatrix":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatchError("shape mismatch in product")
        a, da = _ints(self.entries)
        b, db = _ints(other.entries)
        d = da * db
        return QMatrix(self.rows, other.cols,
                       [Fraction(x, d) for x in _int_product(a, b, self.cols, other.cols)])

    __rmul__ = __mul__

    def apply(self, v: Sequence[Scalar]) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatchError("vector length mismatch")
        return (self * QMatrix(self.cols, 1, v)).entries

    def transpose(self) -> "QMatrix":
        return QMatrix(self.cols, self.rows,
                       [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)])

    def max_abs_entry(self) -> Fraction:
        return max(abs(e) for e in self.entries)

    # -- elimination-based operations ---------------------------------------------

    def _echelon(self) -> tuple[list[list[Fraction]], list[int], Fraction]:
        """Row echelon form (fully reduced), pivot column indices, and the
        product of the pivots signed by the row swaps, which is the
        determinant when the matrix is square of full rank."""
        m = self.to_rows()
        pivots: list[int] = []
        det = Fraction(1)
        r = 0
        for c in range(self.cols):
            pivot = next((i for i in range(r, self.rows) if m[i][c] != 0), None)
            if pivot is None:
                continue
            if pivot != r:
                m[r], m[pivot] = m[pivot], m[r]
                det = -det
            pv = m[r][c]
            det *= pv
            m[r] = [x / pv for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots, det

    def rank(self) -> int:
        return len(self._echelon()[1])

    def det(self) -> Fraction:
        if not self.is_square:
            raise DimensionMismatchError("determinant of a non-square matrix")
        _, pivots, det = self._echelon()
        return det if len(pivots) == self.rows else Fraction(0)

    def inverse(self) -> "QMatrix":
        """The right half of the reduced echelon form of [self | I]."""
        if not self.is_square:
            raise DimensionMismatchError("inverse of a non-square matrix")
        n = self.rows
        eye = QMatrix.identity(n)
        aug = QMatrix.from_rows([self.row(i) + eye.row(i) for i in range(n)])
        m, pivots, _ = aug._echelon()
        if pivots[-1] >= n:
            raise SingularMatrixError("matrix is singular")
        return QMatrix(n, n, [m[i][n + j] for i in range(n) for j in range(n)])

    def solve(self, b: Sequence[Scalar]):
        """One exact solution of self x = b, or None if inconsistent."""
        if len(b) != self.rows:
            raise DimensionMismatchError("rhs length mismatch")
        aug = QMatrix(self.rows, self.cols + 1,
                      [x for i in range(self.rows) for x in (*self.row(i), _frac(b[i]))])
        m, pivots, _ = aug._echelon()
        if self.cols in pivots:
            return None
        x = [Fraction(0)] * self.cols
        for r, c in enumerate(pivots):
            x[c] = m[r][self.cols]
        return tuple(x)

    def nullspace(self) -> list[Vector]:
        m, pivots, _ = self._echelon()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -m[r][fc]
            basis.append(tuple(v))
        return basis

# -- spectral operations ------------------------------------------------------------


def char_poly(m: QMatrix) -> QPoly:
    """det(tI - m) by the Faddeev-LeVerrier recursion on the integer matrix
    a = D m (`_ints`), whose char poly has integer coefficients c_k (of
    t^(n-k)), so each division by k is exact; char(m) has c_k / D^k."""
    if not m.is_square:
        raise DimensionMismatchError("characteristic polynomial of a non-square matrix")
    n = m.rows
    a, d = _ints(m.entries)
    diagonal = range(0, n * n, n + 1)
    coeffs = [Fraction(1)]  # c_0 = 1, descending powers
    mk, dk = list(a), 1
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(mk[i] for i in diagonal), k)
        if rem:
            raise InternalCheckError(f"Faddeev-LeVerrier trace not divisible by {k}")
        dk *= d
        coeffs.append(Fraction(ck, dk))
        if k < n:
            for i in diagonal:
                mk[i] += ck
            mk = _int_product(a, mk, n, n)
    return QPoly(list(reversed(coeffs)))


def min_poly(m: QMatrix) -> QPoly:
    """Monic annihilating polynomial of least degree.

    Found as the first linear dependence among I, m, m^2, ... via exact
    elimination on flattened powers.
    """
    if not m.is_square:
        raise DimensionMismatchError("minimal polynomial of a non-square matrix")
    n = m.rows
    powers = [QMatrix.identity(n)]
    for k in range(1, n + 1):
        powers.append(powers[-1] * m)
        cols = [p.entries for p in powers[:-1]]
        mat = QMatrix(n * n, k, [cols[j][i] for i in range(n * n) for j in range(k)])
        sol = mat.solve(powers[-1].entries)
        if sol is not None:
            return QPoly(list(-c for c in sol) + [Fraction(1)])
    raise InternalCheckError("Cayley-Hamilton violated")  # pragma: no cover


def evaluate_poly_at_matrix(p: QPoly, m: QMatrix) -> QMatrix:
    """p(m), with p = content h for h primitive and m = a / D (`_ints`):
    integer Horner, b <- b a + h_i D^(deg - i) I, gives D^deg h(m)."""
    if not m.is_square:
        raise DimensionMismatchError("polynomial of a non-square matrix")
    n = m.rows
    if p.is_zero:
        return QMatrix.zeros(n, n)
    h = primitive_ints(p.coeffs)
    content = p.leading / h[-1]
    a, d = _ints(m.entries)
    diagonal = range(0, n * n, n + 1)
    b = [h[-1] if i % (n + 1) == 0 else 0 for i in range(n * n)]
    scale = 1
    for c in reversed(h[:-1]):
        scale *= d
        b = _int_product(b, a, n, n)
        for i in diagonal:
            b[i] += c * scale
    num, den = content.numerator, content.denominator * scale
    return QMatrix(n, n, [Fraction(num * x, den) for x in b])


def spectral_projector(m: QMatrix, q: Scalar) -> QMatrix:
    """Exact projector onto the q-eigenspace along the complementary factor.

    With mu = (t - q) g and g(q) != 0, the projector is g(m) / g(q): it is 1
    at q and 0 at every other root of mu, so P^2 = P, mP = Pm = qP, and P
    restricted to the q-eigenspace is the identity.
    """
    q = _frac(q)
    mu = min_poly(m)
    if mu(q) != 0:
        raise NotAnEigenvalueError(f"{q} is not an eigenvalue")
    g = mu.exact_div(QPoly.linear_root(q))
    gq = g(q)
    if gq == 0:
        raise NonSemisimpleAtQError(
            f"eigenvalue {q} appears with a nontrivial Jordan block")
    return evaluate_poly_at_matrix(g, m).scale(1 / gq)
