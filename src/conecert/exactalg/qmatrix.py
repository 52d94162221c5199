"""Dense exact rational matrices and the spectral operations built on them.

Dimensions here are desk scale (at most ~10). Entries are `Fraction`s, but
products, polynomial evaluation and `char_poly` run over integers with one
common denominator (`_ints`, `_int_product`), and `det`, `inverse` and
`rank` over rows each scaled by its own (`_row_ints`). One Faddeev-LeVerrier
pass (`_faddeev`) gives `char_poly`, `det` and `inverse`, and the fraction-free
`independent_rows` gives ranks and the pivot block `solve` inverts; nothing
eliminates over `Fraction`. Minimal polynomials come from the first linear
dependence among matrix powers, and spectral projectors from interpolation on
the minimal polynomial (h = 1 at the eigenvalue, h = 0 on the other factor).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
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
from .qpoly import QPoly, _frac, _ratio, primitive_ints

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


def _row_ints(m: "QMatrix") -> Iterable[tuple]:
    """The integer rows of R m and the r_i, for R = diag(r_i) with r_i the lcm
    of row i's denominators."""
    return zip(*(_ints(m.row(i)) for i in range(m.rows)))


def _int_product(a: list[int], b: list[int], inner: int, cols: int) -> list[int]:
    """Row-major product of integer matrices a (rows x inner) and b (inner x cols)."""
    b_cols = [b[j::cols] for j in range(cols)]
    return [sum(map(mul, a[i:i + inner], col))
            for i in range(0, len(a), inner) for col in b_cols]


def _index(k: int, n: int) -> int:
    """k, if it indexes one of n rows or columns."""
    if not 0 <= k < n:
        raise DimensionMismatchError(f"index {k} outside 0..{n - 1}")
    return k


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
        return QMatrix.from_rows(cols).transpose()

    # -- access -------------------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[_index(i, self.rows) * self.cols + _index(j, self.cols)]

    def row(self, i: int) -> Vector:
        start = _index(i, self.rows) * self.cols
        return self.entries[start:start + self.cols]

    def column(self, j: int) -> Vector:
        return self.entries[_index(j, self.cols)::self.cols]

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
                       [_ratio(x, d) for x in _int_product(a, b, self.cols, other.cols)])

    __rmul__ = __mul__

    def apply(self, v: Sequence[Scalar]) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatchError("vector length mismatch")
        return (self * QMatrix(self.cols, 1, v)).entries

    def transpose(self) -> "QMatrix":
        return QMatrix(self.cols, self.rows,
                       [x for j in range(self.cols) for x in self.column(j)])

    def max_abs_entry(self) -> Fraction:
        return max(abs(e) for e in self.entries)

    # -- determinant, inverse, rank and elimination ----------------------------------

    def det(self) -> Fraction:
        """(-1)^n c_n / (r_1 ... r_n) from `_faddeev` of R self (`_row_ints`)."""
        if not self.is_square:
            raise DimensionMismatchError("determinant of a non-square matrix")
        rows, r = _row_ints(self)
        c = _faddeev([x for row in rows for x in row], self.rows)[0][-1]
        return Fraction((-1) ** self.rows * c, prod(r))

    def inverse(self) -> "QMatrix":
        """-B R / c_n from `_faddeev` of a = R self (`_row_ints`), since a B = -c_n I."""
        if not self.is_square:
            raise DimensionMismatchError("inverse of a non-square matrix")
        rows, r = _row_ints(self)
        (*_, c), b = _faddeev([x for row in rows for x in row], self.rows)
        if c == 0:
            raise SingularMatrixError("matrix is singular")
        return QMatrix(self.rows, self.rows, [_ratio(-x * s, c) for x, s in zip(b, r * len(r))])

    def rank(self) -> int:
        rows, _ = _row_ints(self)
        return len(independent_rows(rows))

    def solve(self, b: Sequence[Scalar]):
        """One exact solution of self x = b, or None if inconsistent: with R the
        first independent rows of self and C the first independent columns of
        self[R], x_C = self[R, C]^-1 b_R and x is zero elsewhere."""
        if len(b) != self.rows:
            raise DimensionMismatchError("rhs length mismatch")
        rows, _ = _row_ints(self)
        picked = independent_rows(rows)
        x = [Fraction(0)] * self.cols
        if picked:
            cols = independent_rows(zip(*(rows[i] for i in picked)))
            block = QMatrix.from_rows([[self.entry(i, j) for j in cols] for i in picked])
            for j, v in zip(cols, block.inverse().apply([b[i] for i in picked])):
                x[j] = v
        return tuple(x) if self.apply(x) == vector(b) else None

# -- spectral operations ------------------------------------------------------------


def _faddeev(a: list[int], n: int) -> tuple[list[int], list[int]]:
    """Faddeev-LeVerrier on the n x n integer matrix a, row major: B_0 = I,
    c_k = -tr(a B_(k-1)) / k exactly, B_k = a B_(k-1) + c_k I. Returns the
    c_k (c_0 = 1; det(tI - a) has c_k at t^(n-k)) and B = B_(n-1) row
    major, with a B = -c_n I by Cayley-Hamilton."""
    coeffs, b, mk = [1], [1], list(a)   # b = [1] is B_(n-1) = I when n = 1
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(mk[::n + 1]), k)
        if rem:
            raise InternalCheckError(f"Faddeev-LeVerrier trace not divisible by {k}")
        coeffs.append(ck)
        if k < n:
            mk[::n + 1] = [x + ck for x in mk[::n + 1]]
            b, mk = mk, _int_product(a, mk, n, n)
    return coeffs, b


def char_poly(m: QMatrix) -> QPoly:
    """det(tI - m): c_k / D^k at t^(n-k) for the c_k of `_faddeev` of a = D m (`_ints`)."""
    if not m.is_square:
        raise DimensionMismatchError("characteristic polynomial of a non-square matrix")
    a, d = _ints(m.entries)
    return QPoly([Fraction(c, d ** k) for k, c in enumerate(_faddeev(a, m.rows)[0])][::-1])


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
        sol = QMatrix.from_columns([p.entries for p in powers[:-1]]).solve(powers[-1].entries)
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
    b = [h[-1] if i % (n + 1) == 0 else 0 for i in range(n * n)]
    scale = 1
    for c in reversed(h[:-1]):
        scale *= d
        b = _int_product(b, a, n, n)
        b[::n + 1] = [x + c * scale for x in b[::n + 1]]
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
