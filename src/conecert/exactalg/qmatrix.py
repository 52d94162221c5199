"""Dense exact rational matrices and the spectral operations built on them.

Dimensions here are desk scale (at most ~10). A `QMatrix` stores integer
numerators `nums` over one denominator `den`, so products, scalings, sums,
transposes, equality tests, `char_poly` (a `QPoly` made from integers) and
evaluation of a polynomial's `ints` and `content` run over integers and
build no `Fraction`; `entries`, `entry`, `row`, `column` and
`to_rows` are `Fraction` views built on request. `det`, `inverse` and `rank`
read rows each scaled by its own denominator (`_row_ints`). One
Faddeev-LeVerrier pass (`_faddeev`) gives `char_poly`, `det` and `inverse`,
and the fraction-free `independent_rows` gives ranks and the pivot block
`solve` inverts; nothing eliminates over `Fraction`. Minimal polynomials come
from the first linear dependence among matrix powers, and spectral projectors
from interpolation on the minimal polynomial (h = 1 at the eigenvalue, h = 0
on the other factor).
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


def _row_ints(m: "QMatrix") -> tuple[list[list[int]], list[int]]:
    """The integer rows of R m and the r_i, for R = diag(r_i) with r_i the
    least denominator of row i: den over its gcd with the row's numerators."""
    rows = [m.nums[k:k + m.cols] for k in range(0, len(m.nums), m.cols)]
    gs = [gcd(m.den, *row) for row in rows]
    return [[x // g for x in row] for row, g in zip(rows, gs)], [m.den // g for g in gs]


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
    """An immutable rows x cols matrix of exact rationals: the integers `nums`,
    row major, over the positive denominator `den`, with gcd(den, *nums) = 1,
    so that equal matrices have equal `nums` and `den`."""

    __slots__ = ("rows", "cols", "nums", "den")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]):
        entries = [_frac(e) for e in entries]
        if rows <= 0 or cols <= 0:
            raise DimensionMismatchError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise DimensionMismatchError("entry count does not match dimensions")
        # gcd(d, *nums) = 1 over this lcm; an entry over d itself lends its numerator
        d = lcm(*(e.denominator for e in entries))
        self._set(rows, cols, tuple(e.numerator if e.denominator == d else
                                    e.numerator * (d // e.denominator) for e in entries), d)

    def _set(self, rows: int, cols: int, nums: tuple, den: int) -> None:
        for name, value in zip(self.__slots__, (rows, cols, nums, den)):
            object.__setattr__(self, name, value)

    @staticmethod
    def _of(rows: int, cols: int, nums: Sequence[int], den: int = 1) -> "QMatrix":
        """The matrix nums / den for den > 0, reduced by gcd(den, *nums)."""
        g = gcd(den, *nums) if den != 1 else 1
        m = object.__new__(QMatrix)
        m._set(rows, cols, tuple(x // g for x in nums) if g != 1 else tuple(nums), den // g)
        return m

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

    # -- access: Fraction views -------------------------------------------------------

    @property
    def entries(self) -> Vector:
        return tuple(_ratio(x, self.den) for x in self.nums)

    def entry(self, i: int, j: int) -> Fraction:
        return _ratio(self.nums[_index(i, self.rows) * self.cols + _index(j, self.cols)],
                      self.den)

    def row(self, i: int) -> Vector:
        start = _index(i, self.rows) * self.cols
        return tuple(_ratio(x, self.den) for x in self.nums[start:start + self.cols])

    def column(self, j: int) -> Vector:
        return tuple(_ratio(x, self.den) for x in self.nums[_index(j, self.cols)::self.cols])

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_integer(self) -> bool:
        return self.den == 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, QMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.den, self.nums))

    def __repr__(self) -> str:
        return f"QMatrix({self.to_rows()!r})"

    # -- arithmetic ------------------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("shape mismatch")
        d = lcm(self.den, other.den)
        a, b = d // self.den, d // other.den
        return QMatrix._of(self.rows, self.cols,
                           [a * x + b * y for x, y in zip(self.nums, other.nums)], d)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + other.scale(-1)

    def scale(self, c: Scalar) -> "QMatrix":
        c = _frac(c)
        k = c.numerator
        return QMatrix._of(self.rows, self.cols, [k * x for x in self.nums],
                           self.den * c.denominator)

    def __mul__(self, other) -> "QMatrix":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatchError("shape mismatch in product")
        return QMatrix._of(self.rows, other.cols,
                           _int_product(self.nums, other.nums, self.cols, other.cols),
                           self.den * other.den)

    __rmul__ = __mul__

    def apply(self, v: Sequence[Scalar]) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatchError("vector length mismatch")
        return (self * QMatrix(self.cols, 1, v)).column(0)

    def transpose(self) -> "QMatrix":
        c = self.cols
        return QMatrix._of(c, self.rows, [x for j in range(c) for x in self.nums[j::c]], self.den)

    def max_abs_entry(self) -> Fraction:
        return _ratio(max(map(abs, self.nums)), self.den)

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
        k = -1 if c > 0 else 1
        return QMatrix._of(self.rows, self.rows,
                           [k * x * s for x, s in zip(b, r * len(r))], abs(c))

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
    """det(tI - m): c_k / D^k at t^(n-k) for the c_k of `_faddeev` of a = D m,
    with a = m.nums and D = m.den."""
    if not m.is_square:
        raise DimensionMismatchError("characteristic polynomial of a non-square matrix")
    d, n = m.den, m.rows
    return QPoly._of([c * d ** (n - k) for k, c in enumerate(_faddeev(m.nums, n)[0])][::-1],
                     Fraction(1, d ** n))


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
    """p(m), with p = content h (`content`, `ints`) and m = a / D (`nums`,
    `den`): integer Horner, b <- b a + h_i D^(deg - i) I, gives D^deg h(m)."""
    if not m.is_square:
        raise DimensionMismatchError("polynomial of a non-square matrix")
    n = m.rows
    if p.is_zero:
        return QMatrix.zeros(n, n)
    h, content = p.ints, p.content
    a, d = m.nums, m.den
    b = [h[-1] if i % (n + 1) == 0 else 0 for i in range(n * n)]
    scale = 1
    for c in reversed(h[:-1]):
        scale *= d
        b = _int_product(b, a, n, n)
        b[::n + 1] = [x + c * scale for x in b[::n + 1]]
    num = content.numerator
    return QMatrix._of(n, n, [num * x for x in b], content.denominator * scale)


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
