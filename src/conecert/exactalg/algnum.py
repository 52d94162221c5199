"""Algebraic numbers as (irreducible minimal polynomial, isolating rectangle),
and the exact test that every root of a polynomial has modulus q.

The representation is fully exact: rectangles have rational corners. No
float enters any decision path; floats appear only in the convenience
`approx` accessor.

`modulus_equals` works on the polynomial alone (Kronecker's trace-polynomial
reduction and a Sturm count, in integers). It, `rational_roots`,
`factor_rational` and `has_positive_irrational_root` take any polynomial
and read its square-free part from the primitive integer Sturm chain it
keeps (`qpoly._sturm`, signs by integer Horner), so the report, the
decision and a refusal on one characteristic polynomial share one chain.
`qpoly.rational_roots` lifts p-adically (Hensel) once per polynomial, and
`factor_rational` splits them off as linear factors: a cofactor of degree 2
or 3 left without one is irreducible.

Roots are isolated once, for the report, to boxes narrower and lower than
ISOLATION_WIDTH; `roots_with_multiplicity` states their order. The real
roots of all factors come from one bisection on Sturm counts of their
product, down from `_root_bound`, and the non-real roots of an irreducible
quadratic from its closed form with an `isqrt` bracket.
sympy is imported only inside `_sympy_factors` (a square-free cofactor of
degree >= 4), `_sympy_complex_boxes` (the non-real roots of an irreducible
factor of degree >= 3) and `_count_in_box` (for `refine`). So `import
conecert`, every decision and the selftest load none, nor does a report on
a polynomial that, its rational roots divided out, is a power of one
quadratic or of one cubic with three real roots.
`AlgebraicNumber.refine` bisects a box further on request (exact sign
evaluation for real roots, exact rectangle root counting, Collins-Krandick
via sympy, for complex ones).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod

from ..errors import InternalCheckError, PreconditionViolatedError, ZeroPolynomialError
from .qpoly import (QPoly, _count, _frac, _quotient, _root_bound, _sign, _sturm,
                    primitive_ints, rational_roots)

# every isolating box is narrower and lower than this; reports print it as is
ISOLATION_WIDTH = Fraction(1, 4096)

# a closed-form quadratic box has half-sides 2^-14 (real) and 2^-k with
# k >= 14 (imaginary), so both sides are inside ISOLATION_WIDTH
_HALF_SIDE_BITS = 14

# split fractions tried when a bisection line happens to pass through a root
_SPLIT_FRACTIONS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                    Fraction(2, 5), Fraction(3, 5), Fraction(3, 7), Fraction(4, 7))


def _qq(x: Fraction):
    """The sympy QQ element of an exact rational."""
    from sympy.polys.domains import QQ
    return QQ(x.numerator, x.denominator)


def _to_dup(p: QPoly) -> list:
    """sympy dense representation: QQ coefficients, highest degree first."""
    return [_qq(c) for c in reversed(p.coeffs)]


def _from_mpq(x) -> Fraction:
    return Fraction(x.numerator, x.denominator)


def _sympy_factors(p: QPoly) -> list[tuple[QPoly, int]]:
    """Irreducible factors of p over Q by sympy, content-normalized."""
    from sympy.polys.domains import QQ
    from sympy.polys.factortools import dup_factor_list
    _, factors = dup_factor_list(_to_dup(p), QQ)
    return [(QPoly([_from_mpq(c) for c in reversed(fac)]).content_normalized(), int(mult))
            for fac, mult in factors]


def factor_rational(p: QPoly) -> list[tuple[QPoly, int]]:
    """Irreducible factors over Q with multiplicities.

    Factors come back content-normalized (primitive integer coefficients,
    positive leading coefficient) in a deterministic order. The linear
    factors are split off without sympy: each of the `rational_roots` of p
    is divided out of the square-free part s once and out of p as often as
    it goes. What is left of s has no rational root, so at degree 2 or 3 it
    is irreducible and the rest of p is a power of it; only a rest of s of
    degree >= 4 is factored by sympy.
    """
    if p.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    s = p.square_free_part()
    out = []
    for r in rational_roots(p):
        linear = QPoly.linear_root(r)
        s = s.exact_div(linear)
        mult = 0
        while True:
            quot, rem = divmod(p, linear)
            if not rem.is_zero:
                break
            p, mult = quot, mult + 1
        out.append((linear.content_normalized(), mult))
    if s.degree in (2, 3):
        out.append((s.content_normalized(), p.degree // s.degree))
    elif s.degree >= 4:
        out += _sympy_factors(p)
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


@dataclass(frozen=True, slots=True)
class AlgebraicNumber:
    """A root of an irreducible rational polynomial, pinned by a rectangle.

    `box` is (re_lo, re_hi, im_lo, im_hi) with rational corners; it contains
    exactly one root of `minpoly`. Values are immutable; refinement returns a
    new number with a strictly smaller box.
    """

    minpoly: QPoly
    box: tuple[Fraction, Fraction, Fraction, Fraction]
    is_real: bool

    def __post_init__(self):
        object.__setattr__(self, "box", tuple(_frac(b) for b in self.box))
        object.__setattr__(self, "is_real", bool(self.is_real))

    @staticmethod
    def from_rational(r) -> "AlgebraicNumber":
        r = _frac(r)
        mp = QPoly((-r, 1)).content_normalized()
        return AlgebraicNumber(mp, (r, r, 0, 0), True)

    # -- queries ----------------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    @property
    def is_rational(self) -> bool:
        return self.minpoly.degree == 1

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise PreconditionViolatedError("not a rational number")
        return -self.minpoly.coeffs[0] / self.minpoly.coeffs[1]

    def approx(self) -> complex:
        a, b, c, d = self.box
        return complex((a + b) / 2, (c + d) / 2)

    def __repr__(self) -> str:
        if self.is_rational:
            return f"AlgebraicNumber({self.rational_value})"
        return f"AlgebraicNumber({self.minpoly}, box={self.box})"

    # -- refinement ---------------------------------------------------------------

    def refine(self) -> "AlgebraicNumber":
        """Halve (roughly) the larger side of the box; exact and certified."""
        if self.is_rational:
            return self
        if self.is_real:
            return self._refine_real()
        return self._refine_complex()

    def _refine_real(self) -> "AlgebraicNumber":
        lo, hi = self.box[0], self.box[1]
        p = self.minpoly
        # rational endpoints are never roots of an irreducible p of degree >= 2
        mid = (lo + hi) / 2
        if (p(lo) > 0) != (p(mid) > 0):
            return AlgebraicNumber(p, (lo, mid, 0, 0), True)
        return AlgebraicNumber(p, (mid, hi, 0, 0), True)

    def _refine_complex(self) -> "AlgebraicNumber":
        a, b, c, d = self.box
        dup = _to_dup(self.minpoly)
        horizontal = (b - a) >= (d - c)
        for frac in _SPLIT_FRACTIONS:
            if horizontal:
                mid = a + (b - a) * frac
                first = (a, mid, c, d)
                second = (mid, b, c, d)
            else:
                mid = c + (d - c) * frac
                first = (a, b, c, mid)
                second = (a, b, mid, d)
            n1 = _count_in_box(dup, first)
            n2 = _count_in_box(dup, second)
            if n1 + n2 != 1:
                # split line passes through the root; try another fraction
                continue
            return AlgebraicNumber(self.minpoly, first if n1 == 1 else second, False)
        raise InternalCheckError("no valid split found")  # pragma: no cover


def _count_in_box(dup: list, box) -> int:
    from sympy.polys.domains import QQ
    from sympy.polys.rootisolation import dup_count_complex_roots
    a, b, c, d = box
    return dup_count_complex_roots(dup, QQ, (_qq(a), _qq(c)), (_qq(b), _qq(d)))


def _quadratic_complex_boxes(fac: QPoly) -> list[tuple[Fraction, ...]]:
    """Boxes of the two non-real roots of a t^2 + b t + c (a > 0, b^2 < 4ac),
    negative imaginary part first, from the closed form
    -b/2a +- i sqrt(4ac - b^2)/2a.

    The real side is -b/2a +- 2^-14, one half-width for every root, so
    roots with equal real parts sort by their imaginary sides. With m =
    floor(2^k sqrt(4ac - b^2)/2a), read by `isqrt`, the imaginary side is
    (m -+ 1)/2^k, which holds the root strictly; k starts at 14 and grows
    until m >= 2, so the conjugate boxes are disjoint.
    """
    c, b, a = (x.numerator for x in fac.coeffs)
    re, half = Fraction(-b, 2 * a), Fraction(1, 1 << _HALF_SIDE_BITS)
    k = _HALF_SIDE_BITS
    while (m := isqrt((4 * a * c - b * b) << 2 * k) // (2 * a)) < 2:
        k += 1
    lo, hi = Fraction(m - 1, 1 << k), Fraction(m + 1, 1 << k)
    return [(re - half, re + half, -hi, -lo), (re - half, re + half, lo, hi)]


def _sympy_complex_boxes(fac: QPoly) -> list[tuple[Fraction, ...]]:
    """Boxes of the non-real roots of fac by sympy (Collins-Krandick)."""
    from sympy.polys.domains import QQ
    from sympy.polys.rootisolation import dup_isolate_complex_roots_sqf
    return [(_from_mpq(ax), _from_mpq(bx), _from_mpq(ay), _from_mpq(by))
            for (ax, ay), (bx, by) in dup_isolate_complex_roots_sqf(
                _to_dup(fac), QQ, eps=_qq(ISOLATION_WIDTH))]


def _real_roots(factors: list[tuple[QPoly, int]]) -> list[AlgebraicNumber]:
    """The real roots of the irreducible factors, increasing: each linear
    factor's rational root, and the irrational ones from one bisection over
    the product s of the factors of degree >= 2.

    s has no rational root, so no endpoint is ever a root of s. The search
    splits at 0 first and starts from `_root_bound` 2^e > |root|, so each
    box depends on the roots alone. Sturm counts on s's chain halve an
    interval until it holds one root, then the sign of s halves it until it
    is narrower than ISOLATION_WIDTH and no rational root lies strictly
    inside. The factor that changes sign across a box owns its root. Every
    sign is read by `_sign` on primitive integer coefficients. Each
    such box is a dyadic cell on one side of 0, which
    `PolarizationResult.candidate_minpoly` reads from its lower end.
    """
    rationals = sorted(-fac.coeffs[0] / fac.coeffs[1] for fac, _ in factors if fac.degree == 1)
    irrational = [(fac, primitive_ints(fac.coeffs)) for fac, _ in factors if fac.degree >= 2]
    reals = [AlgebraicNumber.from_rational(r) for r in rationals]
    if not irrational:
        return reals
    s = prod((fac for fac, _ in irrational), start=QPoly.one())
    s_ints = primitive_ints(s.coeffs)
    top = Fraction(_root_bound(s_ints))
    todo = [(lo, hi, s.count_real_roots(lo, hi)) for lo, hi in ((0, top), (-top, 0))]
    while todo:
        lo, hi, n = todo.pop()
        if n > 1:
            mid = (lo + hi) / 2
            left = s.count_real_roots(lo, mid)
            todo += [(mid, hi, n - left), (lo, mid, left)]
        elif n == 1:
            sign_lo = _sign(s_ints, lo)
            while hi - lo >= ISOLATION_WIDTH or any(lo < r < hi for r in rationals):
                mid = (lo + hi) / 2
                if _sign(s_ints, mid) != sign_lo:
                    hi = mid
                else:
                    lo = mid
            owner = next(fac for fac, f in irrational if _sign(f, lo) != _sign(f, hi))
            reals.append(AlgebraicNumber(owner, (lo, hi, 0, 0), True))
    return sorted(reals, key=lambda root: root.box[:2])


def roots_with_multiplicity(p: QPoly) -> list[tuple[AlgebraicNumber, int]]:
    """Complete complex root set of p with multiplicities: real roots
    increasing, then complex ones by box (re_lo, re_hi, im_lo), which may
    part a conjugate pair (t^4 + 3t^2 + 1 gives -1.618i, -0.618i, 0.618i,
    1.618i). Each root's minimal polynomial is the content-normalized
    irreducible factor it belongs to; multiplicities sum to deg p.

    The real roots of all factors come from `_real_roots`, so real boxes
    are disjoint and box order is root order. The non-real roots of a
    factor with fewer real roots than its degree come from the closed form
    of a quadratic or, at degree >= 3, from sympy.
    """
    if p.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no well-defined roots")
    factors = factor_rational(p)
    reals = _real_roots(factors)
    complexes = [AlgebraicNumber(fac, box, False) for fac, _ in factors
                 if fac.degree > sum(root.minpoly == fac for root in reals)
                 for box in (_quadratic_complex_boxes(fac) if fac.degree == 2
                             else _sympy_complex_boxes(fac))]
    complexes.sort(key=lambda root: root.box[:3])
    mult = dict(factors)
    return [(root, mult[root.minpoly]) for root in reals + complexes]


def has_positive_irrational_root(p: QPoly) -> bool:
    """Whether the polynomial p with p(0) != 0 has a positive irrational real root.

    A Sturm count of the distinct roots of p in (0, `_root_bound`(p)), on
    p's own chain, minus the positive rational roots of p.
    """
    if p.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no well-defined roots")
    positive = p.count_real_roots(0, _root_bound(primitive_ints(p.coeffs)))
    return positive > 0 and positive > sum(1 for x in rational_roots(p) if x > 0)


# -- modulus decision ---------------------------------------------------------------


def modulus_equals(p: QPoly, q) -> bool:
    """Decide exactly whether every root of the nonzero polynomial p has modulus q > 0.

    Kronecker's reduction on the primitive integer square-free part r of p,
    with q = a/b: divide out bt - a and bt + a. Every root of the rest r, of
    degree 2m, lies on |t| = q exactly when r is q-reciprocal (r_{m-j} b^{2j}
    = a^{2j} r_{m+j}, so r(t) = t^m h(t + q^2/t)) and h, with m distinct
    real roots in (-2q, 2q), gives conjugate pairs t^2 - s t + q^2. With
    D_j(t + q^2/t) = t^j + (q^2/t)^j, h = r_m + sum_j r_{m+j} D_j, counted as
    H(u) = b^m h(u/b) on (-2a, 2a): E_j(u) = b^j D_j(u/b) has E_0 = 2,
    E_1 = u and E_(j+1) = u E_j - a^2 E_(j-1).
    """
    q = _frac(q)
    if q <= 0:
        raise PreconditionViolatedError("modulus test requires q > 0")
    r = primitive_ints(p.square_free_part().coeffs)
    a, b = q.numerator, q.denominator
    for root in (a, -a):
        if not _sign(r, Fraction(root, b)):
            r = _quotient(r, (-root, b))
    if len(r) % 2 == 0:
        return False
    m = len(r) // 2
    if any(r[m - j] * b ** (2 * j) != a ** (2 * j) * r[m + j] for j in range(1, m + 1)):
        return False
    h = [r[m] * b ** m] + [0] * m
    e_prev, e = [2], [0, 1]
    for j in range(1, m + 1):
        for i, c in enumerate(e):
            h[i] += r[m + j] * b ** (m - j) * c
        e_prev, e = e, [x - a * a * y for x, y in zip([0, *e], [*e_prev, 0, 0])]
    return _count(_sturm(h, primitive_ints([i * c for i, c in enumerate(h)][1:])),
                  -2 * a, 2 * a) == m
