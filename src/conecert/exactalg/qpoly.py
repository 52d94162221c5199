"""Exact univariate polynomials over the rationals, and exact integer and
rational n-th roots.

Coefficients are stored lowest degree first as `fractions.Fraction` values
with no trailing zeros; the zero polynomial has an empty coefficient tuple.
All arithmetic is exact. Nothing here ever touches floating point. A
polynomial keeps its Sturm chain once built, so its square-free part and
every root count share one remainder sequence.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from ..errors import ImmutableValueError, PreconditionViolatedError, ZeroPolynomialError

Scalar = Union[int, Fraction]


# one shared (immutable) instance per small integer, which fills most cone data
_SMALL = tuple(Fraction(i) for i in range(-256, 257))


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return _SMALL[x + 256] if -256 <= x <= 256 else Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise PreconditionViolatedError(f"{x!r} is not an exact rational") from None
    raise PreconditionViolatedError(f"cannot use {type(x).__name__} as an exact rational")


def primitive_ints(u: Sequence[Scalar]) -> tuple[int, ...]:
    """The positive multiple of u with coprime integer entries; zero stays zero."""
    den = lcm(*(a.denominator for a in u))
    ints = [a.numerator * (den // a.denominator) for a in u]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


def integer_nth_root(value: int, n: int) -> Optional[int]:
    """Exact n-th root of a positive integer, or None.

    value < 2^b for b its bit length, so a root lies below 2^ceil(b / n) and
    no power the search forms is much longer than value.
    """
    if value < 1 or n < 1:
        return None
    lo, hi = 1, (1 << -(-value.bit_length() // n)) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        p = mid ** n
        if p == value:
            return mid
        if p < value:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def rational_nth_root(x: Scalar, n: int) -> Optional[Fraction]:
    """Exact positive n-th root of a positive rational, or None."""
    x = _frac(x)
    num = integer_nth_root(x.numerator, n)
    den = integer_nth_root(x.denominator, n)
    return None if num is None or den is None else Fraction(num, den)


class QPoly:
    """A polynomial with rational coefficients, lowest degree first."""

    # _chain, _sqfree: the Sturm chain and the square-free part, built on
    # first use; not part of the value
    __slots__ = ("coeffs", "_chain", "_sqfree")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_chain", None)
        object.__setattr__(self, "_sqfree", None)

    def __setattr__(self, name, value):
        raise ImmutableValueError("QPoly is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "QPoly":
        return QPoly(())

    @staticmethod
    def one() -> "QPoly":
        return QPoly((1,))

    @staticmethod
    def x() -> "QPoly":
        return QPoly((0, 1))

    @staticmethod
    def constant(c: Scalar) -> "QPoly":
        return QPoly((c,))

    @staticmethod
    def linear_root(r: Scalar) -> "QPoly":
        """t - r."""
        return QPoly((-_frac(r), 1))

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return QPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "QPoly":
        c = _frac(c)
        return QPoly(tuple(a * c for a in self.coeffs))

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise PreconditionViolatedError("negative polynomial power")
        out = QPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other: "QPoly"):
        if other.is_zero:
            raise ZeroPolynomialError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        d = other.degree
        lc = other.leading
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lc
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return QPoly(q), QPoly(rem)

    def __mod__(self, other: "QPoly") -> "QPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "QPoly") -> "QPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise PreconditionViolatedError("division is not exact")
        return q

    def __call__(self, x: Scalar) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "QPoly":
        return QPoly(tuple(c * i for i, c in enumerate(self.coeffs) if i > 0))

    # -- normal forms -----------------------------------------------------------

    def monic(self) -> "QPoly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def content_normalized(self) -> "QPoly":
        """Primitive integer-coefficient form with positive leading coefficient."""
        ints = primitive_ints(self.coeffs)
        return QPoly(-v for v in ints) if ints and ints[-1] < 0 else QPoly(ints)

    def square_free_part(self) -> "QPoly":
        """p / gcd(p, p'), monic, built once; the gcd ends the Sturm chain."""
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no square-free part")
        if self._sqfree is None:
            g = self.sturm_chain()[-1]
            object.__setattr__(self, "_sqfree",
                               (self if g.degree <= 0 else self.exact_div(g)).monic())
        return self._sqfree

    # -- real root counting -----------------------------------------------------

    def sturm_chain(self) -> tuple["QPoly", ...]:
        """p, p' and the negated remainders of Euclid's algorithm, ending in
        gcd(p, p') up to a constant; built once per polynomial."""
        if self._chain is None:
            chain = [self, self.derivative()]
            while not chain[-1].is_zero and chain[-1].degree > 0:
                chain.append(-(chain[-2] % chain[-1]))
            if chain[-1].is_zero:
                chain.pop()
            object.__setattr__(self, "_chain", tuple(chain))
        return self._chain

    def count_real_roots(self, lo: Scalar, hi: Scalar) -> int:
        """Number of distinct real roots in the open interval (lo, hi).

        Requires nonzero values at both endpoints, where the chain's common
        factor gcd(p, p') is nonzero too, so p need not be square free.
        """
        lo, hi = _frac(lo), _frac(hi)
        if lo >= hi:
            return 0
        if self(lo) == 0 or self(hi) == 0:
            raise PreconditionViolatedError("endpoint is a root; shrink the interval first")
        chain = self.sturm_chain()

        def variations(x: Fraction) -> int:
            signs = [v for v in (p(x) for p in chain) if v != 0]
            return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))

        return variations(lo) - variations(hi)

    # -- resultants ---------------------------------------------------------------

    @staticmethod
    def resultant(f: "QPoly", g: "QPoly") -> Fraction:
        """Resultant of two polynomials, by the Euclidean remainder sequence.

        Uses Res(f, g) = (-1)^{mn} lc(g)^{m - deg r} Res(g, r) for f = qg + r.
        """
        if f.is_zero or g.is_zero:
            return Fraction(0)
        acc = Fraction(1)
        while True:
            m, n = f.degree, g.degree
            if n == 0:
                return acc * g.leading ** m
            if m == 0:
                return acc * f.leading ** n
            if m < n:
                f, g = g, f
                if (m * n) % 2 == 1:
                    acc = -acc
                continue
            r = f % g
            if r.is_zero:
                return Fraction(0)
            if (m * n) % 2 == 1:
                acc = -acc
            acc *= g.leading ** (m - r.degree)
            f, g = g, r

    # -- display --------------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                var = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    term = var
                elif c == -1:
                    term = f"-{var}"
                else:
                    term = f"{c}*{var}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"

