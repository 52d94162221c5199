"""Exact univariate polynomials over the rationals, and exact integer and
rational n-th roots.

Coefficients are stored lowest degree first as `fractions.Fraction` values
with no trailing zeros; the zero polynomial has an empty coefficient tuple.
All arithmetic is exact. Nothing here ever touches floating point. A
polynomial keeps its Sturm chain, a primitive integer remainder sequence
(`_sturm`) read by integer Horner (`_sign`), so its square-free part and
every root count share it; it keeps its rational roots (`rational_roots`)
too, so the report and a refusal lift them once.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
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


def _ratio(n: int, d: int) -> Fraction:
    """n / d, as the shared instance when it is a small integer."""
    return _frac(n // d) if n % d == 0 else Fraction(n, d)


def primitive_ints(u: Sequence[Scalar]) -> tuple[int, ...]:
    """The positive multiple of u with coprime integer entries; zero stays zero."""
    den = lcm(*(a.denominator for a in u))
    ints = [a.numerator * (den // a.denominator) for a in u]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


def integer_nth_root(value: int, n: int) -> Optional[int]:
    """Exact n-th root of a positive integer, or None.

    With b the bit length of value, the root is below 2^ceil(b / n), so at
    n >= b only 1 has one. Newton's iteration falls from there to the floor
    of the root (Brent and Zimmermann, *Modern Computer Arithmetic*, 1.5).
    """
    if value < 1 or n < 1:
        return None
    b = value.bit_length()
    if n >= b:
        return 1 if value == 1 else None
    x = 1 << -(-b // n)
    while (y := ((n - 1) * x + value // x ** (n - 1)) // n) < x:
        x = y
    return x if x ** n == value else None


def rational_nth_root(x: Scalar, n: int) -> Optional[Fraction]:
    """Exact positive n-th root of a positive rational, or None."""
    x = _frac(x)
    num = integer_nth_root(x.numerator, n)
    den = integer_nth_root(x.denominator, n)
    return None if num is None or den is None else _ratio(num, den)


def _sign(f: Sequence[int], x: Scalar) -> int:
    """The sign of f(a/b), b > 0, by integer Horner on b^deg f(a/b)."""
    a, b = x.numerator, x.denominator
    acc, w = 0, 1
    for c in reversed(f):
        acc = acc * a + c * w
        w *= b
    return (acc > 0) - (acc < 0)


def _quotient(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """f / g for integer polynomials, g primitive and dividing f, so that the
    quotient is integral (Gauss's lemma)."""
    r, n = list(f), len(g) - 1
    quot = [0] * (len(f) - n)
    for k in reversed(range(len(quot))):
        c = quot[k] = r[k + n] // g[-1]
        for i, y in enumerate(g, k):
            r[i] -= c * y
    return quot


def _sturm(f: Sequence[int], df: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The Sturm chain of the integer polynomial f from df, a primitive
    positive multiple of f', as a primitive remainder sequence (Collins
    1967; Brown and Traub 1971), ending in gcd(f, f') up to a constant.
    Each step scales the remainder by u = lc(b) / gcd(lc(b), top), so the
    next term, divided by its content and by the sign of the product of
    the u's, is a positive multiple of Euclid's -(a mod b)."""
    chain = [tuple(f), tuple(df)] if df else [tuple(f)]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r, n, sign = list(a), len(b) - 1, -1
        while len(r) > n:
            if c := r.pop():
                g = gcd(b[-1], c)
                u, v = b[-1] // g, c // g
                if u != 1:
                    r, sign = [u * x for x in r], sign if u > 0 else -sign
                for i, y in enumerate(b[:-1], len(r) - n):
                    r[i] -= v * y
        while r and not r[-1]:
            r.pop()
        if not r:
            break
        g = gcd(*r) * sign
        chain.append(tuple(x // g for x in r))
    return tuple(chain)


def _count(chain: Sequence[Sequence[int]], lo: Scalar, hi: Scalar) -> int:
    """Distinct real roots of chain[0], which must not vanish at lo or hi, in (lo, hi)."""
    def variations(x: Scalar) -> int:
        signs = [_sign(f, x) for f in chain]
        if not signs[0]:
            raise PreconditionViolatedError("endpoint is a root; shrink the interval first")
        signs = [v for v in signs if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi) if lo < hi else 0


def _eval_mod(g: Sequence[int], x: int, m: int) -> int:
    """g(x) mod m for integer coefficients, lowest degree first."""
    acc = 0
    for c in reversed(g):
        acc = (acc * x + c) % m
    return acc


def _simple_roots_mod_prime(g: Sequence[int], dg: Sequence[int]) -> tuple[int, list[int]]:
    """The first prime p at which every root of g mod p is simple, and those roots.

    g is square free, so only primes dividing its discriminant are skipped.
    """
    for p in count(2):
        if any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            continue
        g_p, dg_p = [c % p for c in g], [c % p for c in dg]
        roots = [a for a in range(p) if _eval_mod(g_p, a, p) == 0]
        if all(_eval_mod(dg_p, a, p) for a in roots):
            return p, roots


def _root_bound(coeffs: Sequence[int]) -> int:
    """A power of two strictly above every root's modulus, for integer coefficients
    lowest degree first: Fujiwara's 2 max_k |a_{n-k}/a_n|^(1/k), read from bit lengths."""
    lead, *lower = reversed(coeffs)
    d = abs(lead).bit_length() - 1
    return 2 << max([0, *(-((d - c.bit_length()) // k) for k, c in enumerate(lower, 1))])


def rational_roots(p: QPoly) -> list[Fraction]:
    """The distinct rational roots of p, increasing, read from the primitive
    integer form s of its square-free part (lowest degree first); lifted
    once per polynomial, kept beside its Sturm chain.

    With n = deg s and lc > 0 its leading coefficient, r is a root of s
    exactly when y = lc r is an integer root of the monic
    g(y) = lc^(n-1) s(y / lc), and |y| < B = `_root_bound`(g). Each root
    of g modulo the first prime l at which all of them are simple lifts
    uniquely by Newton's iteration to a root mod l^k > 2B; its symmetric
    residue is the only integer candidate, tested exactly (Loos 1983).
    """
    if p._roots is None:
        s = primitive_ints(p.square_free_part().coeffs)
        n, lc = len(s) - 1, s[-1]
        g = [c * lc ** (n - 1 - i) for i, c in enumerate(s[:-1])] + [1]
        dg = [i * c for i, c in enumerate(g)][1:]
        bound = _root_bound(g)
        prime, residues = _simple_roots_mod_prime(g, dg)
        roots = []
        for a in residues:
            m = prime
            while m <= 2 * bound:
                m *= m
                a = (a - _eval_mod(g, a, m) * pow(_eval_mod(dg, a, m), -1, m)) % m
            y = a if 2 * a < m else a - m
            if sum(c * y ** i for i, c in enumerate(g)) == 0:
                roots.append(Fraction(y, lc))
        object.__setattr__(p, "_roots", tuple(sorted(roots)))
    return list(p._roots)


class QPoly:
    """A polynomial with rational coefficients, lowest degree first."""

    # _chain, _sqfree, _roots: the integer Sturm chain, the square-free part
    # and the rational roots, built on first use; not part of the value
    __slots__ = ("coeffs", "_chain", "_sqfree", "_roots")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_chain", None)
        object.__setattr__(self, "_sqfree", None)
        object.__setattr__(self, "_roots", None)

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
        rem, d = list(self.coeffs), other.degree
        q = [Fraction(0)] * max(len(rem) - d, 0)
        for k in reversed(range(len(q))):
            f = q[k] = rem[k + d] / other.leading
            for i, c in enumerate(other.coeffs, k):
                rem[i] -= f * c
        return QPoly(q), QPoly(rem[:d])

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
            chain = self._sturm_chain()
            object.__setattr__(self, "_sqfree", QPoly(_quotient(chain[0], chain[-1])).monic())
        return self._sqfree

    # -- real root counting -----------------------------------------------------

    def _sturm_chain(self) -> tuple[tuple[int, ...], ...]:
        """The primitive integer Sturm chain (`_sturm`) of p; built once."""
        if self._chain is None:
            object.__setattr__(self, "_chain", _sturm(primitive_ints(self.coeffs),
                                                      primitive_ints(self.derivative().coeffs)))
        return self._chain

    def count_real_roots(self, lo: Scalar, hi: Scalar) -> int:
        """Number of distinct real roots in the open interval (lo, hi).

        Requires nonzero values at both endpoints, where the chain's common
        factor gcd(p, p') is nonzero too, so p need not be square free.
        """
        return _count(self._sturm_chain(), _frac(lo), _frac(hi))

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

