import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.errors import PreconditionViolatedError, ZeroPolynomialError
from conecert.exactalg import QPoly, algnum, factor_rational, modulus_equals

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
polys = st.lists(small_fracs, min_size=0, max_size=6).map(QPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


def test_normalization_strips_trailing_zeros():
    assert QPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert QPoly([0, 0]).is_zero
    assert QPoly([]).degree == -1


def test_str_rendering():
    assert str(QPoly([-216, -12, 2, 1])) == "t^3 + 2*t^2 - 12*t - 216"
    assert str(QPoly([])) == "0"
    assert str(QPoly([Fraction(1, 2)])) == "1/2"


def coeff_sum(*ps: QPoly) -> list[Fraction]:
    """The coefficient list of the sum of the ps, lowest degree first, with
    no trailing zero."""
    out = [sum((p.coeff(k) for p in ps), Fraction(0))
           for k in range(max(p.degree for p in ps) + 1)]
    while out and out[-1] == 0:
        out.pop()
    return out


@given(polys, polys, polys)
@settings(max_examples=50)
def test_multiplication_distributes(p, q, r):
    assert list((p * QPoly(coeff_sum(q, r))).coeffs) == coeff_sum(p * q, p * r)


@given(polys, nonzero_polys)
@settings(max_examples=60)
def test_divmod_reconstructs(p, d):
    q, r = divmod(p, d)
    assert coeff_sum(q * d, r) == list(p.coeffs)
    assert r.is_zero or r.degree < d.degree


def euclid_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd by Euclid's algorithm, the reference for the Sturm chain."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def euclid_count(p: QPoly, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of p in (lo, hi) from the Sturm chain built by
    Euclid over `Fraction` and evaluated in `Fraction`: the reference for
    the primitive integer chain."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        chain.append((chain[-2] % chain[-1]).scale(-1))
    if chain[-1].is_zero:
        chain.pop()

    def variations(x: Fraction) -> int:
        signs = [v for v in (f(x) for f in chain) if v != 0]
        return sum((a > 0) != (b > 0) for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi)


def euclid_square_free(p: QPoly) -> QPoly:
    return p.exact_div(euclid_gcd(p, p.derivative())).monic()


def euclid_modulus_equals(p: QPoly, q: Fraction) -> bool:
    """Kronecker's reduction over `Fraction` on the Euclid square-free part:
    r q-reciprocal and its trace polynomial h with deg r / 2 roots in (-2q, 2q)."""
    r = euclid_square_free(p)
    for root in (q, -q):
        if r(root) == 0:
            r = r.exact_div(QPoly.linear_root(root))
    if r.degree % 2:
        return False
    m = r.degree // 2
    a = r.coeffs
    if any(a[m - j] != q ** (2 * j) * a[m + j] for j in range(1, m + 1)):
        return False
    s = QPoly([0, 1])
    h, d_prev, d = QPoly([a[m]]), QPoly([2]), s
    for j in range(1, m + 1):
        h = QPoly(coeff_sum(h, d.scale(a[m + j])))
        d_prev, d = d, QPoly(coeff_sum(s * d, d_prev.scale(-q * q)))
    return euclid_count(h, -2 * q, 2 * q) == m


@given(nonzero_polys, st.lists(small_fracs, min_size=1, max_size=3).map(QPoly).filter(bool))
@settings(max_examples=60, deadline=None)
def test_sturm_chain_ends_in_gcd(p, q):
    for f in (p, p * q * q, p * p * q ** 3):
        g, df = QPoly(f._sturm_chain()[-1]), f.derivative()
        assert (f % g).is_zero and (df % g).is_zero
        assert g.monic() == euclid_gcd(f, df)
        assert f.square_free_part() == euclid_square_free(f)


def _seeded_poly(rng: random.Random) -> tuple[QPoly, Fraction]:
    """A seeded product of factors with repeats, a leading coefficient of
    either sign and, one time in five, 300-digit coefficients, with a q > 0:
    each factor is t +- q, a trace quadratic t^2 - s t + q^2 with |s| < 2q
    (roots of modulus q), or a random integer factor of degree 1 to 3 (2 at
    300 digits, where the Fraction reference is slow)."""
    big = rng.random() < 0.2
    q = Fraction(rng.randint(1, 12), rng.choice([1, 2, 3, 7]))
    if big:
        q = Fraction(rng.randrange(10 ** 299, 10 ** 300), rng.choice([1, 3, 7]))
    factors = []
    for _ in range(rng.randint(1, 2 if big else 3)):
        kind = rng.random()
        if kind < 0.2:
            factors.append(QPoly.linear_root(rng.choice([q, -q])))
        elif kind < 0.6:
            s = 2 * q * Fraction(rng.randint(-20, 20), 21)
            factors.append(QPoly([q * q, -s, 1]))
        else:
            top, degree = (10 ** 300, 2) if big else (20, 3)
            factors.append(QPoly([rng.randint(-top, top) for _ in range(rng.randint(1, degree))]
                                 + [rng.choice([-1, 1]) * rng.randint(1, top)]))
    p = QPoly([Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 9))])
    for f in factors:
        p = p * f ** rng.choice([1, 1, 2])
    return p, q


def _endpoint(rng: random.Random, p: QPoly) -> Fraction:
    """A random rational endpoint that is not dyadic and not a root of p."""
    while True:
        x = Fraction(rng.randint(-400, 400), rng.choice([3, 5, 7, 9, 11, 21, 1000]))
        if x.denominator & (x.denominator - 1) and p(x) != 0:
            return x


def test_integer_chain_matches_the_fraction_reference():
    rng = random.Random(20261021)
    seen = set()
    for _ in range(320):
        p, q = _seeded_poly(rng)
        assert p.square_free_part() == euclid_square_free(p), p
        for _ in range(3):
            lo, hi = sorted((_endpoint(rng, p), _endpoint(rng, p)))
            count = p.count_real_roots(lo, hi)
            assert count == euclid_count(p, lo, hi), (p, lo, hi)
        for x in (q, q + Fraction(1, 3), q / 2):
            verdict = modulus_equals(p, x)
            assert verdict == euclid_modulus_equals(p, x), (p, x)
            seen.add(verdict)
        seen.add("negative" if p.leading < 0 else "positive")
        seen.add("repeated" if p.square_free_part().degree < p.degree else "square free")
        seen.add("300 digits" if max(abs(c.numerator) for c in p.coeffs) > 10 ** 299 else "small")
    assert seen == {True, False, "negative", "positive", "repeated", "square free",
                    "300 digits", "small"}


def test_sturm_counts_read_no_fraction_evaluation(monkeypatch):
    # count_real_roots, square_free_part, modulus_equals and _real_roots read
    # signs from the integer chain, never a Fraction evaluation or division
    factors = factor_rational(QPoly([-2, 0, 0, 1]) ** 2 * QPoly([-4, 0, 1]))
    calls = []
    call, div = QPoly.__call__, QPoly.__divmod__
    monkeypatch.setattr(QPoly, "__call__", lambda p, x: calls.append("call") or call(p, x))
    monkeypatch.setattr(QPoly, "__divmod__", lambda p, d: calls.append("divmod") or div(p, d))
    assert QPoly([-2, 0, 0, 1]).count_real_roots(Fraction(1, 3), 2) == 1
    assert QPoly([-2, 0, 0, 1]).square_free_part() == QPoly([-2, 0, 0, 1])
    assert modulus_equals(QPoly([16, 0, 0, 0, 1]) ** 2 * QPoly([2, 1]), 2)
    assert len(algnum._real_roots(factors)) == 3
    assert calls == []


def _normal(p: QPoly) -> bool:
    """ints primitive with a positive leading entry and content nonzero, or
    the zero polynomial as () with content 0."""
    if p.is_zero:
        return p.ints == () and p.content == 0
    return gcd(*p.ints) == 1 and p.ints[-1] > 0 and p.content != 0


@given(polys, nonzero_polys)
@settings(max_examples=80)
def test_representation_is_primitive_and_unique(p, d):
    routes = [QPoly(p.coeffs), QPoly(str(c) for c in p.coeffs), p * QPoly.one(),
              p.scale(Fraction(-1, 2)).scale(-2), QPoly._of(p.ints, p.content),
              (p * d).exact_div(d), divmod(p * d, d)[0]]
    if not p.is_zero:
        routes.append(p.monic().scale(p.leading))
    for other in routes:
        assert _normal(other), other
        assert other == p and hash(other) == hash(p), (p, other)
    assert _normal(p * d) and _normal(p.derivative()) and _normal(divmod(p, d)[1])


def test_zero_polynomial_has_content_zero():
    for zero in (QPoly([]), QPoly([0, Fraction(0)]), QPoly([1, 2]).scale(0),
                 QPoly([3]).derivative(), QPoly._of([0, 0], 5), divmod(QPoly([1, 1]),
                                                                      QPoly([1, 1]))[1]):
        assert zero.ints == () and zero.content == 0 and zero.degree == -1, zero
        assert zero == QPoly([]) and hash(zero) == hash(QPoly([]))
    assert QPoly([Fraction(-4, 3), 0, Fraction(-2, 9)]).ints == (6, 0, 1)
    assert QPoly([Fraction(-4, 3), 0, Fraction(-2, 9)]).content == Fraction(-2, 9)


# -- a Fraction reference on coefficient lists, lowest degree first ---------------


def ref_trim(a: list) -> list[Fraction]:
    a = [Fraction(x) for x in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def ref_mul(a: list, b: list) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a: list, b: list) -> tuple[list[Fraction], list[Fraction]]:
    rem, n = list(a), len(b) - 1
    quot = [Fraction(0)] * max(len(rem) - n, 0)
    for k in reversed(range(len(quot))):
        c = quot[k] = rem[k + n] / b[-1]
        for i, y in enumerate(b, k):
            rem[i] -= c * y
    return ref_trim(quot), ref_trim(rem[:n])


def ref_eval(a: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_derivative(a: list) -> list[Fraction]:
    return ref_trim([i * c for i, c in enumerate(a)][1:])


def ref_monic(a: list) -> list[Fraction]:
    return [c / a[-1] for c in a]


def ref_content_normalized(a: list) -> list[Fraction]:
    if not a:
        return []
    d = lcm(*(c.denominator for c in a))
    ints = [c.numerator * (d // c.denominator) for c in a]
    g = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return [Fraction(x // g) for x in ints]


def ref_square_free(a: list) -> list[Fraction]:
    f, g = a, ref_derivative(a)
    while g:
        f, g = g, ref_divmod(f, g)[1]
    return ref_monic(ref_divmod(a, f)[0])


def ref_count(a: list, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in (lo, hi) from Euclid's Sturm chain of a."""
    chain = [a, ref_derivative(a)]
    while chain[-1]:
        chain.append([-c for c in ref_divmod(chain[-2], chain[-1])[1]])
    signs = [[v for v in (ref_eval(f, x) for f in chain[:-1]) if v] for x in (lo, hi)]
    lo_var, hi_var = (sum((u > 0) != (v > 0) for u, v in zip(s, s[1:])) for s in signs)
    return lo_var - hi_var


def _reference_poly(rng: random.Random, degree: int) -> list[Fraction]:
    """Coefficients with 30-digit numerators over 20-digit denominators,
    small ones and, in one polynomial of three, many zeros, and a leading
    coefficient of either sign."""
    zeros = rng.choice([0.15, 0.15, 0.7])

    def coeff() -> Fraction:
        u = rng.random()
        if u < zeros:
            return Fraction(0)
        if u < zeros + 0.3:
            return Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 20))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.choice([1, 30])),
                    rng.randint(1, 10 ** rng.choice([1, 20])))
    return [coeff() for _ in range(degree)] + [lead]


def test_operations_match_a_fraction_reference():
    rng = random.Random(20261022)
    seen = set()
    for _ in range(300):
        u = rng.random()
        if u < 0.05:
            a = []
        elif u < 0.3:
            # a repeated factor, for the square-free part
            f, g = _reference_poly(rng, rng.randint(0, 4)), _reference_poly(rng, rng.randint(1, 4))
            a = ref_mul(f, ref_mul(g, g))
        else:
            a = _reference_poly(rng, rng.randint(0, 12))
        b = _reference_poly(rng, rng.randint(0, 6))
        p, d = QPoly(a), QPoly(b)
        x = Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 20))
        c = rng.choice([Fraction(0), Fraction(-3, 7), x])
        assert list(p.coeffs) == ref_trim(a) and QPoly(p.coeffs) == p, a
        assert list((p * d).coeffs) == ref_mul(a, b)
        assert list(p.scale(c).coeffs) == ref_trim([y * c for y in a])
        assert tuple(list(part.coeffs) for part in divmod(p, d)) == ref_divmod(a, b)
        assert (p * d).exact_div(d) == p
        if ref_divmod(a, b)[1]:
            with pytest.raises(PreconditionViolatedError):
                p.exact_div(d)
        assert p(x) == ref_eval(a, x) and p(c) == ref_eval(a, c)
        assert list(p.derivative().coeffs) == ref_derivative(a)
        assert list(p.content_normalized().coeffs) == ref_content_normalized(a)
        if a:
            assert list(p.monic().coeffs) == ref_monic(a)
            assert list(p.square_free_part().coeffs) == ref_square_free(a), a
            lo, hi = sorted((x, -x / 3))
            if ref_eval(a, lo) and ref_eval(a, hi):
                assert p.count_real_roots(lo, hi) == ref_count(a, lo, hi), (a, lo, hi)
            seen.add("negative" if a[-1] < 0 else "positive")
            seen.add("repeated" if p.square_free_part().degree < p.degree else "square free")
        seen.add(("degree", min(p.degree, 6)))
        seen.add("inexact" if ref_divmod(a, b)[1] else "exact")
    assert seen >= {"negative", "positive", "repeated", "square free", "inexact", "exact",
                    ("degree", -1), ("degree", 0), ("degree", 6)}


def test_square_free_part():
    p = QPoly([1, -1]) ** 3 * QPoly([-2, 1])
    sf = p.square_free_part()
    assert sf == (QPoly([1, -1]) * QPoly([-2, 1])).monic()


def test_content_normalized():
    p = QPoly([Fraction(2, 3), Fraction(-4, 3)])
    assert p.content_normalized() == QPoly([-1, 2]) * -1 or \
        p.content_normalized().coeffs == (Fraction(-1), Fraction(2))
    assert p.content_normalized().leading > 0
    q = QPoly([-2, -4]).content_normalized()
    assert q.coeffs == (1, 2)


def test_sturm_count():
    p = QPoly([-2, 0, 1])  # t^2 - 2
    assert p.count_real_roots(0, 2) == 1
    assert p.count_real_roots(-2, 2) == 2
    assert p.count_real_roots(2, 5) == 0
    cubic = QPoly([-6, 11, -6, 1])  # (t-1)(t-2)(t-3)
    assert cubic.count_real_roots(Fraction(1, 2), Fraction(7, 2)) == 3
    assert cubic.count_real_roots(Fraction(3, 2), Fraction(5, 2)) == 1


def test_sturm_rejects_root_endpoints():
    with pytest.raises(PreconditionViolatedError):
        QPoly([-2, 1]).count_real_roots(2, 3)


def test_resultant_of_linears():
    # Res(t - a, t - b) = a - b
    a, b = Fraction(3), Fraction(5)
    assert QPoly.resultant(QPoly.linear_root(a), QPoly.linear_root(b)) == a - b


def test_resultant_detects_common_root():
    p = QPoly([-1, 0, 1])          # (t-1)(t+1)
    q = QPoly([-1, 1]) * QPoly([3, 1])
    assert QPoly.resultant(p, q) == 0


@given(small_fracs, small_fracs, small_fracs, small_fracs)
@settings(max_examples=40)
def test_resultant_matches_root_product_for_quadratics(a, b, c, d):
    # Res((t-a)(t-b), (t-c)(t-d)) = (a-c)(a-d)(b-c)(b-d)
    p = QPoly.linear_root(a) * QPoly.linear_root(b)
    q = QPoly.linear_root(c) * QPoly.linear_root(d)
    expect = (a - c) * (a - d) * (b - c) * (b - d)
    assert QPoly.resultant(p, q) == expect


def test_zero_polynomial_guards():
    with pytest.raises(ZeroPolynomialError):
        QPoly([]).leading
    with pytest.raises(ZeroPolynomialError):
        QPoly([]).square_free_part()

