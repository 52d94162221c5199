import random
from fractions import Fraction

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


@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
@settings(max_examples=50)
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys, nonzero_polys)
@settings(max_examples=60)
def test_divmod_reconstructs(p, d):
    q, r = divmod(p, d)
    assert q * d + r == p
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
        chain.append(-(chain[-2] % chain[-1]))
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
        h = h + d.scale(a[m + j])
        d_prev, d = d, s * d - d_prev.scale(q * q)
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

