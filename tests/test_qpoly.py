from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.errors import PreconditionViolatedError, ZeroPolynomialError
from conecert.exactalg import QPoly

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


@given(nonzero_polys, st.lists(small_fracs, min_size=1, max_size=3).map(QPoly).filter(bool))
@settings(max_examples=60, deadline=None)
def test_sturm_chain_ends_in_gcd(p, q):
    for f in (p, p * q * q, p * p * q ** 3):
        g, df = f.sturm_chain()[-1], f.derivative()
        assert (f % g).is_zero and (df % g).is_zero
        assert g.monic() == euclid_gcd(f, df)
        assert f.square_free_part() == f.exact_div(euclid_gcd(f, df)).monic()


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

