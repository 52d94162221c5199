from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.errors import ZeroPolynomialError
from conecert.exactalg import (
    AlgebraicNumber,
    QPoly,
    modulus_equals,
    roots_with_multiplicity,
)

SPECTRUM_POLY = QPoly([-216, -12, 2, 1])  # (t - 6)(t^2 + 8t + 36)


def test_rational_roots():
    roots = roots_with_multiplicity(QPoly([-4, 0, 1]))
    assert sorted(r.rational_value for r, _ in roots) == [-2, 2]
    assert all(m == 1 for _, m in roots)


def test_repeated_root():
    roots = roots_with_multiplicity(QPoly([1, -1]) ** 3)
    assert len(roots) == 1
    root, mult = roots[0]
    assert root.rational_value == 1 and mult == 3


def test_mixed_spectrum():
    roots = roots_with_multiplicity(SPECTRUM_POLY)
    assert sum(m for _, m in roots) == 3
    rationals = [r for r, _ in roots if r.is_rational]
    assert len(rationals) == 1 and rationals[0].rational_value == 6
    complexes = [r for r, _ in roots if not r.is_real]
    assert len(complexes) == 2
    assert complexes[0].minpoly == QPoly([36, 8, 1])
    # conjugate boxes mirror each other
    a, b = complexes
    assert a.box[:2] == b.box[:2]
    assert a.box[2] == -b.box[3] and a.box[3] == -b.box[2]


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialError):
        roots_with_multiplicity(QPoly([]))


def test_refinement_nests_and_shrinks():
    root = next(r for r, _ in roots_with_multiplicity(SPECTRUM_POLY)
                if not r.is_real)
    refined = root.refine_below(Fraction(1, 10 ** 6))
    assert refined.box[0] >= root.box[0] and refined.box[1] <= root.box[1]
    assert refined.box[1] - refined.box[0] <= Fraction(1, 10 ** 6)
    z = refined.approx()
    assert abs(z.real - (-4.0)) < 1e-5
    assert abs(abs(z.imag) - 4.47213595) < 1e-5


def test_real_root_refinement():
    root = next(r for r, _ in roots_with_multiplicity(QPoly([-2, 0, 1]))
                if r.box[0] > 0)
    refined = root.refine_below(Fraction(1, 10 ** 9))
    assert abs(refined.approx().real - 2 ** 0.5) < 1e-8


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
def test_root_product_reconstructs_polynomial(rational_roots):
    # the multiset of isolated roots must reproduce the input polynomial
    p = QPoly([1])
    for r in rational_roots:
        p = p * QPoly.linear_root(r)
    roots = roots_with_multiplicity(p)
    assert sum(m for _, m in roots) == p.degree
    rebuilt = QPoly([1])
    for root, mult in roots:
        rebuilt = rebuilt * QPoly.linear_root(root.rational_value) ** mult
    assert rebuilt == p.monic()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=2, max_size=5))
def test_factor_product_reconstructs_input(coeffs):
    # grouping roots by minimal polynomial and multiplying the factors back
    # must reproduce the input exactly (up to leading coefficient)
    p = QPoly(coeffs)
    if p.is_zero or p.degree == 0:
        return
    roots = roots_with_multiplicity(p)
    assert sum(m for _, m in roots) == p.degree
    factors = {}
    for root, mult in roots:
        factors[root.minpoly] = mult
    rebuilt = QPoly([1])
    for factor, mult in factors.items():
        rebuilt = rebuilt * factor.monic() ** mult
    assert rebuilt == p.monic()
    # every isolating box actually pins its root: the box center comes within
    # the box radius of a sign change / vanishing of the minimal polynomial
    for root, _ in roots:
        refined = root.refine_below(Fraction(1, 1 << 20))
        z = refined.approx()
        value = complex(0)
        for c in reversed(root.minpoly.coeffs):
            value = value * z + complex(float(c))
        assert abs(value) < 1e-3


def test_modulus_equals_spectrum():
    for root, _ in roots_with_multiplicity(SPECTRUM_POLY):
        assert modulus_equals(root, 6)
        assert not modulus_equals(root, 5)
        assert not modulus_equals(root, Fraction(13, 2))


def test_modulus_rational_cases():
    two = AlgebraicNumber.from_rational(2)
    assert modulus_equals(two, 2)
    assert modulus_equals(AlgebraicNumber.from_rational(-2), 2)
    assert not modulus_equals(two, Fraction(3, 2))


def test_modulus_gaussian_like():
    # roots of t^2 - 2t + 2 are 1 +- i, modulus sqrt 2
    roots = roots_with_multiplicity(QPoly([2, -2, 1]))
    for r, _ in roots:
        assert not modulus_equals(r, 1)


def test_modulus_real_irrational_is_never_rational():
    root = roots_with_multiplicity(QPoly([-2, 0, 1]))[1][0]
    assert not modulus_equals(root, 1)
    assert not modulus_equals(root, 2)


def test_modulus_conjugation_stability():
    for poly in (SPECTRUM_POLY, QPoly([2, -2, 1]), QPoly([-1, -1, 0, 1])):
        for root, _ in roots_with_multiplicity(poly):
            for q in (Fraction(1), Fraction(6), Fraction(3, 2)):
                assert modulus_equals(root, q) == modulus_equals(root.conjugate(), q)


def test_modulus_higher_degree_resultant_path():
    # quartic with all roots of modulus 2: t^4 - 16
    for root, _ in roots_with_multiplicity(QPoly([-16, 0, 0, 0, 1])):
        assert modulus_equals(root, 2)
        assert not modulus_equals(root, 3)
    # irreducible cubic t^3 - t - 1: complex roots have modulus below 1
    complexes = [r for r, _ in roots_with_multiplicity(QPoly([-1, -1, 0, 1]))
                 if not r.is_real]
    assert len(complexes) == 2
    for r in complexes:
        assert not modulus_equals(r, 1)


def test_modulus_zero():
    zero = AlgebraicNumber.from_rational(0)
    assert modulus_equals(zero, 0)
    assert not modulus_equals(AlgebraicNumber.from_rational(1), 0)
