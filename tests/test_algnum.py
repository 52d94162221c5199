import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.errors import PreconditionViolatedError, ZeroPolynomialError
from conecert.exactalg import (
    AlgebraicNumber,
    QPoly,
    factor_rational,
    has_positive_irrational_root,
    modulus_equals,
    roots_with_multiplicity,
)
from conecert.exactalg.algnum import ISOLATION_WIDTH

SPECTRUM_POLY = QPoly([-216, -12, 2, 1])  # (t - 6)(t^2 + 8t + 36)


def _refined(root, width):
    """Bisect the root's box with `refine` until both sides are at most width."""
    while max(root.box[1] - root.box[0], root.box[3] - root.box[2]) > width:
        root = root.refine()
    return root


def _has_signed_sqrt(lo, hi, sign, n):
    """Whether sign * sqrt(n) lies in [lo, hi], decided exactly."""
    if sign < 0:
        lo, hi = -hi, -lo
    return (lo <= 0 or lo * lo <= n) and hi >= 0 and hi * hi >= n


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


def test_algebraic_number_is_a_value():
    p = QPoly([-2, 0, 1])
    root = AlgebraicNumber(p, (1, 2, 0, 0), 1)
    same = AlgebraicNumber(QPoly([-2, 0, 1]), (Fraction(1), Fraction(2), 0, 0), True)
    assert root == same and hash(root) == hash(same)
    assert root.box == (Fraction(1), Fraction(2), Fraction(0), Fraction(0))
    assert all(type(c) is Fraction for c in root.box)
    assert root.is_real is True
    assert root != AlgebraicNumber(p, (1, Fraction(3, 2), 0, 0), True)
    assert root != AlgebraicNumber(p, (1, 2, 0, 0), False)
    assert len({root, same, AlgebraicNumber(p, (-2, -1, 0, 0), True)}) == 2
    for name, value in (("minpoly", p), ("box", (0, 1, 0, 0)), ("is_real", False)):
        with pytest.raises(AttributeError):
            setattr(root, name, value)
    assert repr(AlgebraicNumber.from_rational(Fraction(3, 2))) == "AlgebraicNumber(3/2)"


def test_refinement_nests_and_shrinks():
    root = next(r for r, _ in roots_with_multiplicity(SPECTRUM_POLY)
                if not r.is_real)
    start = root
    while root.box[1] - root.box[0] > Fraction(1, 10 ** 6):
        finer = root.refine()
        a, b, c, d = root.box
        a2, b2, c2, d2 = finer.box
        assert a <= a2 <= b2 <= b and c <= c2 <= d2 <= d
        assert (b2 - a2) * (d2 - c2) < (b - a) * (d - c)
        root = finer
    assert root.minpoly == start.minpoly and not root.is_real
    z = root.approx()
    assert abs(z.real - (-4.0)) < 1e-5
    assert abs(abs(z.imag) - 4.47213595) < 1e-5


def test_real_root_refinement():
    root = next(r for r, _ in roots_with_multiplicity(QPoly([-2, 0, 1]))
                if r.box[0] > 0)
    refined = _refined(root, Fraction(1, 10 ** 9))
    assert root.box[0] <= refined.box[0] <= refined.box[1] <= root.box[1]
    assert abs(refined.approx().real - 2 ** 0.5) < 1e-8


def test_boxes_at_isolation_width():
    assert ISOLATION_WIDTH == Fraction(1, 4096)
    roots = [r for r, _ in roots_with_multiplicity(SPECTRUM_POLY)]
    roots += [r for r, _ in roots_with_multiplicity(QPoly([-2, 0, 1]))]
    for root in roots:
        a, b, c, d = root.box
        assert b - a <= ISOLATION_WIDTH and d - c <= ISOLATION_WIDTH
    six, low, high, minus_sqrt2, sqrt2 = roots
    assert six.box == (6, 6, 0, 0)
    # -4 -+ 2 sqrt(5) i: the negative-imaginary member comes first
    for root, sign in ((low, -1), (high, 1)):
        a, b, c, d = root.box
        assert a <= -4 <= b and _has_signed_sqrt(c, d, sign, 20)
    for root, sign in ((minus_sqrt2, -1), (sqrt2, 1)):
        assert root.is_real and _has_signed_sqrt(root.box[0], root.box[1], sign, 2)


def _real_roots(p):
    return [(r, m) for r, m in roots_with_multiplicity(p) if r.is_real]


def test_real_roots_skip_complex_ones():
    assert [r.rational_value for r, _ in _real_roots(SPECTRUM_POLY)] == [6]
    cubed = _real_roots(QPoly([-2, 0, 1]) ** 3)
    assert [m for _, m in cubed] == [3, 3]
    with pytest.raises(ZeroPolynomialError):
        roots_with_multiplicity(QPoly([]))


def test_root_near_zero_interval_keeps_its_sign():
    # 1000 t^2 - 1 has roots +-1/sqrt(1000), about +-0.0316, inside one
    # isolation width of 1/16 around 0
    roots = [r for r, _ in _real_roots(QPoly([-1, 0, 1000]))]
    assert len(roots) == 2
    negative, positive = roots
    assert negative.box[1] <= 0 <= positive.box[0]


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
        refined = _refined(root, Fraction(1, 1 << 20))
        z = refined.approx()
        value = complex(0)
        for c in reversed(root.minpoly.coeffs):
            value = value * z + complex(float(c))
        assert abs(value) < 1e-3


def _sympy_factor_list(p: QPoly) -> list[tuple[QPoly, int]]:
    """The reference: sympy's Poly.factor_list, content-normalized and sorted."""
    from sympy import Poly, Symbol
    _, factors = Poly(list(reversed(p.coeffs)), Symbol("t"), domain="QQ").factor_list()
    out = [(QPoly([Fraction(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())])
            .content_normalized(), mult) for fac, mult in factors]
    return sorted(out, key=lambda fm: (fm[0].degree, fm[0].coeffs))


def _random_factored(rng: random.Random) -> QPoly:
    """A seeded product of rational roots (zero and repeated ones included,
    denominators up to 10^3) and random integer factors of degree 2 to 5."""
    p = QPoly([Fraction(rng.randint(1, 1000), rng.choice([1, 7]))])
    for _ in range(rng.randint(0, 4)):
        root = 0 if rng.random() < 0.15 else Fraction(
            rng.randint(-30, 30), rng.choice([1, 2, 3, rng.randint(1, 1000)]))
        p = p * QPoly.linear_root(root) ** rng.randint(1, 3)
    for _ in range(rng.randint(0, 2)):
        degree = rng.randint(2, 5)
        p = p * QPoly([rng.randint(-20, 20) for _ in range(degree)]
                      + [rng.randint(1, 1000)]) ** rng.randint(1, 2)
    return p


def test_factor_rational_matches_sympy():
    rng = random.Random(20261018)
    fixed = [QPoly([0, 0, 1]),                                    # t^2
             QPoly([-3, 1000]) ** 2 * QPoly([1, 0, 1]),           # (1000t - 3)^2 (t^2 + 1)
             QPoly([0, -2, 0, 1]) * QPoly([1, 0, 1]) ** 2,        # t (t^2 - 2) (t^2 + 1)^2
             QPoly([-2, 0, 0, 1]) ** 3,                           # (t^3 - 2)^3
             QPoly([1, 0, 0, 0, 1]),                              # t^4 + 1
             QPoly([-2, 0, 1]) * QPoly([-3, 0, 1]),               # quartic, no rational root
             QPoly([Fraction(1, 6), Fraction(-5, 6), 1])]         # (t - 1/2)(t - 1/3)
    seen = set()
    for p in fixed + [_random_factored(rng) for _ in range(300)]:
        want = _sympy_factor_list(p)
        assert factor_rational(p) == want, p
        linear = [fac for fac, _ in want if fac.degree == 1]
        rest = sum(fac.degree for fac, _ in want if fac.degree > 1)
        seen.add("all rational" if rest == 0 else
                 "no rational root" if not linear else "mixed")
        seen.add(f"cofactor degree {min(rest, 4)}")
        seen.update(tag for tag, hit in (
            ("zero root", QPoly([0, 1]) in linear),
            ("repeated root", any(m > 1 for fac, m in want if fac.degree == 1)),
            ("denominator", any(fac.coeffs[1] > 1 for fac in linear)),
            ("large leading coefficient", p.content_normalized().leading > 100)) if hit)
    assert seen >= {"all rational", "no rational root", "mixed", "cofactor degree 2",
                    "cofactor degree 3", "cofactor degree 4", "zero root", "repeated root",
                    "denominator", "large leading coefficient"}


def test_modulus_equals_spectrum():
    assert modulus_equals(SPECTRUM_POLY, 6)
    assert not modulus_equals(SPECTRUM_POLY, 5)
    assert not modulus_equals(SPECTRUM_POLY, Fraction(13, 2))


def test_modulus_rational_cases():
    # rotations scaled by Pythagorean triples: 3 +- 4i and 5 +- 12i
    assert modulus_equals(QPoly([25, -6, 1]), 5)
    assert modulus_equals(QPoly([169, -10, 1]), 13)
    assert modulus_equals(QPoly([9, 0, 4]), Fraction(3, 2))
    assert modulus_equals(QPoly([-4, 0, 1]), 2)
    assert modulus_equals(QPoly([-2, 1]) * QPoly([4, 0, 1]), 2)


def test_modulus_gaussian_like():
    # roots of t^2 - 2t + 2 are 1 +- i, modulus sqrt 2
    assert not modulus_equals(QPoly([2, -2, 1]), 1)


def test_modulus_real_irrational_is_never_rational():
    assert not modulus_equals(QPoly([-2, 0, 1]), 1)
    assert not modulus_equals(QPoly([-2, 0, 1]), 2)
    # reciprocal, but its roots (3 +- sqrt 5) / 2 are real and off the circle
    assert not modulus_equals(QPoly([1, -3, 1]), 1)


def test_modulus_higher_degree():
    # t^4 - 16 has roots +-2 and +-2i; t^3 - 8 has 2 and 2 e^{+-2 pi i / 3}
    assert modulus_equals(QPoly([-16, 0, 0, 0, 1]), 2)
    assert not modulus_equals(QPoly([-16, 0, 0, 0, 1]), 3)
    assert modulus_equals(QPoly([-8, 0, 0, 1]), 2)
    # irreducible cubic t^3 - t - 1: a real root near 1.32, complex roots below 1
    assert not modulus_equals(QPoly([-1, -1, 0, 1]), 1)


def test_modulus_zero():
    with pytest.raises(ZeroPolynomialError):
        modulus_equals(QPoly([]), 1)
    for q in (0, -2):
        with pytest.raises(PreconditionViolatedError):
            modulus_equals(QPoly([-2, 1]), q)


def _circle_factor(q, kind, k):
    """A factor with every root on |t| = q (on=True), or one with a root off it."""
    if kind == "line":
        return QPoly.linear_root(q if k > 0 else -q), True
    if kind == "pair":
        # t^2 - s t + q^2 with |s| < 2q: conjugate roots of modulus q
        return QPoly([q * q, -q * Fraction(k, 7), 1]), True
    if kind == "off-line":
        return QPoly.linear_root(q + Fraction(abs(k), 3)), False
    # root product c = q^2 + k/2 != q^2; c = -q^2 would need the roots +-q,
    # whose sum 0 is not -k/5
    return QPoly([q * q + Fraction(k, 2), Fraction(k, 5), 1]), False


factor_specs = st.tuples(
    st.sampled_from(("line", "pair", "off-line", "off-pair")),
    st.integers(-13, 13).filter(lambda k: k != 0))


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=Fraction(1, 3), max_value=5, max_denominator=3),
       st.lists(factor_specs, min_size=1, max_size=4, unique=True))
def test_modulus_of_products(q, specs):
    p, all_on = QPoly.one(), True
    for kind, k in specs:
        factor, on = _circle_factor(q, kind, k)
        p, all_on = p * factor, all_on and on
    assert modulus_equals(p, q) == all_on


def test_positive_irrational_root_fixed_cases():
    cases = ((QPoly([-2, 0, 1]), True),
             (QPoly([-2, 1]) * QPoly([-3, 0, 1]), True),          # rational and irrational
             (QPoly([2, 4, 1]), False),                           # -2 -+ sqrt 2
             (QPoly([1, 0, 1]), False),
             (QPoly([-3, 1000]) ** 2 * QPoly([1, 0, 1]), False),
             (QPoly([-1, 0, 1000]), True))                        # 1/sqrt(1000)
    for p, want in cases:
        assert has_positive_irrational_root(p) is want, p


def test_positive_irrational_root_matches_isolation():
    # the Sturm count against the isolated roots the refusal used to read
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(80):
        p = _random_factored(rng)
        if p(0) == 0:
            continue
        want = any(r.is_real and not r.is_rational and r.box[0] >= 0
                   for r, _ in roots_with_multiplicity(p))
        assert has_positive_irrational_root(p) is want, p
        kinds.add(want)
    assert kinds == {True, False}
