import random
from fractions import Fraction
from math import floor, isqrt, prod

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
    rational_roots,
    roots_with_multiplicity,
)
from conecert.exactalg import algnum
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
    with pytest.raises(ZeroPolynomialError):
        rational_roots(QPoly([]))


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
    steps = 0
    while max(root.box[1] - root.box[0], root.box[3] - root.box[2]) > Fraction(1, 10 ** 6):
        finer = root.refine()
        a, b, c, d = root.box
        a2, b2, c2, d2 = finer.box
        assert a <= a2 <= b2 <= b and c <= c2 <= d2 <= d
        assert (b2 - a2) * (d2 - c2) < (b - a) * (d - c)
        root, steps = finer, steps + 1
    assert steps > 0 and root.minpoly == start.minpoly and not root.is_real
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
    # every isolating box holds exactly one root of its minimal polynomial
    for root, _ in roots:
        lo, hi = root.box[:2]
        if root.is_rational:
            assert root.minpoly(lo) == 0
        elif root.is_real:
            assert root.minpoly.count_real_roots(lo, hi) == 1
        else:
            assert _sympy_count_in_box(root.minpoly, root.box) == 1


def _dup(p: QPoly) -> list:
    """p in sympy's dense form over QQ, highest degree first."""
    from sympy.polys.domains import QQ
    return [QQ(c.numerator, c.denominator) for c in reversed(p.coeffs)]


def _sympy_count_in_box(p: QPoly, box) -> int:
    """The reference: sympy's count of the roots of p in a closed box."""
    from sympy.polys.domains import QQ
    from sympy.polys.rootisolation import dup_count_complex_roots
    a, b, c, d = (QQ(x.numerator, x.denominator) for x in box)
    return dup_count_complex_roots(_dup(p), QQ, (a, c), (b, d))


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
             QPoly([Fraction(1, 6), Fraction(-5, 6), 1]),         # (t - 1/2)(t - 1/3)
             QPoly([5])]                                          # a constant
    seen = set()
    for p in fixed + [_random_factored(rng) for _ in range(300)]:
        want = _sympy_factor_list(p)
        assert factor_rational(p) == want, p
        linear = [fac for fac, _ in want if fac.degree == 1]
        # rational_roots: the distinct roots of the linear factors, increasing
        assert rational_roots(p) == sorted(-fac.coeffs[0] / fac.coeffs[1] for fac in linear)
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


def test_complex_root_order_is_pinned():
    """Complex roots sort by the real side of their box, then its lower
    imaginary edge, so conjugate pairs need not be adjacent."""
    cases = {
        QPoly([1, 0, 3, 0, 1]): [(0, -1.618), (0, -0.618), (0, 0.618), (0, 1.618)],
        QPoly([1, 0, 0, 0, 0, 0, 1]): [(-0.866, -0.5), (-0.866, 0.5), (0, -1), (0, 1),
                                       (0.866, -0.5), (0.866, 0.5)],
    }
    for p, want in cases.items():
        roots = roots_with_multiplicity(p)
        assert all(m == 1 and not r.is_real for r, m in roots)
        got = [(round(r.approx().real, 3), round(r.approx().imag, 3)) for r, _ in roots]
        assert got == [(float(a), float(b)) for a, b in want]
        boxes = [(r.box[0], r.box[1], r.box[2]) for r, _ in roots]
        assert boxes == sorted(boxes)


def test_real_roots_increase_across_tied_boxes():
    """Real roots of different factors that isolate to one box (sqrt 2 and
    sqrt 2.00000001), or a rational root inside another factor's box
    (1.4142 beside sqrt 2), are separated before they are sorted."""
    sqrt2, near = QPoly([-2, 0, 1]), QPoly([-200000001, 0, 10 ** 8])
    point = QPoly.linear_root(Fraction(7071, 5000))
    cases = {sqrt2 * near: [near, sqrt2, sqrt2, near],
             sqrt2 * point: [sqrt2, point, sqrt2],
             sqrt2 * near * point: [near, sqrt2, point, sqrt2, near]}
    for p, want in cases.items():
        roots = [r for r, _ in roots_with_multiplicity(p)]
        assert all(r.is_real for r in roots)
        assert [r.minpoly for r in roots] == [f.content_normalized() for f in want]
        for r in roots:
            lo, hi = r.box[:2]
            assert lo == hi or (r.minpoly(lo) * r.minpoly(hi) < 0
                                and r.minpoly.count_real_roots(lo, hi) == 1)
        assert all(a.box[1] <= b.box[0] for a, b in zip(roots, roots[1:]))


def _near_tie(rng: random.Random) -> tuple[QPoly, list[QPoly]]:
    """A product whose real roots share 2^-13 cells, with its factors:
    sqrt k beside one or two of sqrt(k + 10^-8), a root of the cubic
    (t^2 - k)(t - a) + 10^-9 and the non-dyadic rational floor(10^6 sqrt k)
    / 10^6; or a dyadic rational d, a grid point of the bisection, beside
    sqrt(d^2 + 10^-9)."""
    if rng.random() < 0.25:
        d = Fraction(rng.randrange(1, 64, 2), 2 ** rng.randint(1, 6))
        factors = [QPoly.linear_root(d), QPoly([-(d * d + Fraction(1, 10 ** 9)), 0, 1])]
        if rng.random() < 0.5:
            factors.append(QPoly.linear_root(-d))
        return prod(factors, start=QPoly.one()), factors
    k = rng.choice([n for n in range(2, 60) if isqrt(n) ** 2 != n])
    base = QPoly([-k, 0, 1])
    cubic = base * QPoly.linear_root(rng.randint(-3, 1)) + QPoly.constant(Fraction(1, 10 ** 9))
    neighbours = [QPoly([-(k * 10 ** 8 + 1), 0, 10 ** 8]), cubic,
                  QPoly.linear_root(Fraction(isqrt(k * 10 ** 12), 10 ** 6))]
    factors = [base] + rng.sample(neighbours, rng.randint(1, 2))
    return prod(factors, start=QPoly.one()), factors


def _reference_real_order(factors: list[QPoly]) -> list[QPoly]:
    """The minimal polynomial of each real root in increasing order, from
    sympy's isolation of each factor to 10^-30."""
    from sympy.polys.domains import QQ
    from sympy.polys.rootisolation import dup_isolate_real_roots_sqf
    keyed = []
    for f in factors:
        for lo, hi in dup_isolate_real_roots_sqf(_dup(f), QQ, eps=QQ(1, 10 ** 30)):
            keyed.append((Fraction(int(lo.numerator), int(lo.denominator)), f.content_normalized()))
    return [f for _, f in sorted(keyed, key=lambda kf: kf[0])]


def _chained_tie() -> tuple[QPoly, list[QPoly]]:
    """sqrt k, about 2^-15.6 from the roots c -+ 2^-20.5 of one quadratic:
    the coarsest cell that isolates sqrt k is 2^-16 wide, and the pair's
    2^-19, so each root stops at its own level."""
    c = Fraction(3, 2) + Fraction(1, 3 * 2 ** 15)
    factors = [QPoly([c * c - Fraction(1, 2 ** 41), -2 * c, 1]),
               QPoly([-(c + Fraction(1, 50000)) ** 2 - Fraction(1, 10 ** 12), 0, 1])]
    return prod(factors, start=QPoly.one()), factors


def test_near_tie_real_roots_isolate_in_one_pass():
    """Every irrational box is the coarsest dyadic cell on one side of 0
    that is narrower than ISOLATION_WIDTH, isolates its root among all real
    roots and holds no rational root inside; so boxes are disjoint and
    their order is root order."""
    rng = random.Random(20261020)
    shared = 0
    for p, factors in [_near_tie(rng) for _ in range(40)] + [_chained_tie()]:
        assert all(len(rational_roots(f)) == (f.degree == 1) for f in factors), factors
        reals = [r for r, _ in roots_with_multiplicity(p) if r.is_real]
        assert [r.minpoly for r in reals] == _reference_real_order(factors), p
        assert all(a.box[1] <= b.box[0] for a, b in zip(reals, reals[1:])), p
        rationals = [r.rational_value for r in reals if r.is_rational]
        s = prod((f for f in factors if f.degree >= 2), start=QPoly.one())
        for r in reals:
            if r.is_rational:
                continue
            lo, hi = r.box[:2]
            assert hi - lo < ISOLATION_WIDTH and (lo >= 0 or hi <= 0), r
            assert r.minpoly(lo) * r.minpoly(hi) < 0 and r.minpoly.count_real_roots(lo, hi) == 1, r
            assert not any(lo < x < hi for x in rationals), r
            if 2 * (hi - lo) < ISOLATION_WIDTH:
                # the enclosing cell of twice the width holds another root
                parent_lo = floor(lo / (2 * (hi - lo))) * 2 * (hi - lo)
                parent_hi = parent_lo + 2 * (hi - lo)
                assert (s.count_real_roots(parent_lo, parent_hi) > 1
                        or any(parent_lo < x < parent_hi for x in rationals)), r
        cells = [floor(r.box[0] * 2 ** 13) for r in reals]
        shared += len(cells) > len(set(cells))
    assert shared >= 30


def _sympy_roots(p: QPoly) -> list[tuple[QPoly, tuple, bool, int]]:
    """The reference: (minimal polynomial, box, is real, multiplicity) of each
    root of p, with sympy isolating every root of each irreducible factor
    of degree >= 2, in the documented order."""
    from sympy.polys.domains import QQ
    from sympy.polys.rootisolation import dup_isolate_all_roots_sqf

    def frac(x):
        return Fraction(int(x.numerator), int(x.denominator))

    out = []
    for fac, mult in factor_rational(p):
        if fac.degree == 1:
            r = -fac.coeffs[0] / fac.coeffs[1]
            out.append((fac, (r, r, 0, 0), True, mult))
            continue
        reals, complexes = dup_isolate_all_roots_sqf(
            _dup(fac), QQ, eps=QQ(ISOLATION_WIDTH.numerator, ISOLATION_WIDTH.denominator))
        out += [(fac, (frac(lo), frac(hi), 0, 0), True, mult) for lo, hi in reals]
        out += [(fac, (frac(ax), frac(bx), frac(ay), frac(by)), False, mult)
                for (ax, ay), (bx, by) in complexes]
    out.sort(key=lambda r: (not r[2], r[1][0], r[1][1], r[1][2]))
    return out


def _meet(box, other) -> bool:
    return (max(box[0], other[0]) <= min(box[1], other[1])
            and max(box[2], other[2]) <= min(box[3], other[3]))


def _random_spectrum(rng: random.Random) -> QPoly:
    """A seeded random integer quadratic or (one time in sixteen) cubic,
    maybe squared, times up to two rational roots of multiplicity 1 or 2.
    sympy's complex isolation, on both sides for a cubic, sets the test's
    pace."""
    degree = rng.choice((2,) * 15 + (3,))
    p = QPoly([rng.randint(-9, 9) for _ in range(degree)]
              + [rng.randint(1, 9)]) ** rng.choice((1, 1, 2))
    for _ in range(rng.randint(0, 2)):
        root = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        p = p * QPoly.linear_root(root) ** rng.randint(1, 2)
    return p


def test_isolation_matches_sympy():
    """Real boxes from Sturm bisection and quadratic boxes from the closed
    form each provably hold their root and meet sympy's box; complex boxes
    of factors of degree >= 3 are sympy's own; order and multiplicities
    are sympy's."""
    rng = random.Random(20261019)
    fixed = [QPoly([1, -3, 0, 1]),                                # three real roots
             QPoly([-5, 0, 1]) * QPoly([36, 8, 1]),               # the cli quadratics
             QPoly([1, 0, 10 ** 9]),                              # imaginary part 3e-5
             QPoly([10 ** 8 - 2, -2 * 10 ** 8, 10 ** 8]),         # 1 +- 1.4e-4
             QPoly([-2, 0, 4096 ** 2]),                           # +-3.5e-4, split at 0
             QPoly([2, 0, -4, 0, 1]),                             # four real roots
             QPoly([1, 0, 1]) * QPoly([4, 0, 1]),                 # equal real parts
             QPoly([1, -5, 0, 0, 0, 1]) ** 2]                     # 3 real, 2 complex
    seen = set()
    for p in fixed + [_random_spectrum(rng) for _ in range(300)]:
        want = _sympy_roots(p)
        got = roots_with_multiplicity(p)
        assert len(got) == len(want), p
        for (root, mult), (fac, ref_box, ref_real, ref_mult) in zip(got, want):
            assert (root.minpoly, root.is_real, mult) == (fac, ref_real, ref_mult), p
            assert _meet(root.box, ref_box), p
            if fac.degree == 1:
                assert root.box == ref_box
                continue
            lo, hi, im_lo, im_hi = root.box
            assert hi - lo < ISOLATION_WIDTH and im_hi - im_lo < ISOLATION_WIDTH, p
            if root.is_real:
                assert fac(lo) * fac(hi) < 0 and fac.count_real_roots(lo, hi) == 1, p
                assert lo >= 0 or hi <= 0, p
                seen.add(f"real, degree {min(fac.degree, 3)}")
            elif fac.degree == 2:
                c, b, a = fac.coeffs
                low, high = (im_lo, im_hi) if im_lo > 0 else (-im_hi, -im_lo)
                assert lo < -b / (2 * a) < hi and 0 < low, p
                assert low ** 2 < (4 * a * c - b * b) / (4 * a * a) < high ** 2, p
                seen.add("complex, degree 2")
            else:
                assert root.box == ref_box, p
                seen.add("complex, degree 3")
    assert seen == {"real, degree 2", "real, degree 3", "complex, degree 2",
                    "complex, degree 3"}


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
    # the Sturm count against the isolated irrational real roots, each box
    # on one side of 0; only the real roots are isolated, as only they count
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(80):
        p = _random_factored(rng)
        if p(0) == 0:
            continue
        want = any(not r.is_rational and r.box[0] >= 0
                   for r in algnum._real_roots(factor_rational(p)))
        assert has_positive_irrational_root(p) is want, p
        kinds.add(want)
    assert kinds == {True, False}
