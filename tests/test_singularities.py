from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.errors import PreconditionViolatedError, TrivialElementError
from conecert.singularities import (
    CyclicActionElement,
    SingularityVerdict,
    age,
    is_pseudo_reflection,
    product_quotient_report,
    projective_cycle_fixed_data,
)


def test_age_examples():
    assert age(CyclicActionElement(4, 1, (1, 2, 3))) == Fraction(3, 2)
    assert age(CyclicActionElement(4, 2, (1, 2, 3))) == 1
    assert age(CyclicActionElement(9, 5, (0, 0))) == 0


@settings(max_examples=60)
@given(st.integers(2, 12), st.data())
def test_age_inverse_symmetry(m, data):
    k = data.draw(st.integers(1, m - 1))
    weights = tuple(data.draw(st.lists(st.integers(0, m - 1),
                                       min_size=1, max_size=5)))
    e = CyclicActionElement(m, k, weights)
    e_inv = CyclicActionElement(m, m - k, weights)
    nonzero = sum(1 for r in e.residues() if r != 0)
    assert age(e) + age(e_inv) == nonzero


def test_pseudo_reflection_examples():
    assert is_pseudo_reflection(CyclicActionElement(2, 1, (1, 0, 0)))
    assert not is_pseudo_reflection(CyclicActionElement(4, 1, (1, 2, 3)))
    assert not is_pseudo_reflection(CyclicActionElement(4, 2, (1, 2, 3)))
    with pytest.raises(TrivialElementError):
        is_pseudo_reflection(CyclicActionElement(4, 0, (1, 2, 3)))


def test_projective_fixed_data_order_four():
    table = projective_cycle_fixed_data(4)
    assert sorted(table) == [1, 2, 3]
    assert len(table[1]) == 4
    for comp in table[1]:
        assert comp.dim == 0 and comp.weights == (1, 2, 3)
        assert comp.age == Fraction(3, 2)
    assert len(table[2]) == 2
    for comp in table[2]:
        assert comp.dim == 1 and comp.weights == (2, 2) and comp.age == 1
    for comp in table[3]:
        assert comp.age == Fraction(3, 2)


def test_projective_fixed_data_order_two():
    table = projective_cycle_fixed_data(2)
    assert len(table[1]) == 2
    for comp in table[1]:
        assert comp.weights == (1,) and comp.age == Fraction(1, 2)
        assert comp.codim == 1     # a reflection-like fixed hyperplane point


@pytest.mark.parametrize("m", [4, 6])
def test_certified_window_has_canonical_ages_and_no_reflections(m):
    table = projective_cycle_fixed_data(m)
    assert min(c.age for comps in table.values() for c in comps) >= 1
    assert all(c.codim >= 2 for comps in table.values() for c in comps)


def test_golden_product_quotient():
    rep = product_quotient_report(4, 3, 2, (1, 1, 1))
    assert rep.verdict is SingularityVerdict.TERMINAL
    assert rep.age_report.min_age_nontrivial == Fraction(9, 4)
    assert rep.q == 4 and rep.dim_x == 6 and rep.deg_f == 4 ** 6
    assert rep.pseudo_reflection_free and rep.inside_certified_window
    by_power = {}
    for entry in rep.age_report.entries:
        by_power.setdefault(entry.power, set()).add(entry.total_age)
    assert by_power[1] == {Fraction(9, 4)}
    assert by_power[2] == {Fraction(5, 2)}
    assert by_power[3] == {Fraction(15, 4)}


def test_product_quotient_order_six():
    rep = product_quotient_report(6, 1, 2, (1,))
    assert rep.verdict is SingularityVerdict.TERMINAL
    assert rep.q == 4 and rep.dim_x == 6


def test_trivial_group_is_smooth():
    rep = product_quotient_report(1, 0, 2, ())
    assert rep.verdict is SingularityVerdict.SMOOTH
    assert rep.age_report.min_age_nontrivial is None


def test_zero_abelian_contribution_can_drop_below_terminal():
    # weight 2 mod 4 dies on the square of the generator, leaving the bare
    # projective age 1 there: canonical but not terminal
    rep = product_quotient_report(4, 1, 2, (2,))
    assert rep.verdict is SingularityVerdict.CANONICAL
    assert rep.age_report.min_age_nontrivial == 1


def test_age_monotone_in_torus_weights():
    small = product_quotient_report(4, 2, 2, (1, 1))
    large = product_quotient_report(4, 3, 2, (1, 1, 1))
    for k in (1, 2, 3):
        min_small = min(e.total_age for e in small.age_report.entries
                        if e.power == k)
        min_large = min(e.total_age for e in large.age_report.entries
                        if e.power == k)
        assert min_large >= min_small


def test_terminal_implies_canonical_threshold():
    rep = product_quotient_report(4, 3, 2, (1, 1, 1))
    assert rep.verdict is SingularityVerdict.TERMINAL
    assert rep.age_report.min_age_nontrivial >= 1


def test_preconditions():
    with pytest.raises(PreconditionViolatedError):
        product_quotient_report(4, 3, 2, (0, 1, 1))
    with pytest.raises(PreconditionViolatedError):
        product_quotient_report(4, 4, 2, (1, 1, 1, 1))
    with pytest.raises(PreconditionViolatedError):
        product_quotient_report(4, 3, 1, (1, 1, 1))


def test_nonpositive_order_raises_library_error():
    with pytest.raises(PreconditionViolatedError, match="group order must be positive"):
        CyclicActionElement(0, 1, (1,))
