"""Fuzz of the polarization decision against planned verdicts.

A random map almost never preserves a cone, so each strategy builds maps
that do, with a planned status and, when polarized, a planned q:

- simplicial: a `generate_cone_instance` map conjugated by an invertible P
  (entries sometimes 100 digits long), so P M P^-1 acts on cone(P gens);
- proper span: such an instance on the first d coordinates of Q^(d+k),
  beside an invertible transverse block;
- psd(2): the congruence X -> c B X B^T with B = k S R S^-1, where R of
  finite order or a reflection is polarized at q = c k^2, a shear or
  diag(2, 1/2) is not polarized, and [[2, 1], [1, 1]] is irrational-only.

The oracle reads every verdict: the status is the plan; a certificate has
the planned q, passes `certificate_failures`, and its witness is a strictly
interior q-eigenvector; an irrational-only refusal names a minimal
polynomial that divides the span characteristic polynomial; and the same
map run as a scenario reports the same status and q.
"""
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conecert import dynamics
from conecert.cones import build_cone, psd_cone_oracle
from conecert.dynamics import (
    ConeMap,
    PolarizationStatus,
    certificate_failures,
    decide_polarization,
)
from conecert.exactalg import QMatrix, roots_with_multiplicity, vec_scale
from conecert.report import exact
from conecert.scenarios import run_scenario
from conecert.selftest import generate_cone_instance

EXAMPLES = 10
FUZZ = settings(max_examples=EXAMPLES, derandomize=True, deadline=None)

PLANS = {"polarized": PolarizationStatus.POLARIZED,
         "mismatched": PolarizationStatus.NOT_POLARIZED,
         "irrational": PolarizationStatus.IRRATIONAL_ONLY}
SCENARIO_STATUS = {PolarizationStatus.POLARIZED: "polarized",
                   PolarizationStatus.NOT_POLARIZED: "not_polarized",
                   PolarizationStatus.IRRATIONAL_ONLY: "irrational_candidate_only"}

entries = st.one_of(st.integers(-3, 3), st.integers(-10 ** 100, 10 ** 100))


@st.composite
def invertible(draw, n: int, elements=entries) -> QMatrix:
    rows = draw(st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)
                .filter(lambda rows: QMatrix.from_rows(rows).det() != 0))
    return QMatrix.from_rows(rows)


@st.composite
def planned_instance(draw, kind: str):
    """A `generate_cone_instance` of the kind, from a drawn seed and dimension."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    dim = draw(st.integers(2, 4))
    while True:
        inst = generate_cone_instance(rng, dim)
        if inst.kind == kind:
            return inst


@st.composite
def simplicial_maps(draw, kind: str):
    """(matrix, cone, planned q): the instance conjugated by a drawn P."""
    inst = draw(planned_instance(kind))
    p = draw(invertible(inst.matrix.rows))
    gens = [p.apply(g) for g in inst.cone.generators]
    return p * inst.matrix * p.inverse(), build_cone(gens), inst.expected_q


@st.composite
def proper_span_maps(draw, kind: str):
    """(matrix, cone, planned q): the instance beside a transverse block."""
    inst = draw(planned_instance(kind))
    d, k = inst.matrix.rows, draw(st.integers(1, 2))
    t = draw(invertible(k, st.integers(-3, 3)))
    rows = ([list(inst.matrix.row(i)) + [0] * k for i in range(d)]
            + [[0] * d + list(t.row(i)) for i in range(k)])
    gens = [list(g) + [0] * k for g in inst.cone.generators]
    return QMatrix.from_rows(rows), build_cone(gens), inst.expected_q


def _congruence(b: QMatrix) -> QMatrix:
    """X -> B X B^T on the coordinates (a, b, c) of [[a, b], [b, c]]."""
    (p, q), (r, s) = b.row(0), b.row(1)
    return QMatrix.from_rows([[p * p, 2 * p * q, q * q],
                              [p * r, p * s + q * r, q * s],
                              [r * r, 2 * r * s, s * s]])


PSD_CORES = {
    "polarized": ([[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[0, -1], [1, 0]],
                  [[0, -1], [1, -1]], [[1, -1], [1, 0]], [[1, 0], [0, -1]]),
    "mismatched": ([[1, 1], [0, 1]], [[2, 0], [0, Fraction(1, 2)]]),
    "irrational": ([[2, 1], [1, 1]],),
}


@st.composite
def psd_maps(draw, kind: str):
    """(matrix, psd(2), planned q) for X -> c B X B^T, B = k S R S^-1."""
    r = QMatrix.from_rows(draw(st.sampled_from(PSD_CORES[kind])))
    s = draw(invertible(2))
    k = draw(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4))
    c = draw(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4))
    b = (s * r * s.inverse()).scale(k)
    q = c * k * k if kind == "polarized" else None
    return _congruence(b).scale(c), psd_cone_oracle(2), q


def _scenario(matrix: QMatrix, cone) -> dict:
    spec = ({"type": "psd", "size": 2} if cone.kind == "psd(2)"
            else {"type": "polyhedral", "generators": [[str(x) for x in g]
                                                      for g in cone.generators]})
    return {"schema_version": "1", "kind": "cone_dynamics",
            "payload": {"matrix": [[str(x) for x in matrix.row(i)]
                                   for i in range(matrix.rows)], "cone": spec}}


def _check(kind: str, case) -> None:
    matrix, cone, planned_q = case
    cm = ConeMap.create(matrix, cone)
    result = decide_polarization(cm)
    assert result.status is PLANS[kind]
    report = run_scenario(_scenario(matrix, cone))
    assert report["verdicts"]["status"] == SCENARIO_STATUS[result.status]
    if result.status is PolarizationStatus.POLARIZED:
        cert = result.certificate
        assert cert.q == planned_q
        m_eff = dynamics._effective_map(cm)[0]
        assert certificate_failures(cm.matrix, m_eff, cert) == []
        assert cone.strictly_contains(cert.witness)
        assert matrix.apply(cert.witness) == vec_scale(cert.witness, cert.q)
        assert report["data"]["q"] == exact(cert.q)
    else:
        assert result.certificate is None and "q" not in report["data"]
    if result.status is PolarizationStatus.IRRATIONAL_ONLY:
        minpoly = result.candidate_minpoly(roots_with_multiplicity(cm.char_poly))
        assert minpoly is not None
        assert (result.span_char_poly % minpoly).is_zero


@FUZZ
@given(simplicial_maps("polarized"))
def test_simplicial_polarized(case):
    _check("polarized", case)


@FUZZ
@given(simplicial_maps("mismatched"))
def test_simplicial_not_polarized(case):
    _check("mismatched", case)


@FUZZ
@given(simplicial_maps("irrational"))
def test_simplicial_irrational_only(case):
    _check("irrational", case)


@FUZZ
@given(proper_span_maps("polarized"))
def test_proper_span_polarized(case):
    _check("polarized", case)


@FUZZ
@given(proper_span_maps("mismatched"))
def test_proper_span_not_polarized(case):
    _check("mismatched", case)


@FUZZ
@given(proper_span_maps("irrational"))
def test_proper_span_irrational_only(case):
    _check("irrational", case)


@FUZZ
@given(psd_maps("polarized"))
def test_psd2_polarized(case):
    _check("polarized", case)


@FUZZ
@given(psd_maps("mismatched"))
def test_psd2_not_polarized(case):
    _check("mismatched", case)


@FUZZ
@given(psd_maps("irrational"))
def test_psd2_irrational_only(case):
    _check("irrational", case)
