import dataclasses
import itertools
import random
import time
from fractions import Fraction

import pytest

from conecert import cones, dynamics, scenarios
from conecert.cones import (
    Membership,
    build_cone,
    membership,
    minimal_extremal_face,
    psd_cone_oracle,
)
from conecert.dynamics import (
    AbelianInvariantVerdict,
    ConeMap,
    PolarizationStatus,
    abelian_invariant_check,
    certificate_failures,
    decide_polarization,
    integer_nth_root,
    interior_eigenvector,
    is_power_bounded,
    product_endo_degree,
    product_formula_check,
    q_from_degree,
    restricted_degree,
)
from conecert.errors import (
    DimensionMismatchError,
    InternalCheckError,
    InvarianceNotVerifiedError,
    NoIntegerRootError,
    NotPowerBoundedError,
    PreconditionViolatedError,
    SingularMatrixError,
)
from conecert.exactalg import (
    QMatrix,
    QPoly,
    char_poly,
    min_poly,
    modulus_equals,
    qmatrix,
    roots_with_multiplicity,
)
from conecert.scenarios import run_scenario
from conecert.selftest import CaseOutcome, run_projector_identities
from test_qpoly import euclid_gcd

PULLBACK_3X3 = QMatrix.from_rows([[1, 2, 1], [-5, -4, 1], [25, -10, 1]])
SWAP2 = QMatrix.from_rows([[0, 2], [2, 0]])


@pytest.fixture
def quadrant():
    return build_cone([[1, 0], [0, 1]])


def test_verify_invariance(quadrant):
    assert ConeMap.create(QMatrix.identity(2), quadrant).invariance == "generators-exact"
    assert ConeMap.create(SWAP2, quadrant).invariance == "generators-exact"
    assert ConeMap.create(QMatrix.from_rows([[1, -1], [0, 1]]), quadrant).invariance is None
    with pytest.raises(SingularMatrixError, match="cone map must be invertible"):
        ConeMap.create(QMatrix.zeros(2, 2), quadrant)


@pytest.mark.parametrize("cone", [build_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                                  psd_cone_oracle(2)], ids=["octant", "psd2"])
def test_create_checks_the_map_size_against_the_cone(cone):
    with pytest.raises(DimensionMismatchError, match="map must be square"):
        ConeMap.create(QMatrix(3, 4, range(12)), cone)
    with pytest.raises(DimensionMismatchError, match="map and cone dimensions differ"):
        ConeMap.create(QMatrix.identity(2), cone)


def _maps_both_ways_into(m, cone):
    """The reference criterion: m and its inverse map every generator into the cone."""
    minv = m.inverse()
    return all(membership(cone, x.apply(g)) is not Membership.OUTSIDE
               for g in cone.generators for x in (m, minv))


def _signed_permutations(n):
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield QMatrix(n, n, [signs[i] if perm[i] == j else 0
                                 for i in range(n) for j in range(n)])


def test_ray_permutation_agrees_with_generator_images():
    """Invariance read off the extreme rays agrees with the reference that
    maps every generator both ways, on cone symmetries and non-symmetries."""
    square = build_cone([(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1), (2, 0, 0)])
    cube = build_cone([(1, *s) for s in itertools.product((1, -1), repeat=3)])
    embedded = build_cone([(*g, 0) for g in square.generators])
    quadrant = build_cone([[1, 0], [0, 1]])
    cases = []
    for cone, n in ((square, 3), (cube, 4)):
        cases += [(p.scale(c), cone) for p in _signed_permutations(n)
                  for c in (1, 2, Fraction(1, 3))]
    # the square cone in Q^4: transverse scaling and a shear into the span
    # keep the span, a shear out of it does not
    for p in _signed_permutations(3):
        for s, v, w in ((2, (0, 0, 0), (0, 0, 0)), (Fraction(-1, 3), (1, 2, 0), (0, 0, 0)),
                        (1, (0, 0, 0), (0, 1, 0))):
            rows = [list(p.row(i)) + [v[i]] for i in range(3)] + [list(w) + [s]]
            cases.append((QMatrix.from_rows(rows), embedded))
    rng = random.Random(4096)
    for cone in (square, cube, embedded, quadrant):
        n = cone.ambient_dim
        for _ in range(300):
            m = QMatrix(n, n, [rng.randrange(-2, 3) for _ in range(n * n)])
            if m.det() != 0:
                cases.append((m, cone))
    # these send the quadrant strictly into itself, so their inverses leave it
    cases += [(QMatrix.from_rows(rows), quadrant) for rows in ([[1, 1], [0, 1]],
                                                               [[2, 1], [1, 2]])]
    preserved = 0
    for m, cone in cases:
        expected = _maps_both_ways_into(m, cone)
        assert ConeMap.create(m, cone).invariance_checked == expected, (m, cone.generators)
        preserved += expected
    assert preserved > 150 and len(cases) - preserved > 1000


def test_polyhedral_invariance_needs_no_inverse_or_membership(quadrant, monkeypatch):
    """Polyhedral invariance compares extreme rays with their images, so
    creating a cone map inverts nothing and tests no membership."""
    square = build_cone([(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)])
    ray = build_cone([[1, 1]])
    calls = []
    inverse, member = QMatrix.inverse, cones.membership
    monkeypatch.setattr(QMatrix, "inverse", lambda m: calls.append("inverse") or inverse(m))

    def counting(c, x):
        calls.append("membership")
        return member(c, x)

    # a copy imported by name into dynamics would escape the first patch
    monkeypatch.setattr(cones, "membership", counting)
    monkeypatch.setattr(dynamics, "membership", counting, raising=False)
    for m, cone in ((SWAP2, quadrant), (QMatrix.from_rows([[1, -1], [0, 1]]), quadrant),
                    (QMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, -1, 0]]), square),
                    (SWAP2, ray)):
        ConeMap.create(m, cone)
    assert calls == []


def test_polarized_decision_evaluates_one_matrix_polynomial(quadrant, monkeypatch):
    """r(M) = 0 and the projector both come from the one g(M)."""
    calls = []
    evaluate = qmatrix.evaluate_poly_at_matrix

    def counting(p, m):
        calls.append(p)
        return evaluate(p, m)

    for module in (dynamics, qmatrix):
        monkeypatch.setattr(module, "evaluate_poly_at_matrix", counting)
    for m, cone in ((SWAP2, quadrant), (PULLBACK_3X3, psd_cone_oracle(2))):
        calls.clear()
        assert decide_polarization(ConeMap.create(m, cone)).is_polarized
        assert len(calls) == 1


def test_polyhedral_cone_map_needs_no_determinant(quadrant, monkeypatch):
    """The singularity check reads char(M)'s constant term, so creating a
    polyhedral cone map runs no separate determinant elimination."""
    calls = []
    det = QMatrix.det
    monkeypatch.setattr(QMatrix, "det", lambda m: calls.append(m) or det(m))
    cm = ConeMap.create(SWAP2, quadrant)
    assert cm.invariance == "generators-exact" and calls == []
    with pytest.raises(SingularMatrixError, match="cone map must be invertible"):
        ConeMap.create(QMatrix.from_rows([[1, 1], [1, 1]]), quadrant)
    assert calls == []


def test_power_boundedness():
    assert is_power_bounded(QMatrix.identity(3), 1)
    assert not is_power_bounded(QMatrix.from_rows([[1, 1], [0, 1]]), 1)
    assert not is_power_bounded(QMatrix.from_rows([[2, 0], [0, 1]]), 2)
    assert is_power_bounded(PULLBACK_3X3, 6)
    assert not is_power_bounded(PULLBACK_3X3, 5)
    assert is_power_bounded(QMatrix.from_rows([[3, -4], [4, 3]]), 5)


def _block_diagonal(blocks):
    n = sum(b.rows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    base = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.rows):
                rows[base + i][base + j] = b.entry(i, j)
        base += b.rows
    return QMatrix.from_rows(rows)


def test_power_boundedness_matches_min_poly_reference():
    # min_poly is the independent reference here: m / q is power bounded
    # exactly when the minimal polynomial is square free with every root of
    # modulus q. Blocks are scalars and Jordan blocks at +-q0 or off it, and
    # rotations of modulus q0 or sqrt 2, conjugated by a random integer matrix.
    rng = random.Random(1858)
    rotations = {1: (0, 1), 2: (0, 2), 5: (3, 4)}
    bounded = 0
    for _ in range(150):
        q0 = rng.choice([1, 2, 5])
        blocks, eigenvalues = [], set()
        size, target = 0, rng.randrange(1, 5)
        while size < target:
            kind = rng.choice(["scalar", "jordan", "rotation", "off"])
            if kind == "rotation":
                a, b = rng.choice([rotations[q0], (1, 1)])
                blocks.append(QMatrix.from_rows([[a, -b], [b, a]]))
            else:
                lam = rng.choice([q0, -q0]) if kind != "off" else rng.choice(
                    [Fraction(q0, 2), q0 + 1, -q0 - 1])
                k = 2 if kind == "jordan" else 1
                blocks.append(QMatrix.from_rows(
                    [[lam if i == j else int(j == i + 1) for j in range(k)]
                     for i in range(k)]))
                eigenvalues.add(Fraction(lam))
            size += blocks[-1].rows
        s = _random_invertible(rng, size, lambda: rng.randrange(-2, 3))
        m = s * _block_diagonal(blocks) * s.inverse()
        mu = min_poly(m)
        square_free = euclid_gcd(mu, mu.derivative()).degree == 0
        for q in {e for e in eigenvalues if e > 0} | {Fraction(1)}:
            expected = square_free and modulus_equals(mu, q)
            assert is_power_bounded(m, q) == expected, (m, q)
            bounded += expected
    assert bounded > 20


def test_power_boundedness_inverse_relation():
    for m, q in ((PULLBACK_3X3, Fraction(6)), (SWAP2, Fraction(2)),
                 (QMatrix.identity(2).scale(Fraction(3, 2)), Fraction(3, 2))):
        assert is_power_bounded(m, q) == is_power_bounded(m.inverse(), 1 / q)


def test_interior_eigenvector_examples(quadrant):
    cm = ConeMap.create(QMatrix.identity(2).scale(2), quadrant)
    assert interior_eigenvector(cm, 2) == (1, 1)
    cm = ConeMap.create(SWAP2, quadrant)
    assert interior_eigenvector(cm, 2) == (1, 1)
    with pytest.raises(NotPowerBoundedError):
        interior_eigenvector(cm, 3)


def test_interior_eigenvector_requires_invariance(quadrant):
    bad = ConeMap.create(QMatrix.from_rows([[1, -1], [0, 1]]), quadrant)
    assert bad.invariance is None
    with pytest.raises(InvarianceNotVerifiedError):
        interior_eigenvector(bad, 1)
    with pytest.raises(InvarianceNotVerifiedError):
        decide_polarization(bad)


def test_decide_not_polarized(quadrant):
    # in diag(1, 4) the det root 2 is not an eigenvalue
    for rows in ([[2, 0], [0, 3]], [[1, 0], [0, 4]]):
        result = decide_polarization(ConeMap.create(QMatrix.from_rows(rows), quadrant))
        assert result.status is PolarizationStatus.NOT_POLARIZED


def test_decide_polarized_swap(quadrant):
    result = decide_polarization(ConeMap.create(SWAP2, quadrant))
    assert result.is_polarized
    cert = result.certificate
    assert cert.q == 2 and cert.witness == (1, 1)
    assert cert.q_is_integer
    assert cert.invariance == "generators-exact"


def test_decide_polarized_psd_oracle():
    result = decide_polarization(ConeMap.create(PULLBACK_3X3, psd_cone_oracle(2)))
    assert result.is_polarized
    cert = result.certificate
    assert cert.q == 6
    assert cert.witness == (1, 0, 5)
    assert cert.invariance == "congruence-exact"
    assert cert.cone_kind == "psd(2)"


def test_scaling_covariance():
    oracle = psd_cone_oracle(2)
    base = decide_polarization(ConeMap.create(PULLBACK_3X3, oracle)).certificate
    for lam in (Fraction(3), Fraction(1, 2)):
        scaled = decide_polarization(
            ConeMap.create(PULLBACK_3X3.scale(lam), oracle)).certificate
        assert scaled.q == base.q * lam
        assert scaled.witness == base.witness
    quarter = decide_polarization(
        ConeMap.create(PULLBACK_3X3.scale(Fraction(1, 4)), oracle)).certificate
    assert quarter.q == Fraction(3, 2)
    assert not quarter.q_is_integer


def test_irrational_candidate_surfaced(quadrant):
    orthant = build_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # the second map has eigenvalues +-sqrt 3 and 2, and is not bounded at 2;
    # the third has eigenvalues +-1/sqrt(1000), well inside 1/16 of 0; the
    # fourth acts on cone(e1, e2) in Q^4 by +-sqrt 3 and transversally by
    # +-sqrt 2, so only t^2 - 3 may be named
    block = [[0, 3, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]
    for rows, cone, minpoly in (([[0, 2], [1, 0]], quadrant, (-2, 0, 1)),
                                ([[0, 3, 0], [1, 0, 0], [0, 0, 2]], orthant, (-3, 0, 1)),
                                ([[0, Fraction(1, 1000)], [1, 0]], quadrant, (-1, 0, 1000)),
                                (block, build_cone([[1, 0, 0, 0], [0, 1, 0, 0]]),
                                 (-3, 0, 1))):
        cm = ConeMap.create(QMatrix.from_rows(rows), cone)
        result = decide_polarization(cm)
        assert result.status is PolarizationStatus.IRRATIONAL_ONLY
        roots = roots_with_multiplicity(cm.char_poly)
        assert result.candidate_minpoly(roots).coeffs == minpoly


def test_jordan_block_automorphism_is_not_polarized():
    # X -> A X A^T for the shear A = [[1, 1], [0, 1]] carries psd(2) onto
    # itself, but its char poly (t - 1)^3 has square-free part r = t - 1 and
    # r(m) != 0: a Jordan block, so the iterates grow
    shear = QMatrix.from_rows([[1, 2, 1], [0, 1, 1], [0, 0, 1]])
    cm = ConeMap.create(shear, psd_cone_oracle(2))
    assert cm.invariance == "congruence-exact"
    assert cm.char_poly == QPoly([-1, 3, -3, 1])
    assert not is_power_bounded(shear, 1)
    result = decide_polarization(cm)
    assert result.status is PolarizationStatus.NOT_POLARIZED


def test_span_restricted_cone_map():
    ray = build_cone([[1, 1]])
    result = decide_polarization(ConeMap.create(SWAP2, ray))
    assert result.is_polarized
    cert = result.certificate
    assert cert.q == 2 and cert.witness == (1, 1)
    assert cert.transverse_char_poly is not None
    assert cert.transverse_char_poly.coeffs == (2, 1)  # the off-span eigenvalue -2


SQUARE_RAYS = [(1, 1, 1), (1, 1, -1), (1, -1, -1), (1, -1, 1)]


def _proper_span_maps(rng, count):
    """Seeded maps M = S B S^-1 on Q^n with a cone S C, C in the first d < n
    coordinates, and B = [[A, X], [0, D]] for an automorphism A of C.

    A is q times a cyclic shift of a simplicial C (polarized), a diagonal
    map with two distinct weights (not polarized), a 2-cycle of weights 1
    and 2 (a sqrt(2) eigenvalue: irrational candidate only), or q times a
    quarter turn of the square cone in d = 3. Yields (intent, M, generators).
    """
    out = []
    while len(out) < count:
        n = rng.randrange(2, 7)
        d = rng.randrange(1, n)
        intent = rng.choice(["polarized", "not_polarized", "irrational", "square"])
        q = rng.randrange(1, 4)
        shift = [[int(i == (j + 1) % d) for j in range(d)] for i in range(d)]
        if intent == "square" and d == 3:
            local = SQUARE_RAYS
            a = [[q, 0, 0], [0, 0, -q], [0, q, 0]]
        elif intent == "not_polarized" and d >= 2:
            local = [[int(i == j) for j in range(d)] for i in range(d)]
            a = [[(2 + (i == 0)) * (i == j) for j in range(d)] for i in range(d)]
        elif intent == "irrational" and d >= 2:
            local = [[int(i == j) for j in range(d)] for i in range(d)]
            a = [[int(i == j) * q for j in range(d)] for i in range(d)]
            a[0][0] = a[1][1] = 0
            a[0][1], a[1][0] = 2 * q, q
        else:
            intent = "polarized"
            local = [[int(i == j) for j in range(d)] for i in range(d)]
            a = [[q * x for x in row] for row in shift]
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i < d and j < d:
                    b[i][j] = a[i][j]
                elif j >= d and (i < j or i == j):
                    b[i][j] = rng.choice([-2, -1, 1, 2]) if i == j else rng.randrange(-2, 3)
        s = QMatrix.from_rows([[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)])
        if s.det() == 0:
            continue
        m = s * QMatrix.from_rows(b) * s.inverse()
        gens = [s.apply(list(g) + [0] * (n - d)) for g in local]
        out.append((intent, m, [[int(x) for x in g] for g in gens]))
    return out


def test_no_elimination_after_the_cone_build(monkeypatch):
    """Span coordinates are read at the pivot columns, so on proper-span
    cones no decision and no cone query runs an elimination once
    `build_cone` has returned."""
    calls, armed = [], []
    echelon, solve, build = QMatrix._echelon, QMatrix.solve, scenarios.build_cone

    def spy(name, method):
        def counting(self, *args):
            if armed:
                calls.append(name)
            return method(self, *args)
        return counting

    def building(*args, **kwargs):
        armed.clear()
        cone = build(*args, **kwargs)
        armed.append(True)
        return cone

    monkeypatch.setattr(QMatrix, "_echelon", spy("_echelon", echelon))
    monkeypatch.setattr(QMatrix, "solve", spy("solve", solve))
    monkeypatch.setattr(scenarios, "build_cone", building)
    seen = set()
    for intent, m, gens in _proper_span_maps(random.Random(20261019), 40):
        armed.clear()
        cone = build_cone(gens)
        assert cone.dim < cone.ambient_dim
        armed.append(True)
        cm = ConeMap.create(m, cone)
        assert cm.invariance_checked
        assert all(membership(cone, g) is not Membership.OUTSIDE for g in gens)
        assert membership(cone, cone.interior_sample()) is Membership.INTERIOR
        assert minimal_extremal_face(cone, gens[:1]).generator_indices
        status = decide_polarization(cm).status.value
        if status == "irrational_only":
            status = "irrational_candidate_only"
        doc = {"schema_version": "1", "kind": "cone_dynamics",
               "payload": {"matrix": [[str(x) for x in m.row(i)] for i in range(m.rows)],
                           "cone": {"type": "polyhedral", "generators": gens}}}
        assert run_scenario(doc)["verdicts"]["status"] == status
        seen.add((intent, status))
        assert calls == [], (intent, calls)
    assert seen == {("polarized", "polarized"), ("square", "polarized"),
                    ("not_polarized", "not_polarized"),
                    ("irrational", "irrational_candidate_only")}


def test_psd_congruence_test_rejects_non_preserving_map():
    # diag(1, 1, -1) on (a, b, c) coordinates flips the second diagonal
    # entry, sending the identity form to an indefinite one
    flip = QMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    cm = ConeMap.create(flip, psd_cone_oracle(2))
    assert not cm.invariance_checked
    with pytest.raises(InvarianceNotVerifiedError):
        decide_polarization(cm)


def test_psd_map_accepted_by_a_point_battery_is_rejected():
    # a sampled battery of 32 points B^T B accepted this map, yet its inverse
    # sends the PSD point (1, -43/44, 1849/1936) off the cone
    m = QMatrix.from_rows([[27, Fraction(-55, 3), 3], [-9, 12, -3], [3, -6, 3]])
    oracle = psd_cone_oracle(2)
    point = (1, Fraction(-43, 44), Fraction(1849, 1936))
    assert oracle.contains(point)
    assert not oracle.contains(m.inverse().apply(point))
    assert not ConeMap.create(m, oracle).invariance_checked


def _pairs(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _flatten(x):
    return tuple(x.entry(i, j) for i, j in _pairs(x.rows))


def _battery_accepts(m, n, rng, count=32):
    """The sampled test the exact one replaced: m and its inverse keep the
    identity and `count` random points B^T B inside psd(n)."""
    oracle = psd_cone_oracle(n)
    points = [_flatten(QMatrix.identity(n))]
    for _ in range(count):
        b = QMatrix(n, n, [rng.randrange(-3, 4) for _ in range(n * n)])
        points.append(_flatten(b.transpose() * b))
    minv = m.inverse()
    return all(oracle.contains(m.apply(p)) and oracle.contains(minv.apply(p))
               for p in points)


def _congruence(b, c):
    """X -> c B X B^T on flattened symmetric matrices."""
    n = b.rows
    cols = []
    for i, j in _pairs(n):
        e = [[0] * n for _ in range(n)]
        e[i][j] = e[j][i] = 1
        cols.append(_flatten((b * QMatrix.from_rows(e) * b.transpose()).scale(c)))
    return QMatrix.from_columns(cols)


def _random_invertible(rng, n, entry):
    while True:
        m = QMatrix(n, n, [entry() for _ in range(n * n)])
        if m.det() != 0:
            return m


def test_exact_invariance_agrees_with_point_battery():
    # congruences are accepted by both tests; among scaled-by--1, perturbed,
    # "+ tr(X) I" (positive, not onto) and random maps, whatever the
    # battery rejects the exact test rejects too
    rng = random.Random(2718)
    rejected = 0
    for n in (1, 2, 3):
        oracle = psd_cone_oracle(n)
        dim = oracle.dim
        identity = _flatten(QMatrix.identity(n))
        trace_term = QMatrix.from_columns(
            [identity if i == j else (0,) * dim for i, j in _pairs(n)])
        for _ in range(20):
            b = _random_invertible(rng, n, lambda: Fraction(rng.randrange(-4, 5),
                                                            rng.randrange(1, 4)))
            cong = _congruence(b, Fraction(rng.randrange(1, 7), rng.randrange(1, 4)))
            assert ConeMap.create(cong, oracle).invariance == "congruence-exact"
            assert _battery_accepts(cong, n, rng)
            k = rng.randrange(dim * dim)
            perturbed = QMatrix(dim, dim, [e + Fraction(int(i == k), 7)
                                           for i, e in enumerate(cong.entries)])
            random_map = _random_invertible(rng, dim, lambda: rng.randrange(-3, 4))
            for m in (cong.scale(-1), perturbed, cong + trace_term, random_map):
                if m.det() != 0 and not _battery_accepts(m, n, rng):
                    rejected += 1
                    assert not ConeMap.create(m, oracle).invariance_checked
    assert rejected > 100


def test_non_interior_projection_is_an_internal_error(monkeypatch):
    true_projector = dynamics._bounded_projector
    monkeypatch.setattr(dynamics, "_bounded_projector",
                        lambda m, cp, q: true_projector(m, cp, q).scale(-1))
    for m, cone, q in ((SWAP2, build_cone([[1, 0], [0, 1]]), 2),
                       (PULLBACK_3X3, psd_cone_oracle(2), 6)):
        cm = ConeMap.create(m, cone)
        with pytest.raises(InternalCheckError):
            decide_polarization(cm)
        with pytest.raises(InternalCheckError):
            interior_eigenvector(cm, q)


EIGEN, IDEMPOTENT, INTERTWINE, INTEGER = (
    "witness is not an eigenvector", "projector is not idempotent",
    "projector does not intertwine the map at q",
    "integer pullback produced a non-integer scaling factor")


def _decided_certificates(equivalence_run):
    """(m, m_eff, certificate) of each POLARIZED equivalence case (its cone
    spans the whole space), of ex1's map on psd(2) and of a swap on the
    proper-span cone over (1, 1)."""
    out = [(o.matrix, o.matrix, o.certificate) for o in equivalence_run[1]
           if o.certificate is not None]
    for m, cone in ((PULLBACK_3X3, psd_cone_oracle(2)), (SWAP2, build_cone([[1, 1]]))):
        cm = ConeMap.create(m, cone)
        out.append((m, dynamics._effective_map(cm)[0], decide_polarization(cm).certificate))
    assert out[-1][1] == QMatrix.from_rows([[2]])
    return out


def test_certificate_failures_names_each_mutated_clause(equivalence_run):
    """`certificate_failures` passes every decided certificate and names
    exactly the clauses a one-entry mutation of w, q or P breaks; which ones
    break is read off single entries, not off the products it checks."""
    certificates = _decided_certificates(equivalence_run)
    assert len(certificates) > 50
    named = set()
    for m, m_eff, cert in certificates:
        assert certificate_failures(m, m_eff, cert) == []
        q, w, p = cert.q, cert.witness, cert.projector
        n = p.rows

        def failures(**change):
            got = certificate_failures(m, m_eff, dataclasses.replace(cert, **change))
            named.update(got)
            return got

        for j in range(len(w)):
            # M (w + e_j) = q (w + e_j) exactly when column j of M is q e_j
            moved = m.column(j) != tuple(q * (k == j) for k in range(m.rows))
            bumped = tuple(x + (k == j) for k, x in enumerate(w))
            assert failures(witness=bumped) == [EIGEN] * moved
        assert failures(q=q + 1) == [EIGEN, INTERTWINE]
        if m.is_integer:
            assert failures(q=q + Fraction(1, 2)) == [EIGEN, INTERTWINE, INTEGER]
        cells = list(itertools.product(range(n), repeat=2))
        for i, j in cells:
            # with E = E_ij, (P + E)^2 - (P + E) = P E + E P - E for i != j
            # (P E + E P for i = j): P E holds column i of P in column j, and
            # E P holds row j of P in row i
            square_gap = [(c == j) * p.entry(r, i) + (r == i) * p.entry(j, c)
                          - ((r, c) == (i, j) and i != j) for r, c in cells]
            # (P + E) m_eff - q (P + E) = E (m_eff - q), whose row i is row j of m_eff - q
            moved = m_eff.row(j) != tuple(q * (c == j) for c in range(n))
            bumped = QMatrix(n, n, [x + (cell == (i, j)) for cell, x in zip(cells, p.entries)])
            assert failures(projector=bumped) == ([IDEMPOTENT] * any(square_gap)
                                                  + [INTERTWINE] * moved)
    assert named == {EIGEN, IDEMPOTENT, INTERTWINE, INTEGER}


def test_only_the_trace_clause_sees_a_projector_short_of_the_eigenspace(quadrant):
    """diag(1, 0) is an idempotent with 2I P = P 2I = 2P, so it passes every
    shared clause for the map 2I; the selftest's trace clause refuses it."""
    m = QMatrix.identity(2).scale(2)
    cert = decide_polarization(ConeMap.create(m, quadrant)).certificate
    assert cert.projector == QMatrix.identity(2)
    short = dataclasses.replace(cert, projector=QMatrix.from_rows([[1, 0], [0, 0]]))
    assert certificate_failures(m, m, short) == []
    outcomes = [CaseOutcome("polarized", "polarized", m, c) for c in (cert, short)]
    assert run_projector_identities(outcomes).failures == [
        "instance 1: projector misses part of the eigenspace"]


def test_polyhedral_conclusive_refusal_tag():
    # diag(2, 3) is bounded at no q, so the refusal cites the spectrum
    quadrant = build_cone([[1, 0], [0, 1]])
    result = decide_polarization(ConeMap.create(QMatrix.from_rows([[2, 0], [0, 3]]),
                                                quadrant))
    assert result.status is PolarizationStatus.NOT_POLARIZED
    assert "power bounded" in result.reason


def test_q_from_degree_and_restriction():
    assert q_from_degree(36, 2) == 6
    assert q_from_degree(1, 5) == 1
    assert q_from_degree(4 ** 6, 6) == 4
    with pytest.raises(NoIntegerRootError):
        q_from_degree(8, 2)
    assert restricted_degree(6, 1) == 6
    assert restricted_degree(9, 0) == 1
    assert restricted_degree(2, 3) == 8


def test_round_trip_q_degree():
    for q in range(1, 13):
        for n in range(1, 13):
            assert q_from_degree(restricted_degree(q, n), n) == q


def test_product_formula():
    assert product_formula_check(2, 36, 1, 6)
    assert not product_formula_check(2, 36, 1, 5)
    assert product_formula_check(3, 99, 0, 1)


def test_integer_nth_root_matches_the_table_of_powers():
    for n in range(1, 13):
        powers = {r ** n: r for r in range(1, 5001)}
        for value in range(1, 5001):
            assert integer_nth_root(value, n) == powers.get(value), (value, n)
        for r in (2 ** 40 - 1, 2 ** 40, 2 ** 40 + 1, 10 ** 30):
            assert integer_nth_root(r ** n, n) == r
            if n > 1:
                assert integer_nth_root(r ** n + 1, n) is None


def test_product_formula_matches_the_power_form():
    for dim_x, dim_y in itertools.product(range(7), repeat=2):
        for deg_f, deg_g in itertools.product(range(1, 101), repeat=2):
            if product_formula_check(dim_x, deg_f, dim_y, deg_g) != (
                    deg_f ** dim_y == deg_g ** dim_x):
                pytest.fail(f"disagrees at {(dim_x, deg_f, dim_y, deg_g)}")


def test_degree_calculus_answers_huge_dimensions_at_once():
    # the powers these relations name have billions of digits; none is formed
    big = 10 ** 9
    started = time.perf_counter()
    assert integer_nth_root(10 ** 60, 200_000) is None
    assert q_from_degree(1, big) == 1
    with pytest.raises(NoIntegerRootError):
        q_from_degree(2, big)
    assert product_formula_check(big, 8, big, 8)
    assert product_formula_check(2 * big, 4, big, 2)
    assert not product_formula_check(big, 6, big + 1, 6)
    assert not product_formula_check(3, 10 ** 6, 10 ** 7, 7)
    assert abelian_invariant_check(2, big, big - 1) is AbelianInvariantVerdict.CONTRADICTION
    assert time.perf_counter() - started < 1


def test_abelian_invariant():
    assert abelian_invariant_check(6, 2, 1) is AbelianInvariantVerdict.CONTRADICTION
    assert abelian_invariant_check(1, 2, 1) is AbelianInvariantVerdict.CONSISTENT
    assert abelian_invariant_check(2, 3, 0) is AbelianInvariantVerdict.CONTRADICTION


def test_product_endo_degree():
    assert product_endo_degree(QMatrix.from_rows([[1, -5], [1, 1]])) == 36
    assert product_endo_degree(QMatrix.from_rows([[2, 0], [0, 2]])) == 16


# eigenvalues 2, 4 and +-sqrt 2: q = 16^(1/4) = 2 is an eigenvalue, the
# modulus test fails, and the refusal looks for an irrational root
IRRATIONAL_ONLY = [[2, 0, 0, 0], [0, 4, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]


def test_one_remainder_sequence_per_analysis(monkeypatch):
    # QPoly.derivative starts every remainder sequence (the Sturm chain);
    # count the ones started on char(M) or its square-free part, first in a
    # decision and then in a whole report. Every call of square_free_part on
    # char(M) must hand back the one part the polynomial built
    targets, starts, parts = set(), [], []
    derivative, square_free_part = QPoly.derivative, QPoly.square_free_part

    def recorder(self):
        if self in targets:
            starts.append(self)
        return derivative(self)

    def part_recorder(self):
        part = square_free_part(self)
        if self == cp:
            parts.append(part)
        return part

    monkeypatch.setattr(QPoly, "derivative", recorder)
    monkeypatch.setattr(QPoly, "square_free_part", part_recorder)
    for rows, status in (([[0, 2], [2, 0]], "polarized"),
                         (IRRATIONAL_ONLY, "irrational_candidate_only")):
        cp = char_poly(QMatrix.from_rows(rows))
        targets = {cp, cp.square_free_part()}
        starts.clear()
        parts.clear()
        orthant = [[int(i == j) for j in range(len(rows))] for i in range(len(rows))]
        cm = ConeMap.create(QMatrix.from_rows(rows), build_cone(orthant))
        expected = {"polarized": PolarizationStatus.POLARIZED,
                    "irrational_candidate_only": PolarizationStatus.IRRATIONAL_ONLY}[status]
        assert decide_polarization(cm).status is expected
        assert len(starts) == 1
        assert parts and all(part is parts[0] for part in parts)
        starts.clear()
        parts.clear()
        doc = {"schema_version": "1", "kind": "cone_dynamics",
               "payload": {"matrix": rows,
                           "cone": {"type": "polyhedral", "generators": orthant}}}
        assert run_scenario(doc)["verdicts"]["status"] == status
        assert len(starts) == 1
        assert len(parts) > 1 and all(part is parts[0] for part in parts)


def test_decision_calls_the_public_modulus_test(monkeypatch, quadrant):
    # the benchmark tracer counts algnum.modulus_equals by patching this global
    calls = []

    def recorder(p, q):
        calls.append(q)
        return modulus_equals(p, q)

    monkeypatch.setattr(dynamics, "modulus_equals", recorder)
    for cm in (ConeMap.create(SWAP2, quadrant),
               ConeMap.create(PULLBACK_3X3, psd_cone_oracle(2))):
        calls.clear()
        assert decide_polarization(cm).is_polarized
        assert len(calls) == 1


def test_degree_preconditions_raise_library_errors():
    with pytest.raises(PreconditionViolatedError, match="endomorphism matrix must be integral"):
        product_endo_degree(QMatrix.from_rows([[Fraction(1, 2), 0], [0, 1]]))
    with pytest.raises(PreconditionViolatedError, match="degree and dimension must be positive"):
        q_from_degree(0, 2)
