"""Seeded property suites: brute-force oracles against the certified paths.

Each suite generates small random instances from a deterministic seed,
computes the answer along an independent route (empirical growth of powers,
exhaustive face enumeration, direct identity expansion) and compares it with
the library's certified route. Every suite compares in exact arithmetic, so
a reported failure is a real disagreement, never a float tolerance. The CLI
`selftest` subcommand runs everything here; the acceptance tests reuse the
same generators with pinned seeds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .cones import (
    Membership,
    PolyhedralCone,
    build_cone,
    enumerate_faces,
    is_extremal_face,
    membership,
    minimal_extremal_face,
    psd_cone_oracle,
)
from .dynamics import (
    ConeMap,
    PolarizationCertificate,
    PolarizationStatus,
    certificate_failures,
    decide_polarization,
    is_power_bounded,
    product_formula_check,
    q_from_degree,
    restricted_degree,
)
from .errors import InternalCheckError
from .exactalg import (
    QMatrix,
    QPoly,
    char_poly,
    independent_rows,
    primitive_ints,
    rational_roots,
    vec_add,
    vec_scale,
)
from .nslattice import SymClass, intersect, pullback_class
from .singularities import CyclicActionElement, age, projective_cycle_fixed_data

GROWTH_RANGE = 40
GROWTH_THRESHOLD = Fraction(10 ** 6)
FACE_ORACLE_MAX_GENS = 10


# -- the empirical growth oracle ---------------------------------------------------


def empirical_growth_max(m: QMatrix, q: Fraction) -> Fraction:
    """max over i in [-GROWTH_RANGE, GROWTH_RANGE] of the largest entry of m^i / q^i.

    A heuristic stand-in for the sup over all integers; exact rational
    arithmetic throughout, used only as a test oracle.
    """
    best = Fraction(1)
    for step, factor in ((m, 1 / q), (m.inverse(), q)):
        power = QMatrix.identity(m.rows)
        scale = Fraction(1)
        for _ in range(GROWTH_RANGE):
            power = power * step
            scale *= factor
            best = max(best, power.max_abs_entry() * scale)
    return best


# -- instance generation for the cone equivalence suite ------------------------------


@dataclass
class ConeInstance:
    """One randomized simplicial-cone map instance with its intent tag."""

    matrix: QMatrix
    cone: PolyhedralCone
    kind: str                      # "polarized" | "mismatched" | "irrational"
    expected_q: Optional[Fraction]


def _random_unimodular_like(rng: random.Random, n: int) -> QMatrix:
    """A random invertible integer matrix with small entries."""
    while True:
        m = QMatrix(n, n, [rng.randrange(-3, 4) for _ in range(n * n)])
        if m.det() != 0:
            return m


def _cycle_lengths(rng: random.Random, n: int, parts: int) -> list[int]:
    lengths = [1] * parts
    for _ in range(n - parts):
        lengths[rng.randrange(parts)] += 1
    return lengths


def _monomial_from_cycles(lengths: Sequence[int], scalings: Sequence[Sequence[int]]) -> QMatrix:
    """Block-cyclic nonnegative monomial matrix: e_i -> s_i e_{next(i)}."""
    n = sum(lengths)
    entries = [[0] * n for _ in range(n)]
    base = 0
    for length, scales in zip(lengths, scalings):
        for i in range(length):
            src = base + i
            dst = base + (i + 1) % length
            entries[dst][src] = scales[i]
        base += length
    return QMatrix.from_rows(entries)


def _split_product(rng: random.Random, total: int, parts: int) -> list[int]:
    """Positive integer factors with the given product (total is a prime power
    times small factors here, so greedy splitting is fine)."""
    out = [1] * parts
    remaining = total
    for i in range(parts - 1):
        d = rng.choice([d for d in range(1, remaining + 1) if remaining % d == 0])
        out[i] = d
        remaining //= d
    out[parts - 1] = remaining
    return out

# moduli multisets whose pairwise ratios are at least 3/2, so a wrong candidate
# q is exposed within 40 doublings even through the basis conditioning
_SPREAD_SETS = ([1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [1, 2, 3], [1, 2, 4])


def generate_cone_instance(rng: random.Random, dim: int) -> ConeInstance:
    """A map preserving a simplicial cone in both directions.

    Built as S N S^{-1} with S the generator matrix of the cone and N an
    entrywise-nonnegative monomial matrix, so the map permutes the extreme
    rays with positive scalings (inverse invariance included). The cycle
    scaling products control the eigenvalue moduli: all equal (polarized),
    integer but spread apart (not power bounded at any candidate), or a
    single irrational modulus (candidate exists but is not rational).
    """
    s = _random_unimodular_like(rng, dim)
    kind = rng.choices(["polarized", "mismatched", "irrational"],
                       weights=[45, 40, 15])[0]
    if kind == "polarized":
        q = rng.choice([1, 2, 3])
        parts = rng.randrange(1, dim + 1)
        lengths = _cycle_lengths(rng, dim, parts)
        scalings = [_split_product(rng, q ** ln, ln) for ln in lengths]
        numerator = _monomial_from_cycles(lengths, scalings)
        expected = Fraction(q)
    elif kind == "mismatched":
        parts = rng.randrange(2, dim + 1)
        lengths = _cycle_lengths(rng, dim, parts)
        moduli_set = list(rng.choice(_SPREAD_SETS))
        moduli = [rng.choice(moduli_set) for _ in lengths]
        # force at least two distinct moduli
        moduli[0], moduli[1] = min(moduli_set), max(moduli_set)
        scalings = [_split_product(rng, v ** ln, ln)
                    for v, ln in zip(moduli, lengths)]
        numerator = _monomial_from_cycles(lengths, scalings)
        expected = None
    else:
        # one full-length cycle whose scaling product has no rational root
        product = rng.choice([2, 3, 5] if dim != 1 else [2])
        if dim == 1:
            # dimension one cannot produce an irrational eigenvalue; fall back
            numerator = _monomial_from_cycles([1], [[2]])
            expected = Fraction(2)
            kind = "polarized"
        else:
            scalings = _split_product(rng, product, dim)
            numerator = _monomial_from_cycles([dim], [scalings])
            expected = None
    matrix = s * numerator * s.inverse()
    cone = build_cone([s.column(j) for j in range(dim)])
    return ConeInstance(matrix=matrix, cone=cone, kind=kind, expected_q=expected)


# -- suite results ---------------------------------------------------------------------


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class CaseOutcome:
    """One decided equivalence case: the generator's intent, the verdict
    (a status value or "irrational_candidate_only") and, when polarized,
    the certificate."""
    kind: str
    verdict: str
    matrix: QMatrix
    certificate: Optional[PolarizationCertificate]


def run_cone_equivalence(seed: int, cases: int, max_dim: int = 4,
                         collect: Optional[list[CaseOutcome]] = None) -> SuiteResult:
    """Certified polarization decision vs. the empirical growth oracle;
    `collect` receives each case's outcome as soon as it is decided."""
    rng = random.Random(seed)
    result = SuiteResult(name="cone-equivalence", cases=cases)
    for case in range(cases):
        inst = generate_cone_instance(rng, rng.randrange(2, max_dim + 1))
        cm = ConeMap.create(inst.matrix, inst.cone)
        if not cm.invariance_checked:
            result.failures.append(f"case {case}: invariance unexpectedly failed")
            continue
        rational_candidates = [r for r in rational_roots(cm.char_poly) if r > 0]
        decision = decide_polarization(cm)
        irrational_only = decision.status is PolarizationStatus.IRRATIONAL_ONLY
        verdict = "irrational_candidate_only" if irrational_only else decision.status.value
        if collect is not None:
            collect.append(CaseOutcome(inst.kind, verdict, inst.matrix, decision.certificate))

        growth_bounded = [q for q in rational_candidates
                          if empirical_growth_max(inst.matrix, q) < GROWTH_THRESHOLD]
        spectral_bounded = [q for q in rational_candidates
                            if is_power_bounded(inst.matrix, q)]
        if growth_bounded != spectral_bounded:
            result.failures.append(
                f"case {case}: growth oracle {growth_bounded} vs spectral "
                f"{spectral_bounded} for kind {inst.kind}")
            continue
        if irrational_only:
            if rational_candidates or inst.kind != "irrational":
                result.failures.append(f"case {case}: unexpected irrational-only")
            continue
        if decision.is_polarized != bool(growth_bounded):
            result.failures.append(
                f"case {case}: decision {decision.status} vs oracle {growth_bounded}")
            continue
        if decision.is_polarized:
            cert = decision.certificate
            if inst.expected_q is not None and cert.q != inst.expected_q:
                result.failures.append(
                    f"case {case}: q {cert.q} != planned {inst.expected_q}")
        elif inst.kind == "polarized":
            result.failures.append(f"case {case}: planned polarized case refused")
    return result


def run_projector_identities(outcomes: Sequence[CaseOutcome]) -> SuiteResult:
    """`certificate_failures` on each found certificate (its cone spans the
    whole space), plus the two clauses the decision does not re-check:
    MP = qP, and trace P = the multiplicity of q in char(M). An idempotent's
    rank is its trace, and MP = qP puts its range inside ker(M - q), of
    dimension at most that multiplicity; so P fixes the whole eigenspace."""
    found = [o for o in outcomes if o.certificate is not None]
    result = SuiteResult(name="projector-identities", cases=len(found))
    for i, o in enumerate(found):
        cert, m = o.certificate, o.matrix
        p, q = cert.projector, cert.q
        failures = certificate_failures(m, m, cert)
        if m * p != p.scale(q):
            failures.append("projector fails M P = q P")
        cp, linear, multiplicity = char_poly(m), QPoly.linear_root(q), 0
        while cp(q) == 0:
            cp, multiplicity = cp.exact_div(linear), multiplicity + 1
        if sum(p.entry(k, k) for k in range(p.rows)) != multiplicity:
            failures.append("projector misses part of the eigenspace")
        result.failures += [f"instance {i}: {f}" for f in failures]
    return result


# -- face suites ---------------------------------------------------------------------


def _random_pointed_cone(rng: random.Random, dim: int, gens: int) -> PolyhedralCone:
    """Random pointed cone: all generators share a positive first coordinate."""
    vectors = []
    for _ in range(gens):
        vectors.append(tuple([rng.randrange(1, 4)] +
                             [rng.randrange(-3, 4) for _ in range(dim - 1)]))
    return build_cone(vectors)


def _oracle_minimal_face(cone: PolyhedralCone, subs) -> tuple:
    """Exhaustive-scan oracle: smallest face containing every sub-generator.

    A face F is the cone cut with span(F) and every sub-generator v is in the
    cone, so v is in F exactly when it keeps the rank of F's generators."""
    containing = []
    for face in enumerate_faces(cone):
        gens = list(face.generators())
        if gens and all(QMatrix.from_rows(gens + [v]).rank() == face.dim for v in subs):
            containing.append(face)
    best = min(containing, key=lambda f: (f.dim, len(f.generator_indices)))
    for other in containing:
        if not set(best.generator_indices) <= set(other.generator_indices):
            raise InternalCheckError("face lattice lost the unique minimal element")
    return best.generator_indices, best.active_facets


def run_face_oracle(seed: int, cases: int, max_dim: int = 5) -> SuiteResult:
    rng = random.Random(seed)
    result = SuiteResult(name="minimal-face-oracle", cases=cases)
    for case in range(cases):
        # regenerate until some facet carries generators (rules out the
        # one-dimensional cones whose only facet is the apex)
        while True:
            dim = rng.randrange(2, max_dim + 1)
            cone = _random_pointed_cone(rng, dim, rng.randrange(dim, FACE_ORACLE_MAX_GENS + 1))
            candidates = [
                [g for g in cone.generators
                 if sum(a * b for a, b in zip(n, g)) == 0]
                for n in cone.facet_normals]
            candidates = [c for c in candidates if c]
            if candidates:
                break
        on_facet = candidates[rng.randrange(len(candidates))]
        subs = []
        for _ in range(rng.randrange(1, 3)):
            combo = tuple(Fraction(0) for _ in range(dim))
            for g in on_facet:
                combo = vec_add(combo, vec_scale(g, Fraction(rng.randrange(0, 3))))
            if any(combo):
                subs.append(combo)
        if not subs:
            subs = [on_facet[0]]
        face = minimal_extremal_face(cone, subs)
        want = _oracle_minimal_face(cone, subs)
        got = (face.generator_indices, face.active_facets)
        if got != want:
            result.failures.append(f"case {case}: {got} != oracle {want}")
            continue
        if not is_extremal_face(cone, face):
            result.failures.append(f"case {case}: minimal face flunks extremality")
    return result


def run_double_description_roundtrip(seed: int, cases: int, max_dim: int = 4) -> SuiteResult:
    rng = random.Random(seed)
    result = SuiteResult(name="double-description-roundtrip", cases=cases)
    for case in range(cases):
        dim = rng.randrange(2, max_dim + 1)
        cone = _random_pointed_cone(rng, dim, rng.randrange(dim, 9))
        for g in cone.generators:
            if membership(cone, g) is Membership.OUTSIDE:
                result.failures.append(f"case {case}: generator outside own cone")
        sample = cone.interior_sample()
        if membership(cone, sample) is not Membership.INTERIOR:
            result.failures.append(f"case {case}: generator sum not interior")
        for n in cone.facet_normals:
            touching = [g for g in cone.generators
                        if sum(a * b for a, b in zip(n, g)) == 0]
            rank = len(independent_rows(primitive_ints(g) for g in touching))
            if not touching or rank != cone.dim - 1:
                result.failures.append(f"case {case}: facet is not facet-dimensional")
    return result


# -- lattice and age suites --------------------------------------------------------------


def run_projection_formula(seed: int, cases: int) -> SuiteResult:
    rng = random.Random(seed)
    result = SuiteResult(name="projection-formula", cases=cases)
    for case in range(cases):
        while True:
            a = QMatrix(2, 2, [rng.randrange(-5, 6) for _ in range(4)])
            if a.det() != 0:
                break
        h1 = SymClass(rng.randrange(-5, 6), rng.randrange(-5, 6), rng.randrange(-5, 6))
        h2 = SymClass(rng.randrange(-5, 6), rng.randrange(-5, 6), rng.randrange(-5, 6))
        lhs = intersect(pullback_class(a, h1), pullback_class(a, h2))
        rhs = int(a.det() ** 2) * intersect(h1, h2)
        if lhs != rhs:
            result.failures.append(f"case {case}: {lhs} != {rhs}")
    return result


def run_degree_calculus(seed: int, perturbations: int) -> SuiteResult:
    rng = random.Random(seed)
    result = SuiteResult(name="degree-calculus", cases=perturbations)
    for q in range(1, 13):
        for n in range(1, 13):
            if q_from_degree(restricted_degree(q, n), n) != q:
                result.failures.append(f"round trip failed at q={q}, n={n}")
    if not product_formula_check(2, 36, 1, 6):
        result.failures.append("the 36 = 6^2 product relation was rejected")
    accepted = 0
    for case in range(perturbations):
        dim_x = rng.randrange(1, 5)
        dim_y = rng.randrange(1, dim_x + 1)
        q = rng.randrange(2, 6)
        deg_f = q ** dim_x
        deg_g = q ** dim_y
        bump = rng.choice([-1, 1, 2])
        if product_formula_check(dim_x, deg_f, dim_y, deg_g + bump):
            accepted += 1
            result.failures.append(f"case {case}: perturbed tuple accepted")
        if not product_formula_check(dim_x, deg_f, dim_y, deg_g):
            result.failures.append(f"case {case}: true tuple rejected")
    return result


def run_age_identities(seed: int, cases: int) -> SuiteResult:
    rng = random.Random(seed)
    result = SuiteResult(name="age-identities", cases=cases)
    for case in range(cases):
        m = rng.randrange(2, 13)
        k = rng.randrange(1, m)
        weights = tuple(rng.randrange(0, m) for _ in range(rng.randrange(1, 6)))
        e = CyclicActionElement(m, k, weights)
        e_inv = CyclicActionElement(m, m - k, weights)
        nonzero = sum(1 for r in e.residues() if r != 0)
        if age(e) + age(e_inv) != nonzero:
            result.failures.append(f"case {case}: age symmetry failed")
    for m in (4, 6):
        table = projective_cycle_fixed_data(m)
        min_age = min(c.age for comps in table.values() for c in comps)
        if min_age < 1:
            result.failures.append(f"order {m}: canonical window violated")
        if any(c.codim <= 1 for comps in table.values() for c in comps):
            result.failures.append(f"order {m}: pseudo-reflection present")
    return result


def run_psd_congruence(seed: int, cases: int) -> SuiteResult:
    rng = random.Random(seed)
    oracle = psd_cone_oracle(2)
    result = SuiteResult(name="psd-congruence", cases=cases)
    for case in range(cases):
        h = (rng.randrange(-4, 5), rng.randrange(-4, 5), rng.randrange(-4, 5))
        while True:
            a = QMatrix(2, 2, [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                               for _ in range(4)])
            if a.det() != 0:
                break
        hm = SymClass.from_vector(h).matrix()
        conj = a.transpose() * hm * a
        before = oracle.contains(h)
        after = oracle.contains((conj.entry(0, 0), conj.entry(0, 1), conj.entry(1, 1)))
        if before != after:
            result.failures.append(f"case {case}: congruence changed membership")
    return result


# -- entry point ---------------------------------------------------------------------------


def run_all(seed: int = 0, max_dim: int = 4, quick: bool = True) -> list[SuiteResult]:
    scale = 1 if quick else 4
    outcomes: list[CaseOutcome] = []
    results = [
        run_double_description_roundtrip(seed + 1, 15 * scale, max_dim=max_dim),
        run_cone_equivalence(seed + 2, 30 * scale, max_dim=min(max_dim, 4),
                             collect=outcomes),
    ]
    results.append(run_projector_identities(outcomes))
    results += [
        run_face_oracle(seed + 3, 20 * scale, max_dim=max_dim),
        run_projection_formula(seed + 5, 40 * scale),
        run_degree_calculus(seed + 6, 25 * scale),
        run_age_identities(seed + 7, 40 * scale),
        run_psd_congruence(seed + 8, 30 * scale),
    ]
    return results
