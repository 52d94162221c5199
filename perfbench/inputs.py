"""Seeded inputs for the benchmark, each with its answer planned in advance.

Nothing here imports conecert: the planned answers come from the
construction of each input, and the checks use plain rational arithmetic,
so a change to the package (or to its own test generators) cannot shift
either the inputs or the answers they are judged against.

Three families:

* simplicial maps S N S^-1 on the cone spanned by the columns of S, with N
  a nonnegative monomial matrix. The spectrum of N is the union, over the
  cycles of its permutation, of the roots of t^L - P (L the cycle length,
  P the product of the cycle's scalings), which fixes the verdict;
* the congruence action H -> a^T H a of a 2 x 2 integer matrix on the
  cone of positive semidefinite 2 x 2 matrices;
* pointed cones from seeded generators, with membership and face queries
  whose answers follow from the generators.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

Matrix = tuple[tuple[Fraction, ...], ...]

POLARIZED = "polarized"
NOT_POLARIZED = "not_polarized"
IRRATIONAL_ONLY = "irrational_only"


# -- exact helpers --------------------------------------------------------------


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
                       for j in range(len(b[0]))) for i in range(len(a)))


def mat_vec(a: Sequence[Sequence], v: Sequence) -> tuple[Fraction, ...]:
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)


def mat_inverse(a: Sequence[Sequence]) -> Optional[Matrix]:
    """Gauss-Jordan inverse over the rationals, or None if a is singular."""
    n = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


def int_det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g else tuple(v)


# -- cone maps ------------------------------------------------------------------


@dataclass(frozen=True)
class DecideCase:
    """A cone map with its planned verdict.

    `generators` is None for the psd(2) cone. `basis_inverse` is S^-1 for a
    simplicial cone, so a vector is interior exactly when S^-1 w > 0.
    """

    kind: str                       # "simplicial" or "psd2"
    matrix: Matrix
    generators: Optional[tuple[tuple[int, ...], ...]]
    basis_inverse: Optional[Matrix]
    plan: str
    q: Optional[Fraction]

    def witness_ok(self, q: Fraction, w: Sequence) -> bool:
        """w is an interior eigenvector of the map for q."""
        w = tuple(Fraction(x) for x in w)
        if mat_vec(self.matrix, w) != tuple(q * x for x in w):
            return False
        if self.kind == "psd2":
            h11, h12, h22 = w
            return h11 > 0 and h11 * h22 - h12 * h12 > 0
        return all(x > 0 for x in mat_vec(self.basis_inverse, w))


def _split_product(rng: random.Random, value: int, parts: int) -> list[int]:
    """`parts` positive integers with product `value`, prime factors spread at random."""
    out = [1] * parts
    n, p = value, 2
    while n > 1:
        while n % p == 0:
            out[rng.randrange(parts)] *= p
            n //= p
        p += 1
    return out


def partitions(d: int, plan: str) -> list[tuple[int, ...]]:
    """Cycle lengths of d's permutations that can carry the plan, in a fixed order:
    mismatched moduli need two cycles, an irrational root a cycle of length >= 2."""
    def parts(n: int, largest: int):
        if n == 0:
            yield ()
        for k in range(min(n, largest), 0, -1):
            for rest in parts(n - k, k):
                yield (k,) + rest
    return [p for p in parts(d, d)
            if (plan != NOT_POLARIZED or len(p) >= 2)
            and (plan != IRRATIONAL_ONLY or p[0] >= 2)]


def simplicial_case(rng: random.Random, d: int, plan: str,
                    lengths: Sequence[int]) -> DecideCase:
    """S N S^-1 on cone(columns of S) with the planned verdict; N has cycles
    of the given lengths."""
    lengths = list(lengths)
    if plan == POLARIZED:
        q = rng.choice((1, 2, 2, 3, 3, 4))
        products = [q ** L for L in lengths]
    elif plan == NOT_POLARIZED:
        q = None
        q1, q2 = rng.sample((1, 2, 3, 4), 2)
        qs = [q1, q2] + [rng.choice((q1, q2)) for _ in lengths[2:]]
        products = [qi ** L for qi, L in zip(qs, lengths)]
    else:
        q = None
        products = [rng.choice((1, 2, 3)) ** L for L in lengths]
        # the first cycle is the longest: its root (k b^L)^(1/L) is irrational
        products[0] *= rng.choice((2, 3, 5))

    perm = list(range(d))
    rng.shuffle(perm)
    n_mat = [[Fraction(0)] * d for _ in range(d)]
    start = 0
    for L, P in zip(lengths, products):
        cycle = perm[start:start + L]
        start += L
        for src, dst, s in zip(cycle, cycle[1:] + cycle[:1], _split_product(rng, P, L)):
            n_mat[dst][src] = Fraction(s)
    while True:
        s_mat = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        if int_det(s_mat) != 0:
            break
    s_inv = mat_inverse(s_mat)
    m = mat_mul(mat_mul(s_mat, n_mat), s_inv)
    gens = tuple(tuple(s_mat[i][j] for i in range(d)) for j in range(d))
    return DecideCase("simplicial", m, gens, s_inv, plan,
                      None if q is None else Fraction(q))


def congruence_matrix(a: Sequence[Sequence[int]]) -> Matrix:
    """Matrix of H -> a^T H a on (h11, h12, h22), H = [[h11, h12], [h12, h22]]."""
    basis = (((1, 0), (0, 0)), ((0, 1), (1, 0)), ((0, 0), (0, 1)))
    at = tuple(zip(*a))
    cols = []
    for e in basis:
        h = mat_mul(mat_mul(at, e), a)
        cols.append((h[0][0], h[0][1], h[1][1]))
    return tuple(tuple(Fraction(cols[j][i]) for j in range(3)) for i in range(3))


def psd2_case(rng: random.Random, shape: Optional[str] = None) -> DecideCase:
    """The congruence action of a random invertible 2 x 2 integer matrix a.

    `shape` "scalar", "trace0" or "any" fixes the kind of a; by default 15 %
    are scalar and 15 % have trace 0.

    With eigenvalues l1, l2 of a, the action has eigenvalues l1^2, l1 l2,
    l2^2; it is polarized (q = |det a|) exactly when |l1| = |l2| and a is
    diagonalizable: non-real eigenvalues, trace 0, or a scalar matrix.
    Otherwise it is not polarized, and the positive eigenvalue l1^2 is
    irrational exactly when the discriminant is not a square.
    """
    u = rng.random()
    shape = shape or ("scalar" if u < 0.15 else "trace0" if u < 0.3 else "any")
    while True:
        if shape == "scalar":
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            a = ((c, 0), (0, c))
        elif shape == "trace0":
            x, y, z = (rng.randint(-3, 3) for _ in range(3))
            a = ((x, y), (z, -x))
        else:
            a = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if det != 0:
            break
    tr = a[0][0] + a[1][1]
    disc = tr * tr - 4 * det
    scalar = a[0][1] == a[1][0] == 0 and a[0][0] == a[1][1]
    if disc < 0 or tr == 0 or scalar:
        plan, q = POLARIZED, Fraction(abs(det))
    elif disc > 0 and math.isqrt(disc) ** 2 != disc:
        plan, q = IRRATIONAL_ONLY, None
    else:
        plan, q = NOT_POLARIZED, None
    return DecideCase("psd2", congruence_matrix(a), None, None, plan, q)


SIMPLICIAL_DIMS = (2, 3, 4, 5, 6)
SIMPLICIAL_PLANS = (POLARIZED, POLARIZED, NOT_POLARIZED, IRRATIONAL_ONLY)
PSD2_PER_ROUND = 7


def decide_round(rng: random.Random, index: int) -> list[DecideCase]:
    """Round `index` of the decide mix, in random order: every simplicial
    dimension with every planned verdict (polarized twice), and psd(2) maps
    for about a quarter of the round.

    The cost of a decision depends mostly on the cycle lengths (a 5-cycle
    costs ten times a 4-cycle), so they are not drawn at random: round k
    takes the k-th eligible partition of each dimension. Every run then has
    the same mix of cycle types, whatever its seed.
    """
    cases = []
    for d in SIMPLICIAL_DIMS:
        for j, plan in enumerate(SIMPLICIAL_PLANS):
            options = partitions(d, plan)
            cases.append(simplicial_case(rng, d, plan, options[(index + j) % len(options)]))
    cases += [psd2_case(rng) for _ in range(PSD2_PER_ROUND)]
    rng.shuffle(cases)
    return cases


def scenario_document(case: DecideCase, name: str) -> dict:
    """A `cone_dynamics` scenario for the command line."""
    def entry(x: Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    cone = ({"type": "psd", "size": 2} if case.kind == "psd2" else
            {"type": "polyhedral", "generators": [list(g) for g in case.generators]})
    return {"schema_version": "1", "name": name, "kind": "cone_dynamics",
            "payload": {"matrix": [[entry(x) for x in row] for row in case.matrix],
                        "cone": cone}}


# -- pointed cones and their queries ---------------------------------------------


CONE_RADIUS = 12


def pointed_cone(rng: random.Random, d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """n distinct integer generators near a sphere of radius CONE_RADIUS in
    the slice x_0 = 2 CONE_RADIUS.

    Points near a sphere are almost all extreme, which keeps the facet count
    of cones of one size close together; the slice keeps the cone pointed.
    """
    gens: list[tuple[int, ...]] = []
    while len(gens) < n:
        v = [rng.gauss(0.0, 1.0) for _ in range(d - 1)]
        norm = math.sqrt(sum(x * x for x in v)) or 1.0
        g = (2 * CONE_RADIUS,) + tuple(round(CONE_RADIUS * x / norm) for x in v)
        if g not in gens:
            gens.append(g)
    return tuple(gens)


def _normal_through(points: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Primitive integer normal of the hyperplane through d-1 points, or None."""
    d = len(points[0])
    normal = []
    for j in range(d):
        minor = [[p[k] for k in range(d) if k != j] for p in points]
        normal.append((-1) ** j * int_det(minor))
    return primitive(normal) if any(normal) else None


def brute_force_facets(gens: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
    """Facet normals of a full-dimensional pointed cone, from all (d-1)-subsets."""
    d = len(gens[0])
    facets = set()
    for subset in itertools.combinations(gens, d - 1):
        n = _normal_through(subset)
        if n is None:
            continue
        signs = {(s > 0) - (s < 0) for s in (sum(a * b for a, b in zip(n, g)) for g in gens)}
        if signs <= {0, 1}:
            facets.add(n)
        elif signs <= {0, -1}:
            facets.add(tuple(-x for x in n))
    return facets


@dataclass(frozen=True)
class Query:
    """A membership query (`face` is None) or a minimal-face query.

    For a membership query `expect` is "interior", "boundary" or "outside".
    For a face query the point lies in the relative interior of the facet
    with normal `face`, so the minimal face is that facet and its generators
    are `expect_generators`.
    """

    point: tuple[int, ...]
    expect: str
    face: Optional[tuple[int, ...]] = None
    expect_generators: tuple[int, ...] = ()


def cone_queries(rng: random.Random, gens: Sequence[Sequence[int]],
                 facets: Sequence[tuple[int, ...]], per_kind: int,
                 faces: int) -> list[Query]:
    """Interior points (positive combinations of all generators), facet points
    (positive combinations of one facet's generators), outside points
    (negated interior points), and minimal-face queries on facet points."""
    d = len(gens[0])

    def combo(idx: Sequence[int]) -> tuple[int, ...]:
        coeffs = [rng.randint(1, 5) for _ in idx]
        return tuple(sum(c * gens[i][k] for c, i in zip(coeffs, idx)) for k in range(d))

    def tight(n: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(gens) if sum(a * b for a, b in zip(n, g)) == 0)

    everything = range(len(gens))
    out = []
    for _ in range(per_kind):
        out.append(Query(combo(everything), "interior"))
        out.append(Query(tuple(-x for x in combo(everything)), "outside"))
        out.append(Query(combo(tight(rng.choice(facets))), "boundary"))
    for _ in range(faces):
        n = rng.choice(facets)
        out.append(Query(combo(tight(n)), "boundary", n, tight(n)))
    return out
