"""Acceptance suite: one test per criterion, exact tolerances, pinned seeds.

Each test prints a single PASS line on success; pytest -v adds the
per-criterion pass/fail status through the test names as well.
"""
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conecert.dynamics import (
    AbelianInvariantVerdict,
    abelian_invariant_check,
    product_formula_check,
    q_from_degree,
    restricted_degree,
)
from conecert.exactalg import QMatrix, QPoly, char_poly, modulus_equals, roots_with_multiplicity
from conecert.nslattice import (
    SymClass,
    elliptic_product_report,
    is_ample,
    pullback_action,
    quotient_image_selfintersection,
)
from conecert.selftest import (
    PolarizedInstance,
    run_cone_equivalence,
    run_face_oracle,
    run_projector_identities,
)
from conecert.singularities import (
    SingularityVerdict,
    product_quotient_report,
    projective_cycle_fixed_data,
)

EQUIVALENCE_SEED = 20260810
FACE_SEED = 31415926


@pytest.fixture(scope="module")
def equivalence_run():
    polarized: list[PolarizedInstance] = []
    started = time.perf_counter()
    result = run_cone_equivalence(EQUIVALENCE_SEED, 200, max_dim=4,
                                  collect=polarized)
    elapsed = time.perf_counter() - started
    return result, polarized, elapsed


def test_criterion_1_elliptic_product_golden():
    # warm up the root-isolation kernel so the timing covers the analysis only
    roots_with_multiplicity(QPoly([-1, 0, 1]))
    started = time.perf_counter()

    action = pullback_action([[1, -5], [1, 1]])
    assert char_poly(action.ns_matrix) == QPoly([-216, -12, 2, 1])

    report = elliptic_product_report([[1, -5], [1, 1]])
    assert report.rho == 3
    assert report.real_eigenvalue_count == 1
    assert report.spectral_radius == Fraction(6)
    assert modulus_equals(report.char_poly, 6)

    assert report.polarization.is_polarized
    assert report.q == 6
    assert report.witness_class == SymClass(1, 0, 5)
    assert is_ample(report.witness_class)
    assert report.deg_f == 36 == 6 ** 2
    assert q_from_degree(report.deg_f, 2) == 6

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"golden scenario took {elapsed:.3f}s"
    print(f"\nACCEPTANCE 1 elliptic-product golden: PASS ({elapsed:.3f}s)")


def test_criterion_2_cone_equivalence_suite(equivalence_run):
    result, polarized, elapsed = equivalence_run
    assert result.cases == 200
    assert result.failures == [], result.failures[:5]
    assert elapsed < 30.0, f"suite took {elapsed:.1f}s"
    assert polarized, "suite produced no polarized instances"
    print(f"\nACCEPTANCE 2 cone equivalence 200/200: PASS ({elapsed:.1f}s, "
          f"{len(polarized)} polarized)")


def test_criterion_3_projector_identities(equivalence_run):
    _, polarized, _ = equivalence_run
    assert polarized
    result = run_projector_identities(polarized)
    assert result.failures == []
    print(f"\nACCEPTANCE 3 projector identities on {len(polarized)} instances: PASS")


def test_criterion_4_minimal_face_oracle():
    result = run_face_oracle(FACE_SEED, 100, max_dim=5)
    assert result.cases == 100
    assert result.failures == [], result.failures[:5]
    print("\nACCEPTANCE 4 minimal-face vs exhaustive enumeration 100/100: PASS")


def test_criterion_5_degree_calculus():
    for q in range(1, 13):
        for n in range(1, 13):
            assert q_from_degree(restricted_degree(q, n), n) == q
    assert product_formula_check(2, 36, 1, 6)

    import random
    rng = random.Random(424242)
    rejected = 0
    for _ in range(50):
        dim_x = rng.randrange(1, 5)
        dim_y = rng.randrange(1, dim_x + 1)
        q = rng.randrange(2, 6)
        bump = rng.choice([-1, 1, 2, 3])
        assert not product_formula_check(dim_x, q ** dim_x, dim_y,
                                         q ** dim_y + bump)
        rejected += 1
    assert rejected == 50

    for q in range(2, 11):
        for dim_x in range(1, 11):
            for dim_z in range(0, dim_x):
                assert abelian_invariant_check(q, dim_x, dim_z) is \
                    AbelianInvariantVerdict.CONTRADICTION
    print("\nACCEPTANCE 5 degree calculus: PASS")


def test_criterion_6_projection_formula():
    import random
    rng = random.Random(271828)
    checked = 0
    while checked < 100:
        a = QMatrix(2, 2, [rng.randrange(-5, 6) for _ in range(4)])
        if a.det() == 0:
            continue
        h1 = SymClass(rng.randrange(-5, 6), rng.randrange(-5, 6), rng.randrange(-5, 6))
        h2 = SymClass(rng.randrange(-5, 6), rng.randrange(-5, 6), rng.randrange(-5, 6))
        from conecert.nslattice import intersect, pullback_class
        assert intersect(pullback_class(a, h1), pullback_class(a, h2)) == \
            int(a.det() ** 2) * intersect(h1, h2)
        checked += 1
    print("\nACCEPTANCE 6 projection formula 100/100: PASS")


def test_criterion_7_product_quotient_golden():
    started = time.perf_counter()
    table = projective_cycle_fixed_data(4)
    for k in (1, 3):
        assert len(table[k]) == 4
        assert all(c.age == Fraction(3, 2) and c.dim == 0 for c in table[k])
    assert len(table[2]) == 2
    assert all(c.age == 1 and c.dim == 1 for c in table[2])
    for m in (4, 6):
        t = projective_cycle_fixed_data(m)
        assert all(c.codim >= 2 for comps in t.values() for c in comps)

    report = product_quotient_report(4, 3, 2, (1, 1, 1))
    assert report.verdict is SingularityVerdict.TERMINAL
    assert report.age_report.min_age_nontrivial == Fraction(9, 4)
    assert report.q == 4 == 2 ** 2
    assert report.dim_x == 6
    assert report.deg_f == 4 ** 6

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"age golden scenario took {elapsed:.3f}s"
    print(f"\nACCEPTANCE 7 product-quotient golden: PASS ({elapsed:.3f}s)")


def test_criterion_8_quotient_image_logic():
    result = quotient_image_selfintersection(0, True)
    assert result.image_sq == 0
    assert result.ample_possible is False
    print("\nACCEPTANCE 8 quotient self-intersection contradiction: PASS")


def test_criterion_9_cli_determinism(tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, "-m", "conecert.cli", *args],
                              capture_output=True, text=True)

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("examples", "ex1", "--seed", "11", "--json", str(a)).returncode == 0
    assert run("examples", "ex1", "--seed", "11", "--json", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()

    selftest = run("selftest")
    assert selftest.returncode == 0, selftest.stdout + selftest.stderr
    print("\nACCEPTANCE 9 CLI determinism and selftest: PASS")
