import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.cones import MAX_CYCLIC_ORDER
from conecert.errors import ConecertError
from conecert.exactalg import AlgebraicNumber, qmatrix
from conecert.report import dumps_canonical, render_text
from conecert.scenarios import BUILTIN_SCENARIOS, SCENARIO_SCHEMA, run_scenario

ROOT = Path(__file__).resolve().parent.parent
REPORT_SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "conecert.cli", *args],
                          capture_output=True, text=True, **kwargs)


def test_examples_ex1_text_and_exit():
    result = run_cli("examples", "ex1")
    assert result.returncode == 0, result.stderr
    assert "verdict: polarized" in result.stdout
    assert "q: 6" in result.stdout


def test_examples_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("examples", "ex1", "--seed", "7", "--json", str(a)).returncode == 0
    assert run_cli("examples", "ex1", "--seed", "7", "--json", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_examples_quotient_scenario(tmp_path):
    out = tmp_path / "ex2.json"
    result = run_cli("examples", "ex2", "--json", str(out))
    assert result.returncode == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["quotient_verdict"] == "contradicts_ampleness"
    assert report["verdicts"]["quotient_ample_possible"] is False


def test_examples_age_scenario(tmp_path):
    out = tmp_path / "exxu.json"
    result = run_cli("examples", "ex-xu-4-3", "--json", str(out))
    assert result.returncode == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["verdict"] == "terminal"
    assert report["data"]["min_age_nontrivial"] == {"tag": "exact", "value": "9/4"}


def test_malformed_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "nonsense"}')
    result = run_cli("analyze", str(bad))
    assert result.returncode == 2
    assert result.stdout == ""          # no partial report
    missing = run_cli("analyze", str(tmp_path / "nope.json"))
    assert missing.returncode == 2
    not_json = tmp_path / "not.json"
    not_json.write_text("[broken")
    assert run_cli("analyze", str(not_json)).returncode == 2
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"name": "caf\xe9"}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"schema_version": ' + "9" * 5000 + "}")
    for path in (not_utf8, deep, long_int):
        result = run_cli("analyze", str(path))
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("cannot load scenario:")
        assert "Traceback" not in result.stderr


def test_unwritable_report_exits_2(tmp_path):
    result = run_cli("examples", "ex-xu", "--json", str(tmp_path / "no" / "dir" / "r.json"))
    assert result.returncode == 2
    assert result.stderr.startswith("cannot write report:")
    assert len(result.stderr.splitlines()) == 1


def test_analyze_cone_dynamics_scenario(tmp_path):
    doc = {
        "schema_version": "1",
        "kind": "cone_dynamics",
        "payload": {
            "matrix": [[0, 2], [2, 0]],
            "cone": {"type": "polyhedral", "generators": [[1, 0], [0, 1]]},
        },
    }
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    result = run_cli("analyze", str(path), "--json", str(out))
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert report["verdicts"]["status"] == "polarized"
    assert report["data"]["q"] == {"tag": "exact", "value": "2"}
    assert report["data"]["witness"]["value"] == ["1", "1"]


def test_analyze_rational_entries(tmp_path):
    doc = {
        "schema_version": "1",
        "kind": "cone_dynamics",
        "payload": {
            "matrix": [["1/2", 0], [0, "1/2"]],
            "cone": {"type": "polyhedral", "generators": [[1, 0], [0, 1]]},
        },
    }
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert run_cli("analyze", str(path), "--json", str(out)).returncode == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["status"] == "polarized"
    assert report["data"]["q"] == {"tag": "exact", "value": "1/2"}
    assert report["verdicts"]["q_is_integer"] is False


def test_analyze_degree_scenario(tmp_path):
    doc = {
        "schema_version": "1",
        "kind": "degree_check",
        "payload": {"dim_x": 2, "deg_f": 36, "dim_y": 1, "deg_g": 6,
                    "invariant_subvariety_dim": 1},
    }
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert run_cli("analyze", str(path), "--json", str(out)).returncode == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["product_formula_holds"] is True
    assert report["verdicts"]["abelian_invariant"] == "contradiction"
    assert report["data"]["q"] == {"tag": "exact", "value": "6"}


NO_SYMPY_SCRIPT = """
import sys
from conecert.cli import main
from conecert.scenarios import run_scenario

def unloaded(step):
    assert "sympy" not in sys.modules, "sympy loaded by " + step

unloaded("import conecert")
assert main(["examples", "ex-xu", "--json", sys.argv[1]]) == 0
unloaded("examples ex-xu")
run_scenario({"schema_version": "1", "kind": "degree_check",
              "payload": {"dim_x": 2, "deg_f": 36, "dim_y": 1, "deg_g": 6}})
unloaded("a degree_check scenario")
report = run_scenario({"schema_version": "1", "kind": "cone_dynamics", "payload": {
    "matrix": [[0, 0, 4], [0, 6, 0], [9, 0, 0]], "cone": {"type": "psd", "size": 2}}})
assert report["verdicts"]["status"] == "polarized"
assert report["data"]["q"] == {"tag": "exact", "value": "6"}
unloaded("a polarized psd(2) map with rational eigenvalues")

from fractions import Fraction
from conecert import ConeMap, build_cone, decide_polarization
from conecert.dynamics import PolarizationStatus
from conecert.errors import IrrationalCandidateOnlyError
from conecert.exactalg import QMatrix

# a 3-cycle of weight 8 beside diag(3): char poly (t^3 - 8)(t - 3), whose
# factor t^2 + 2t + 4 has only complex roots, and |det| = 24 is no 4th power
orthant = build_cone([[int(i == j) for j in range(4)] for i in range(4)])
cycle = QMatrix.from_rows([[0, 0, 8, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 3]])
result = decide_polarization(ConeMap.create(cycle, orthant))
assert result.status is PolarizationStatus.NOT_POLARIZED
unloaded("a NOT_POLARIZED decision")
quadrant = build_cone([[1, 0], [0, 1]])
for rows in ([[0, 2], [1, 0]], [[0, Fraction(1, 1000)], [1, 0]]):
    try:
        decide_polarization(ConeMap.create(QMatrix.from_rows(rows), quadrant))
    except IrrationalCandidateOnlyError:
        pass
    else:
        raise AssertionError(f"{rows} was not refused as irrational-only")
    unloaded(f"the irrational-only refusal of {rows}")
"""


def test_rational_answers_load_no_sympy(tmp_path):
    # a fresh interpreter, since this one has imported sympy for other tests;
    # decisions load none either, refusals included
    result = subprocess.run([sys.executable, "-c", NO_SYMPY_SCRIPT, str(tmp_path / "r.json")],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_float_entries_rejected(tmp_path):
    doc = {
        "schema_version": "1",
        "kind": "cone_dynamics",
        "payload": {
            "matrix": [[0.5, 0], [0, 0.5]],
            "cone": {"type": "polyhedral", "generators": [[1, 0], [0, 1]]},
        },
    }
    path = tmp_path / "floats.json"
    path.write_text(json.dumps(doc))
    assert run_cli("analyze", str(path)).returncode == 2


def test_irrational_candidate_reported(tmp_path):
    doc = {
        "schema_version": "1",
        "kind": "cone_dynamics",
        "payload": {
            "matrix": [[0, 2], [1, 0]],
            "cone": {"type": "polyhedral", "generators": [[1, 0], [0, 1]]},
        },
    }
    path = tmp_path / "irr.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    result = run_cli("analyze", str(path), "--json", str(out))
    assert result.returncode == 0        # analysis completed; verdict in report
    report = json.loads(out.read_text())
    assert report["verdicts"]["status"] == "irrational_candidate_only"
    assert report["data"]["candidate_minpoly"]["value"] == ["-2", "0", "1"]


def test_q_hint_checked(tmp_path):
    doc = {
        "schema_version": "1",
        "kind": "cone_dynamics",
        "payload": {
            "matrix": [[0, 2], [2, 0]],
            "q_hint": 2,
            "cone": {"type": "polyhedral", "generators": [[1, 0], [0, 1]]},
        },
    }
    path = tmp_path / "hint.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert run_cli("analyze", str(path), "--json", str(out)).returncode == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["q_matches_hint"] is True


def test_psd_map_off_the_cone_reports_invariance_failed(tmp_path):
    # a map a sampled point battery once passed as invariant
    doc = {
        "schema_version": "1",
        "kind": "cone_dynamics",
        "payload": {
            "matrix": [[27, "-55/3", 3], [-9, 12, -3], [3, -6, 3]],
            "cone": {"type": "psd", "size": 2},
        },
    }
    path = tmp_path / "psd.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    result = run_cli("analyze", str(path), "--json", str(out))
    assert result.returncode == 0, result.stderr
    assert json.loads(out.read_text())["verdicts"]["status"] == "invariance_failed"


def test_jordan_block_automorphism_reports_not_polarized(tmp_path):
    # the shear congruence X -> A X A^T, A = [[1, 1], [0, 1]], preserves
    # psd(2) but is not semisimple
    doc = {
        "schema_version": "1",
        "kind": "cone_dynamics",
        "payload": {
            "matrix": [[1, 2, 1], [0, 1, 1], [0, 0, 1]],
            "cone": {"type": "psd", "size": 2},
        },
    }
    path = tmp_path / "shear.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    result = run_cli("analyze", str(path), "--json", str(out))
    assert result.returncode == 0, result.stderr
    assert json.loads(out.read_text())["verdicts"]["status"] == "not_polarized"


def _record_calls(monkeypatch, func) -> list:
    """Route every conecert module's reference to func through a recorder of
    its arguments."""
    calls = []

    def recorder(*args):
        calls.append(args)
        return func(*args)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "conecert" or name.startswith("conecert.")):
            for key, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, key, recorder)
    return calls


def test_one_char_poly_per_matrix_and_no_min_poly(monkeypatch):
    char_calls = _record_calls(monkeypatch, qmatrix.char_poly)
    min_calls = _record_calls(monkeypatch, qmatrix.min_poly)

    def cone_doc(matrix, cone):
        return {"schema_version": "1", "kind": "cone_dynamics",
                "payload": {"matrix": matrix, "cone": cone}}

    swap = [[0, 2], [2, 0]]
    # (document, distinct matrices: the map, its restriction to a span, and
    # the 2 x 2 psd witness whose minor sums decide it is interior)
    cases = [
        (cone_doc(swap, {"type": "polyhedral", "generators": [[1, 0], [0, 1]]}), 1),
        (cone_doc(swap, {"type": "polyhedral", "generators": [[1, 1]]}), 2),
        (cone_doc([[1, 2, 1], [-5, -4, 1], [25, -10, 1]], {"type": "psd", "size": 2}), 2),
        (BUILTIN_SCENARIOS["ex1"], 2),
    ]
    for doc, distinct in cases:
        char_calls.clear()
        verdicts = run_scenario(doc)["verdicts"]
        assert "polarized" in (verdicts.get("status"), verdicts.get("verdict"))
        assert len(char_calls) == len({args[0] for args in char_calls}) == distinct, doc
    assert min_calls == []


def test_psd_size_held_to_the_dimension_cap(tmp_path):
    # psd(4) lives in dimension 10, above the default cap of 8; here the map
    # X -> 2 P X P^T for the permutation P swapping 0 <-> 1 and 2 <-> 3
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    perm = (1, 0, 3, 2)
    image = {k: pairs.index(tuple(sorted((perm[i], perm[j]))))
             for k, (i, j) in enumerate(pairs)}
    matrix = [[2 * int(image[col] == row) for col in range(10)] for row in range(10)]
    doc = {
        "schema_version": "1",
        "kind": "cone_dynamics",
        "payload": {"matrix": matrix, "cone": {"type": "psd", "size": 4}},
    }
    path = tmp_path / "psd4.json"
    path.write_text(json.dumps(doc))
    capped = run_cli("analyze", str(path))
    assert capped.returncode == 2
    assert "exceeding cap 8" in capped.stderr
    out = tmp_path / "report.json"
    result = run_cli("analyze", str(path), "--max-dim", "10", "--json", str(out))
    assert result.returncode == 0, result.stderr
    verdicts = json.loads(out.read_text())["verdicts"]
    assert verdicts["status"] == "polarized"
    assert verdicts["invariance"] == "congruence-exact"


def test_semantically_bad_scenario_exits_2(tmp_path):
    # a cone that contains a line is rejected as scenario data, not a crash
    doc = {
        "schema_version": "1",
        "kind": "cone_dynamics",
        "payload": {
            "matrix": [[1, 0], [0, 1]],
            "cone": {"type": "polyhedral", "generators": [[1, 0], [-1, 0]]},
        },
    }
    path = tmp_path / "line.json"
    path.write_text(json.dumps(doc))
    assert run_cli("analyze", str(path)).returncode == 2
    # singular endomorphism in the lattice scenario: same exit class
    doc = {
        "schema_version": "1",
        "kind": "ns_example",
        "payload": {"endomorphism": [[1, 1], [1, 1]]},
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    assert run_cli("analyze", str(path)).returncode == 2


QUADRANT = {"type": "polyhedral", "generators": [[1, 0], [0, 1]]}
OCTANT = {"type": "polyhedral", "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
# Python reads and prints integers of at most 4,300 digits
LONG = "7" * 5000
WIDE = "1" + "0" * 1500
# past the float range (about 1.8e308) but printable as an exact integer
HUGE = "1" + "0" * 400


@pytest.mark.parametrize("kind, payload", [
    ("cone_dynamics", {"matrix": [[0, 2], [2]], "cone": QUADRANT}),
    ("ns_example", {"endomorphism": [[1, -5], [1]]}),
    ("cone_dynamics", {"matrix": [["1/0", 0], [0, 1]], "cone": QUADRANT}),
    ("cone_dynamics", {"matrix": [[0, 2], [2, 0]], "q_hint": "3/0", "cone": QUADRANT}),
    ("ns_example", {"endomorphism": [["1/2", -5], [1, 1]]}),
    ("cone_dynamics", {"matrix": [[LONG, 0], [0, 1]], "cone": QUADRANT}),
    ("cone_dynamics", {"matrix": [[0, 2], [2, 0]], "q_hint": "1/" + LONG, "cone": QUADRANT}),
    ("cone_dynamics", {"matrix": [[WIDE, 0, 0], [0, WIDE, 0], [0, 0, WIDE]], "cone": OCTANT}),
    ("cone_dynamics", {"matrix": [[HUGE, 0], [0, 1]], "cone": QUADRANT}),
    ("ns_example", {"endomorphism": [["1" + "0" * 300, 0], [0, 1]]}),
], ids=["ragged-matrix", "ragged-endomorphism", "zero-denominator",
        "zero-denominator-hint", "non-integer-endomorphism", "over-long-entry",
        "over-long-hint", "over-long-result", "float-range-eigenvalue",
        "float-range-pullback-eigenvalue"])
def test_schema_valid_bad_data_exits_2(tmp_path, kind, payload):
    doc = {"schema_version": "1", "kind": kind, "payload": payload}
    jsonschema.validate(doc, SCENARIO_SCHEMA)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = run_cli("analyze", str(path))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("scenario error:")


def test_age_order_past_the_cap_exits_2(tmp_path):
    payload = {"order": MAX_CYCLIC_ORDER + 1, "projective_m": MAX_CYCLIC_ORDER + 1,
               "scale_r": 2, "abelian_weights": [1, 1, 1]}
    path = tmp_path / "age.json"
    path.write_text(json.dumps({"schema_version": "1", "kind": "age_check",
                                "payload": payload}))
    result = run_cli("analyze", str(path), "--max-dim", "200")
    assert result.returncode == 2, result.stderr
    assert f"exceeds cap {MAX_CYCLIC_ORDER}" in result.stderr


@pytest.mark.parametrize("weights", [[], [1, 2]])
def test_age_order_one_is_smooth(tmp_path, weights):
    # the trivial group: no ages, no unverified claims, only the torus factors
    payload = {"order": 1, "projective_m": 1, "scale_r": 2, "abelian_weights": weights}
    path, out = tmp_path / "age.json", tmp_path / "out.json"
    path.write_text(json.dumps({"schema_version": "1", "kind": "age_check",
                                "payload": payload}))
    result = run_cli("analyze", str(path), "--json", str(out))
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert report["verdicts"]["verdict"] == "smooth"
    assert report["data"]["reported_not_verified"] == {}
    assert report["data"]["dim_x"] == {"tag": "exact", "value": str(len(weights))}


def test_scenario_schema_is_valid_draft7():
    jsonschema.Draft7Validator.check_schema(SCENARIO_SCHEMA)


entries = st.integers(-3, 3) | st.sampled_from(["1/2", "-3/2", "4/2", "1/0", LONG])
ragged = st.lists(st.lists(entries, min_size=1, max_size=3), min_size=1, max_size=3)


def rows(n, m):
    return st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n)


def cone_dynamics_payload(n):
    generators = st.integers(1, 4).flatmap(lambda k: rows(k, n))
    cone = (st.fixed_dictionaries({"type": st.just("polyhedral"), "generators": generators})
            | st.fixed_dictionaries({"type": st.just("psd"), "size": st.integers(1, 2)}))
    return st.fixed_dictionaries({"matrix": rows(n, n) | ragged, "cone": cone},
                                 optional={"q_hint": entries})


payloads = {
    "cone_dynamics": st.integers(1, 3).flatmap(cone_dynamics_payload),
    "ns_example": st.fixed_dictionaries(
        {"endomorphism": rows(2, 2) | ragged},
        optional={"quotient_check": st.fixed_dictionaries(
            {"fibre_self_intersection": st.integers(-2, 2),
             "pull_coeff_positive": st.booleans()})}),
    "age_check": st.integers(1, 6).flatmap(lambda m: st.fixed_dictionaries(
        {"order": st.just(m), "projective_m": st.sampled_from([m, m + 1]),
         "scale_r": st.integers(1, 4), "abelian_weights": st.lists(st.integers(-2, 6),
                                                                   max_size=4)})),
    "degree_check": st.fixed_dictionaries(
        {"dim_x": st.integers(0, 4), "deg_f": st.integers(0, 100)},
        optional={"dim_y": st.integers(0, 3), "deg_g": st.integers(0, 20),
                  "invariant_subvariety_dim": st.integers(0, 4)}),
}
scenario_docs = st.sampled_from(sorted(payloads)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"schema_version": st.just("1"), "kind": st.just(kind), "payload": payloads[kind]}))


@settings(max_examples=200, deadline=None)
@given(scenario_docs)
def test_run_scenario_returns_or_raises_library_error(doc):
    try:
        report = run_scenario(doc)
        dumps_canonical(report)
        render_text(report)
    except ConecertError:
        pass


def test_all_builtin_scenarios_validate_and_roundtrip():
    for name, doc in BUILTIN_SCENARIOS.items():
        jsonschema.validate(doc, SCENARIO_SCHEMA)
        report = run_scenario(doc, seed=3)
        jsonschema.validate(report, REPORT_SCHEMA)
        text = dumps_canonical(report)
        assert dumps_canonical(json.loads(text)) == text


def test_verdict_fields_hold_no_numerics():
    for doc in BUILTIN_SCENARIOS.values():
        report = run_scenario(doc)
        for value in report["verdicts"].values():
            assert isinstance(value, (str, bool))


def test_reports_print_roots_as_isolated(monkeypatch):
    def no_refinement(self):
        raise AssertionError("a report refined a root")

    monkeypatch.setattr(AlgebraicNumber, "refine", no_refinement)
    irrational = {"schema_version": "1", "kind": "cone_dynamics",
                  "payload": {"matrix": [[0, 2], [1, 0]],
                              "cone": {"type": "polyhedral",
                                       "generators": [[1, 0], [0, 1]]}}}
    for doc in (BUILTIN_SCENARIOS["ex1"], BUILTIN_SCENARIOS["ex2"], irrational):
        report = run_scenario(doc)
        assert report["data"]["eigenvalues"]
    assert report["verdicts"]["status"] == "irrational_candidate_only"


def test_report_schema_covers_all_kinds():
    docs = list(BUILTIN_SCENARIOS.values()) + [
        {"schema_version": "1", "kind": "cone_dynamics",
         "payload": {"matrix": [[0, 2], [2, 0]],
                     "cone": {"type": "polyhedral",
                              "generators": [[1, 0], [0, 1]]}}},
        {"schema_version": "1", "kind": "degree_check",
         "payload": {"dim_x": 2, "deg_f": 36, "dim_y": 1, "deg_g": 6}},
    ]
    for doc in docs:
        report = run_scenario(doc)
        jsonschema.validate(report, REPORT_SCHEMA)
        for value in report["verdicts"].values():
            assert isinstance(value, (str, bool))


def test_selftest_exits_zero():
    result = run_cli("selftest", "--seed", "1")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "selftest passed" in result.stdout


@pytest.mark.parametrize("max_dim", ["0", "1", "-3", "9", "11", "40", "2"])
def test_selftest_max_dim_range(max_dim):
    result = run_cli("selftest", "--max-dim", max_dim, timeout=120)
    if max_dim == "2":
        assert result.returncode == 0, result.stdout + result.stderr
        return
    assert result.returncode == 2, result.stdout + result.stderr
    assert "--max-dim" in result.stderr and "Traceback" not in result.stderr
    assert result.stdout == ""


def test_scripts_run(tmp_path):
    # the README's commands: a built-in report written as JSON, then the experiment
    result = run_cli("examples", "ex1", "--json", str(tmp_path / "ex1.json"))
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "ex1.json").exists()
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cone_equivalence_experiment.py"),
         "--cases", "10", "--seed", "2"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "oracle agreement: 10/10" in result.stdout
