import copy
import json
import runpy
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert import scenarios
from conecert.errors import ConecertError, InternalCheckError, ScenarioError
from conecert.exactalg import AlgebraicNumber, qmatrix
from conecert.report import dumps_canonical, render_text
from conecert.scenarios import (
    BUILTIN_SCENARIOS,
    SCENARIO_SCHEMA,
    run_scenario,
    validate_scenario,
)
from conecert.singularities import MAX_CYCLIC_ORDER

ROOT = Path(__file__).resolve().parent.parent
REPORT_SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())


QUADRANT = {"type": "polyhedral", "generators": [[1, 0], [0, 1]]}
OCTANT = {"type": "polyhedral", "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


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
    assert result.stderr.startswith("scenario error: scenario fails schema validation at /:")
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


@pytest.mark.parametrize("payload, message", [
    ({"dim_x": 2, "deg_f": 36, "dim_y": 1}, "lacks the required property 'deg_g'"),
    ({"dim_x": 2, "deg_f": 36, "deg_g": 6}, "lacks the required property 'dim_y'"),
    ({"dim_x": 2, "deg_f": 35, "invariant_subvariety_dim": 2},
     "invariant subvariety must have smaller dimension"),
], ids=["dim_y-alone", "deg_g-alone", "subvariety-without-scaling"])
def test_degree_scenario_rejected_whatever_the_degree(tmp_path, payload, message):
    """Half of the product-formula pair, or an invariant subvariety as large
    as X, is a scenario error even when deg_f is no perfect power."""
    path = tmp_path / "deg.json"
    path.write_text(json.dumps({"schema_version": "1", "kind": "degree_check",
                                "payload": payload}))
    result = run_cli("analyze", str(path))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("scenario error:") and message in result.stderr
    assert result.stdout == ""


NO_SYMPY_SCRIPT = """
import sys
from conecert.cli import main
from conecert.scenarios import run_scenario

def unloaded(step):
    for name in ("sympy", "jsonschema"):
        assert name not in sys.modules, name + " loaded by " + step

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
for name in ("ex1", "ex2"):
    assert main(["examples", name, "--json", sys.argv[1]]) == 0
    unloaded("examples " + name)
    assert "conecert.selftest" not in sys.modules, "examples " + name + " loaded the selftest"
report = run_scenario({"schema_version": "1", "kind": "cone_dynamics", "payload": {
    "matrix": [[0, 5], [1, 0]],
    "cone": {"type": "polyhedral", "generators": [[1, 0], [0, 1]]}}})
assert report["verdicts"]["status"] == "irrational_candidate_only"
assert report["data"]["candidate_minpoly"]["value"] == ["-5", "0", "1"]
unloaded("an irrational-only map with eigenvalues -+ sqrt 5")
# the companion matrix of t^3 - 3t + 1, whose three roots are real
report = run_scenario({"schema_version": "1", "kind": "cone_dynamics", "payload": {
    "matrix": [[0, 0, -1], [1, 0, 3], [0, 1, 0]],
    "cone": {"type": "polyhedral", "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}})
assert [e["is_real"] for e in report["data"]["eigenvalues"]] == [True] * 3
unloaded("a map with an irreducible cubic of three real roots")

from fractions import Fraction
from conecert import ConeMap, build_cone, decide_polarization
from conecert.dynamics import PolarizationStatus
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
    result = decide_polarization(ConeMap.create(QMatrix.from_rows(rows), quadrant))
    assert result.status is PolarizationStatus.IRRATIONAL_ONLY, rows
    unloaded(f"the irrational-only refusal of {rows}")
"""


def test_rational_answers_load_no_sympy(tmp_path):
    # a fresh interpreter, since this one has imported sympy and jsonschema for
    # other tests; decisions load neither, refusals included, and neither do
    # reports on quadratic or real-rooted spectra; only `selftest` loads the
    # selftest module
    result = subprocess.run([sys.executable, "-c", NO_SYMPY_SCRIPT, str(tmp_path / "r.json")],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_cli_import_loads_no_resource_machinery():
    # without `site`, whose .pth files may load importlib.resources first,
    # importing the CLI loads neither it nor the zip and temp-file modules
    # it pulls in
    script = ("import sys, conecert.cli\n"
              "names = ('importlib.resources', 'importlib.readers', 'zipfile', 'tempfile')\n"
              "print([name for name in names if name in sys.modules])\n")
    result = subprocess.run([sys.executable, "-S", "-c", script],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_unknown_example_is_a_usage_error():
    result = run_cli("examples", "bogus")
    assert result.returncode == 2
    assert "invalid choice" in result.stderr
    assert "Traceback" not in result.stderr


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


@pytest.mark.parametrize("kind, payload, where", [
    ("age_check", {"order": 3.0, "projective_m": 3, "scale_r": 2,
                   "abelian_weights": [1, 1, 1]}, "/payload/order"),
    ("degree_check", {"dim_x": 2.0, "deg_f": 36}, "/payload/dim_x"),
    ("ns_example", {"endomorphism": [[1, -5], [1, 2.0]]}, "/payload/endomorphism/1/1"),
    ("cone_dynamics", {"matrix": [[0, 2.0], [2, 0]], "cone": QUADRANT}, "/payload/matrix/0/1"),
], ids=["age-order", "degree-dim", "ns-entry", "cone-entry"])
def test_integral_floats_rejected(tmp_path, kind, payload, where):
    """Draft 7 counts 2.0 as an integer; the scenario schema does not, so no
    float reaches the analysis."""
    path = tmp_path / "floats.json"
    path.write_text(json.dumps({"schema_version": "1", "kind": kind, "payload": payload}))
    result = run_cli("analyze", str(path))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"scenario error: scenario fails schema validation at {where}:")
    assert result.stdout == ""


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


@pytest.mark.parametrize("where, keyword, value", [
    (("allOf", 0, "then", "properties", "payload", "properties", "matrix"), "maxItems", 8),
    ((), "else", {}),
    (("properties", "name"), "type", "number"),
], ids=["maxItems", "else", "type-number"])
def test_schema_with_an_unchecked_keyword_is_refused(where, keyword, value):
    schema = copy.deepcopy(SCENARIO_SCHEMA)
    node = schema
    for step in where:
        node = node[step]
    node[keyword] = value
    with pytest.raises(InternalCheckError, match=keyword):
        scenarios._checked_schema(schema)
    assert scenarios._checked_schema(copy.deepcopy(SCENARIO_SCHEMA)) == SCENARIO_SCHEMA


def or_float(ints):
    """ints, or now and then the same value as a float, or that plus 1/2."""
    return st.one_of(ints, ints, ints, ints.map(float), ints.map(lambda n: n + 0.5))


entries = st.integers(-3, 3) | st.sampled_from(["1/2", "-3/2", "4/2", "1/0", LONG,
                                                2.0, -1.0, 0.5])
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
        {"order": or_float(st.just(m)), "projective_m": st.sampled_from([m, m + 1]),
         "scale_r": or_float(st.integers(1, 4)),
         "abelian_weights": st.lists(or_float(st.integers(-2, 6)), max_size=4)})),
    "degree_check": st.fixed_dictionaries(
        {"dim_x": or_float(st.integers(0, 4)), "deg_f": or_float(st.integers(0, 100))},
        optional={"dim_y": or_float(st.integers(0, 3)), "deg_g": or_float(st.integers(0, 20)),
                  "invariant_subvariety_dim": or_float(st.integers(0, 4))}),
}
scenario_docs = st.sampled_from(sorted(payloads)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"schema_version": st.just("1"), "kind": st.just(kind), "payload": payloads[kind]}))


@settings(max_examples=600, deadline=None)
@given(scenario_docs)
def test_run_scenario_returns_or_raises_library_error(doc):
    try:
        report = run_scenario(doc)
        dumps_canonical(report)
        render_text(report)
    except InternalCheckError as exc:     # exit 3: a crash, not a scenario error
        pytest.fail(f"internal assertion on {doc}: {exc}")
    except ConecertError:
        pass


# The reference: draft 7 with `integer` read as an int that is no bool, the one
# rule in which the scenario checker is stricter than the draft.
STRICT_DRAFT7 = jsonschema.validators.extend(
    jsonschema.Draft7Validator,
    type_checker=jsonschema.Draft7Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, v: isinstance(v, int) and not isinstance(v, bool)))
REFERENCE = STRICT_DRAFT7(SCENARIO_SCHEMA)
ODD_VALUES = [None, True, False, 0, -1, 2, 10 ** 30, 2.0, -3.0, 0.5, 1e300, "", "1\n",
              "-0/3", "1/2", " 1", "1/-2", "+1", "0x1", "x", "1", "psd", "polyhedral",
              "cone_dynamics", "age_check", [], [1], [[1]], [["1/2"]], {}, {"type": "psd"}]
STRAY_KEYS = ["name", "kind", "payload", "q_hint", "quotient_check", "cone", "size",
              "generators", "dim_y", "deg_g", "invariant_subvariety_dim", "extra", ""]


def _nodes(value, path=()):
    """(path, node) of value and of every value inside it."""
    yield path, value
    inner = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in inner:
        yield from _nodes(item, path + (key,))


@st.composite
def mutated_docs(draw):
    """A built-in or fuzzed scenario with one to three keys dropped, stray
    keys added, or values swapped for odd ones or for other nodes."""
    doc = copy.deepcopy(draw(st.sampled_from(list(BUILTIN_SCENARIOS.values())) | scenario_docs))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        path, node = draw(st.sampled_from(nodes))
        value = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)
                                   | st.sampled_from(nodes).map(lambda pn: pn[1])))
        action = draw(st.sampled_from(["drop", "add", "swap"]))
        if action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(STRAY_KEYS))] = value
        elif action == "add" and isinstance(node, list):
            node.append(value)
        elif not path:
            doc = value
        else:
            parent = doc
            for step in path[:-1]:
                parent = parent[step]
            if action == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
    return doc


@settings(max_examples=600, deadline=None)
@given(mutated_docs())
def test_validator_accepts_what_strict_draft7_accepts(doc):
    try:
        validate_scenario(doc)
        accepted = True
    except ScenarioError as exc:
        assert str(exc).startswith("scenario fails schema validation at /")
        accepted = False
    assert accepted == REFERENCE.is_valid(doc), doc


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


def test_selftest_imports_no_sympy():
    """The selftest reads rational eigenvalues with `rational_roots`, so the
    command as a user runs it never imports sympy."""
    result = subprocess.run([sys.executable, "-X", "importtime", "-m", "conecert",
                             "selftest", "--seed", "1"], capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "selftest passed" in result.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")]
    assert "conecert.selftest" in imported
    assert [name for name in imported if name.split(".")[0] == "sympy"] == []


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


def test_experiment_decides_each_case_once(monkeypatch, capsys):
    """The experiment tallies the suite's own outcomes instead of deciding
    every case a second time."""
    from conecert import dynamics, selftest
    calls = []
    for module in (dynamics, selftest):
        decide = module.decide_polarization
        monkeypatch.setattr(module, "decide_polarization",
                            lambda cm, decide=decide: calls.append(cm) or decide(cm))
    script = ROOT / "scripts" / "cone_equivalence_experiment.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--cases", "10", "--seed", "2"])
    monkeypatch.setattr(sys, "path", list(sys.path))   # the script prepends src
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(script), run_name="__main__")
    assert stop.value.code == 0
    assert "oracle agreement: 10/10" in capsys.readouterr().out
    assert len(calls) == 10
