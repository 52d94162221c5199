"""Scenario documents: schema validation, built-in scenarios, dispatch.

A scenario is a UTF-8 JSON document {schema_version, kind, payload}, checked
against the package data file `scenario.schema.json` by `validate_scenario`.
Its checker knows exactly the JSON Schema keywords that file uses: `type`,
`required`, `additionalProperties`, `properties`, `const`, `enum`, `allOf`,
`if`, `then`, `items`, `oneOf`, `pattern`, `minItems` and `minimum`, with
`$schema` and `title` read as annotations; loading a schema with any other
keyword raises InternalCheckError. `integer` means a JSON integer, never a
float: 2.0 is rejected where draft 7 would accept it. Matrix and vector
entries are integers or "p/q" strings; decimal floats are rejected by the
schema so exact values survive the round trip. Data the schema cannot rule
out (ragged rows, a zero denominator, a non-integer endomorphism entry) is
rejected while parsing, with ScenarioError. The `builtin` registry carries
the three bundled demonstration scenarios: the product-of-elliptic-curves
pullback (ex1), the quotient-surface self-intersection contradiction stacked
on it (ex2), and the cyclic quotient of projective space times a torus power
(ex-xu).
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator, Optional

from .cones import build_cone, psd_cone_oracle
from .dynamics import (
    AbelianInvariantVerdict,
    ConeMap,
    PolarizationStatus,
    abelian_invariant_check,
    decide_polarization,
    product_formula_check,
    q_from_degree,
)
from .errors import ConecertError, InternalCheckError, ScenarioError
from .exactalg import QMatrix, roots_with_multiplicity
from .nslattice import elliptic_product_report, quotient_image_selfintersection
from .report import SCHEMA_VERSION, algebraic_number_doc, approx, exact
from .singularities import product_quotient_report

# -- schema validation ----------------------------------------------------------------------

_KEYWORDS = frozenset({
    "$schema", "title", "type", "required", "additionalProperties", "properties", "const",
    "enum", "allOf", "if", "then", "items", "oneOf", "pattern", "minItems", "minimum"})
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
}


def _checked_schema(schema, path: str = "#"):
    """schema itself, once every keyword and type name in it, at any depth,
    is one `_schema_errors` checks."""
    if isinstance(schema, bool):
        return schema
    if not isinstance(schema, dict):
        raise InternalCheckError(f"scenario schema at {path} is not a schema")
    unknown = sorted(schema.keys() - _KEYWORDS)
    if schema.get("type", "object") not in _TYPES:
        unknown.append(f"type {schema['type']!r}")
    if unknown:
        raise InternalCheckError(f"scenario schema at {path} uses {', '.join(unknown)}, "
                                 "which the validator does not check")
    subschemas = [(key, schema[key]) for key in ("additionalProperties", "if", "then", "items")
                  if key in schema]
    subschemas += [(f"{key}/{i}", sub) for key in ("allOf", "oneOf")
                   for i, sub in enumerate(schema.get(key, ()))]
    subschemas += [(f"properties/{name}", sub)
                   for name, sub in schema.get("properties", {}).items()]
    for where, sub in subschemas:
        _checked_schema(sub, f"{path}/{where}")
    return schema


def _json_equal(a, b) -> bool:
    # JSON tells true from 1, where Python's == does not
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _schema_errors(value, schema, path: str) -> Iterator[tuple[str, str]]:
    """(JSON pointer, message) of each way value fails schema, lazily."""
    if schema is True:
        return
    if schema is False:
        yield path, "is not allowed"
        return
    if "type" in schema and not _TYPES[schema["type"]](value):
        yield path, f"is not of type {schema['type']}"
    if "const" in schema and not _json_equal(value, schema["const"]):
        yield path, f"is not {schema['const']!r}"
    if "enum" in schema and not any(_json_equal(value, e) for e in schema["enum"]):
        yield path, f"is not one of {schema['enum']}"
    if "pattern" in schema and isinstance(value, str) and not re.search(schema["pattern"], value):
        yield path, f"does not match {schema['pattern']!r}"
    if ("minimum" in schema and isinstance(value, (int, float)) and not isinstance(value, bool)
            and value < schema["minimum"]):
        yield path, f"is less than the minimum of {schema['minimum']}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield path, f"has fewer than {schema['minItems']} items"
        if "items" in schema:
            for i, item in enumerate(value):
                yield from _schema_errors(item, schema["items"], f"{path}/{i}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"lacks the required property {key!r}"
        properties = schema.get("properties", {})
        for key, item in value.items():
            sub = properties.get(key, schema.get("additionalProperties", True))
            # a JSON pointer writes ~ as ~0 and / as ~1
            step = str(key).replace("~", "~0").replace("/", "~1")
            yield from _schema_errors(item, sub, f"{path}/{step}")
    for sub in schema.get("allOf", ()):
        yield from _schema_errors(value, sub, path)
    if "if" in schema and _is_valid(value, schema["if"]):
        yield from _schema_errors(value, schema.get("then", True), path)
    if "oneOf" in schema:
        matched = sum(_is_valid(value, sub) for sub in schema["oneOf"])
        if matched != 1:
            yield path, f"matches {matched} of the {len(schema['oneOf'])} oneOf alternatives, not 1"


def _is_valid(value, schema) -> bool:
    return next(_schema_errors(value, schema, ""), None) is None


SCENARIO_SCHEMA: dict[str, Any] = _checked_schema(json.loads(
    Path(__file__).with_name("scenario.schema.json").read_text(encoding="utf-8")))


def validate_scenario(doc: dict) -> None:
    """Raise ScenarioError naming the JSON pointer of the first node of doc
    that fails `SCENARIO_SCHEMA`."""
    for path, message in _schema_errors(doc, SCENARIO_SCHEMA, ""):
        raise ScenarioError(f"scenario fails schema validation at {path or '/'}: {message}")


def _parse_entry(v) -> Fraction:
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ScenarioError(f"entry {v!r} has a zero denominator") from None
    except ValueError as exc:
        raise ScenarioError(f"entry cannot be read: {exc}") from None


def _parse_matrix(rows) -> QMatrix:
    parsed = [[_parse_entry(v) for v in row] for row in rows]
    if any(len(row) != len(parsed[0]) for row in parsed):
        raise ScenarioError("matrix rows differ in length")
    return QMatrix.from_rows(parsed)


# -- built-in scenarios ---------------------------------------------------------------------


BUILTIN_SCENARIOS: dict[str, dict] = {
    "ex1": {
        "schema_version": SCHEMA_VERSION,
        "name": "ex1",
        "kind": "ns_example",
        "payload": {"endomorphism": [[1, -5], [1, 1]]},
    },
    "ex2": {
        "schema_version": SCHEMA_VERSION,
        "name": "ex2",
        "kind": "ns_example",
        "payload": {
            "endomorphism": [[1, -5], [1, 1]],
            "quotient_check": {"fibre_self_intersection": 0,
                               "pull_coeff_positive": True},
        },
    },
    "ex-xu": {
        "schema_version": SCHEMA_VERSION,
        "name": "ex-xu",
        "kind": "age_check",
        "payload": {"order": 4, "projective_m": 4, "scale_r": 2,
                    "abelian_weights": [1, 1, 1]},
    },
}
BUILTIN_SCENARIOS["ex-xu-4-3"] = dict(BUILTIN_SCENARIOS["ex-xu"], name="ex-xu-4-3")


# -- dispatch ----------------------------------------------------------------------------------


def run_scenario(doc: dict, seed: int = 0, max_dim: Optional[int] = None) -> dict:
    """Validate and execute one scenario; returns the machine-readable report."""
    validate_scenario(doc)
    kind = doc["kind"]
    payload = doc["payload"]
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "scenario_name": doc.get("name", ""),
        "seed": seed,
        "verdicts": {},
        "data": {},
    }
    handler = {
        "cone_dynamics": _run_cone_dynamics,
        "ns_example": _run_ns_example,
        "age_check": _run_age_check,
        "degree_check": _run_degree_check,
    }[kind]
    handler(payload, report, max_dim)
    return report


def _run_cone_dynamics(payload: dict, report: dict, max_dim: Optional[int]) -> None:
    matrix = _parse_matrix(payload["matrix"])
    hint = _parse_entry(payload["q_hint"]) if "q_hint" in payload else None
    cone_spec = payload["cone"]
    kwargs = {} if max_dim is None else {"max_dim": max_dim}
    try:
        if cone_spec["type"] == "polyhedral":
            cone = build_cone([[_parse_entry(v) for v in g]
                               for g in cone_spec["generators"]], **kwargs)
        else:
            cone = psd_cone_oracle(cone_spec["size"], **kwargs)
        cm = ConeMap.create(matrix, cone)
    except ConecertError as exc:
        raise ScenarioError(f"scenario setup failed: {exc}") from exc

    cp = cm.char_poly
    report["data"]["char_poly"] = exact(cp)
    report["data"]["char_poly_str"] = str(cp)
    eigs = roots_with_multiplicity(cp)
    report["data"]["eigenvalues"] = [algebraic_number_doc(r, m) for r, m in eigs]
    if not cm.invariance_checked:
        report["verdicts"]["status"] = "invariance_failed"
        report["verdicts"]["reason"] = ("the map or its inverse moves the cone "
                                        "off itself")
        return
    result = decide_polarization(cm)
    if result.status is PolarizationStatus.IRRATIONAL_ONLY:
        minpoly = result.candidate_minpoly(eigs)
        report["verdicts"]["status"] = "irrational_candidate_only"
        report["verdicts"]["reason"] = f"{result.reason}; minimal polynomial {minpoly}"
        report["data"]["candidate_minpoly"] = exact(minpoly)
        return
    verdicts, data = report["verdicts"], report["data"]
    verdicts["status"] = result.status.value
    verdicts["reason"] = result.reason
    cert = result.certificate
    if cert is None:
        return
    # a POLARIZED verdict means r(M) = 0 and every root of r has modulus q
    verdicts.update(q_is_integer=cert.q_is_integer, semisimple=True,
                    eigenvalue_moduli_all_q=True,
                    invariance=cert.invariance, cone_kind=cert.cone_kind)
    data.update(q=exact(cert.q), witness=exact(list(cert.witness)),
                projector=exact(cert.projector))
    if cert.transverse_char_poly is not None:
        data["transverse_char_poly"] = exact(cert.transverse_char_poly)
    if hint is not None:
        verdicts["q_matches_hint"] = cert.q == hint
        data["q_hint"] = exact(hint)


def _run_ns_example(payload: dict, report: dict, max_dim: Optional[int]) -> None:
    endo = _parse_matrix(payload["endomorphism"])
    if not endo.is_integer:
        raise ScenarioError("endomorphism entries must be integers")
    rep = elliptic_product_report(endo)
    report["verdicts"]["verdict"] = rep.verdict
    report["verdicts"]["polarized_above_one"] = rep.polarized_above_one
    report["verdicts"]["witness_is_ample"] = rep.witness_is_ample
    report["verdicts"]["degree_consistent"] = rep.degree_consistent
    data = report["data"]
    data["rho"] = exact(rep.rho)
    data["char_poly"] = exact(rep.char_poly)
    data["char_poly_str"] = str(rep.char_poly)
    data["eigenvalues"] = [algebraic_number_doc(r, m) for r, m in rep.eigenvalues]
    data["real_eigenvalue_count"] = exact(rep.real_eigenvalue_count)
    if rep.spectral_radius is not None:
        data["spectral_radius"] = exact(rep.spectral_radius)
    else:
        data["spectral_radius"] = approx(max(abs(root.approx()) for root, _ in rep.eigenvalues))
    if rep.q is not None:
        data["q"] = exact(rep.q)
    if rep.witness_class is not None:
        data["witness_class"] = exact(rep.witness_class.matrix())
    data["deg_f"] = exact(rep.deg_f)

    if "quotient_check" in payload:
        qc = payload["quotient_check"]
        res = quotient_image_selfintersection(qc["fibre_self_intersection"],
                                              qc["pull_coeff_positive"])
        report["verdicts"]["quotient_verdict"] = res.verdict.value
        report["verdicts"]["quotient_ample_possible"] = res.ample_possible
        data["quotient_image_self_intersection_sign"] = exact(res.image_sq)
        if res.verdict.value == "contradicts_ampleness":
            report["verdicts"]["quotient_conclusion"] = (
                "image class is not ample, so the quotient surface needs a "
                "second independent class")


def _run_age_check(payload: dict, report: dict, max_dim: Optional[int]) -> None:
    m = payload["order"]
    if payload["projective_m"] != m:
        raise ScenarioError("projective_m must equal the cyclic order")
    weights = payload["abelian_weights"]
    try:
        rep = product_quotient_report(m, len(weights), payload["scale_r"], weights)
    except ConecertError as exc:
        raise ScenarioError(f"age scenario rejected: {exc}") from exc
    report["verdicts"]["verdict"] = rep.verdict.value
    report["verdicts"]["pseudo_reflection_free"] = rep.pseudo_reflection_free
    report["verdicts"]["inside_certified_window"] = rep.inside_certified_window
    data = report["data"]
    data["m"] = exact(rep.m)
    data["n"] = exact(rep.n)
    data["r"] = exact(rep.r)
    data["q"] = exact(rep.q)
    data["dim_x"] = exact(rep.dim_x)
    data["deg_f"] = exact(rep.deg_f)
    if rep.age_report.min_age_nontrivial is not None:
        data["min_age_nontrivial"] = exact(rep.age_report.min_age_nontrivial)
    data["ages"] = [
        {"power": exact(entry.power),
         "component_eigenclass": exact(entry.component.eigenclass),
         "component_dim": exact(entry.component.dim),
         "normal_weights": exact(list(entry.component.weights)),
         "age": exact(entry.total_age),
         "nonzero_weights": exact(entry.nonzero_weights)}
        for entry in rep.age_report.entries
    ]
    data["reported_not_verified"] = {
        key: exact(value) for key, value in rep.reported_not_verified.items()
    }


def _run_degree_check(payload: dict, report: dict, max_dim: Optional[int]) -> None:
    dim_x = payload["dim_x"]
    deg_f = payload["deg_f"]
    dim_z = payload.get("invariant_subvariety_dim")
    if dim_z is not None and dim_z >= dim_x:
        raise ScenarioError("invariant subvariety must have smaller dimension")
    data = report["data"]
    data["dim_x"] = exact(dim_x)
    data["deg_f"] = exact(deg_f)
    try:
        q = q_from_degree(deg_f, dim_x)
        data["q"] = exact(q)
        report["verdicts"]["has_integer_scaling"] = True
    except ConecertError:
        q = None
        report["verdicts"]["has_integer_scaling"] = False
    # the schema requires dim_y and deg_g together
    if "dim_y" in payload:
        ok = product_formula_check(dim_x, deg_f, payload["dim_y"], payload["deg_g"])
        report["verdicts"]["product_formula_holds"] = ok
    if dim_z is not None and q is not None:
        verdict = abelian_invariant_check(q, dim_x, dim_z)
        report["verdicts"]["abelian_invariant"] = verdict.value
        report["verdicts"]["polarized_possible_on_torus_quotient"] = (
            verdict is AbelianInvariantVerdict.CONSISTENT)
