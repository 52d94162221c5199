"""Scenario documents: schema validation, built-in scenarios, dispatch.

A scenario is a UTF-8 JSON document {schema_version, kind, payload}, checked
against the package data file `scenario.schema.json`. Matrix and vector
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
from fractions import Fraction
from importlib import resources
from typing import Any, Optional

import jsonschema

from .cones import build_cone, psd_cone_oracle
from .dynamics import (
    AbelianInvariantVerdict,
    ConeMap,
    abelian_invariant_check,
    decide_polarization,
    product_formula_check,
    q_from_degree,
)
from .errors import ConecertError, IrrationalCandidateOnlyError, ScenarioError
from .exactalg import QMatrix, roots_with_multiplicity
from .nslattice import elliptic_product_report, quotient_image_selfintersection
from .report import SCHEMA_VERSION, algebraic_number_doc, approx, exact
from .singularities import product_quotient_report

SCENARIO_SCHEMA: dict[str, Any] = json.loads(
    resources.files(__package__).joinpath("scenario.schema.json").read_text(encoding="utf-8"))


def validate_scenario(doc: dict) -> None:
    try:
        jsonschema.validate(doc, SCENARIO_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ScenarioError(f"scenario fails schema validation: {exc.message}") from exc


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
    try:
        result = decide_polarization(cm)
    except IrrationalCandidateOnlyError as exc:
        minpoly = exc.candidate_minpoly(eigs)
        report["verdicts"]["status"] = "irrational_candidate_only"
        report["verdicts"]["reason"] = f"{exc}; minimal polynomial {minpoly}"
        report["data"]["candidate_minpoly"] = exact(minpoly)
        return
    verdicts, data = report["verdicts"], report["data"]
    verdicts["status"] = result.status.value
    verdicts["reason"] = result.reason
    cert = result.certificate
    if cert is None:
        return
    verdicts.update(q_is_integer=cert.q_is_integer, semisimple=cert.semisimple,
                    eigenvalue_moduli_all_q=cert.eigenvalue_moduli_all_q,
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
    if "dim_y" in payload and "deg_g" in payload:
        ok = product_formula_check(dim_x, deg_f, payload["dim_y"], payload["deg_g"])
        report["verdicts"]["product_formula_holds"] = ok
    if "invariant_subvariety_dim" in payload and q is not None:
        dim_z = payload["invariant_subvariety_dim"]
        if dim_z >= dim_x:
            raise ScenarioError("invariant subvariety must have smaller dimension")
        verdict = abelian_invariant_check(q, dim_x, dim_z)
        report["verdicts"]["abelian_invariant"] = verdict.value
        report["verdicts"]["polarized_possible_on_torus_quotient"] = (
            verdict is AbelianInvariantVerdict.CONSISTENT)
