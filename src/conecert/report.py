"""Machine-readable and text reports.

Every numeric leaf in the machine-readable document is wrapped in an
exactness tag: {"tag": "exact", "value": <string>} for rationals and
integers serialized as strings, or {"tag": "approx", "value": <float>} for
decimal conveniences. Verdict fields are strings and booleans only, so no
approximate value can ever flow into a verdict. Serialization is canonical
(sorted keys, fixed separators) so identical analyses produce identical
bytes; wall-clock timing therefore appears only in the text rendering. A
value too long to print or past the float range raises ScenarioError.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from .errors import InternalCheckError, ScenarioError
from .exactalg import AlgebraicNumber, QMatrix, QPoly

SCHEMA_VERSION = "1"


# -- tagged values -----------------------------------------------------------------


def exact(value) -> dict:
    """Tag an exact rational/integer scalar, vector, or matrix."""
    return {"tag": "exact", "value": _exact_payload(value)}


def _exact_payload(value):
    if isinstance(value, (int, Fraction)):
        return _rat_str(value)
    if isinstance(value, QMatrix):
        return [[_rat_str(value.entry(i, j)) for j in range(value.cols)]
                for i in range(value.rows)]
    if isinstance(value, QPoly):
        return [_rat_str(c) for c in value.coeffs]
    if isinstance(value, (tuple, list)):
        return [_exact_payload(v) for v in value]
    raise InternalCheckError(f"cannot tag {type(value).__name__} as exact")


def _rat_str(x) -> str:
    x = Fraction(x)
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError as exc:
        raise ScenarioError(f"result cannot be printed: {exc}") from None


def approx(value: float) -> dict:
    return {"tag": "approx", "value": float(value)}


def algebraic_number_doc(root: AlgebraicNumber, multiplicity: int) -> dict:
    try:
        z = root.approx()
    except OverflowError as exc:
        raise ScenarioError(f"result cannot be printed: {exc}") from None
    return {
        "minpoly": exact(root.minpoly),
        "minpoly_str": str(root.minpoly),
        "box": exact(list(root.box)),
        "is_real": root.is_real,
        "multiplicity": exact(multiplicity),
        "approx_re": approx(z.real),
        "approx_im": approx(z.imag),
    }


# -- canonical serialization -----------------------------------------------------------


def dumps_canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True) + "\n"


# -- text rendering ----------------------------------------------------------------------


def _fmt_tagged(v) -> str:
    if isinstance(v, dict) and "tag" in v:
        return f"{v['value']}" if v["tag"] == "exact" else f"~{v['value']}"
    if isinstance(v, dict):
        inner = ", ".join(f"{k}={_fmt_tagged(v[k])}" for k in sorted(v))
        return f"{{{inner}}}"
    return str(v)


def render_text(report: dict, elapsed: Optional[float] = None) -> str:
    lines = [f"kind: {report['kind']}  (schema {report['schema_version']})"]
    if report.get("scenario_name"):
        lines.append(f"scenario: {report['scenario_name']}")
    verdicts = report.get("verdicts", {})
    for key in sorted(verdicts):
        lines.append(f"  {key}: {_fmt_tagged(verdicts[key])}")
    data = report.get("data", {})
    for key in sorted(data):
        value = data[key]
        if isinstance(value, list):
            lines.append(f"  {key}: [{len(value)} entries]")
        else:
            lines.append(f"  {key}: {_fmt_tagged(value)}")
    if elapsed is not None:
        lines.append(f"  timing: {elapsed:.3f}s (text report only)")
    return "\n".join(lines) + "\n"
