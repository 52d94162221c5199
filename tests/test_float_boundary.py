"""No float on any verdict path: only the report layer makes a float.

Every module of the package is parsed, and a call to `float` or `complex`
is allowed only in `report.py` and in `AlgebraicNumber.approx`, which gives
the report its decimal convenience values.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "conecert"
ALLOWED_FUNCTIONS = {("exactalg/algnum.py", "AlgebraicNumber.approx")}


def _float_calls(tree: ast.AST):
    """(qualified name of the enclosing function, line) of each float or
    complex call."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in ("float", "complex")):
                found.append((".".join(scope), child.lineno))
            visit(child, inner)

    visit(tree, ())
    return found


def test_only_the_report_layer_makes_floats():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    offenders = []
    for path in modules:
        name = path.relative_to(PACKAGE).as_posix()
        if name == "report.py":
            continue
        for scope, line in _float_calls(ast.parse(path.read_text(encoding="utf-8"))):
            if (name, scope) not in ALLOWED_FUNCTIONS:
                offenders.append(f"{name}:{line} in {scope or '<module>'}")
    assert not offenders, offenders


def test_the_check_sees_a_float_call():
    tree = ast.parse("class A:\n    def f(self):\n        return float(1) + complex(2)\n")
    assert _float_calls(tree) == [("A.f", 3), ("A.f", 3)]
