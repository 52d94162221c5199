"""sympy stays behind function bodies of `exactalg/algnum.py`.

Every module of the package is parsed. An import of sympy (an `import` or
`from` statement, `__import__` or `importlib.import_module`) is allowed only
in `exactalg/algnum.py`, and there only inside a function body, so that
importing the package, every decision and the selftest load no sympy.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "conecert"
ALLOWED_MODULE = "exactalg/algnum.py"


def _is_sympy(name: str) -> bool:
    return name.split(".")[0] == "sympy"


def _imported_names(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    if (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("__import__", "import_module")):
        return [node.args[0].value]
    return []


def _sympy_imports(tree: ast.AST) -> list[tuple[bool, int]]:
    """(inside a function body, line) of each import of sympy."""
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if any(_is_sympy(name) for name in _imported_names(child)):
                found.append((in_function, child.lineno))
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(tree, False)
    return found


def test_only_algnum_function_bodies_import_sympy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    offenders, allowed = [], 0
    for path in modules:
        name = path.relative_to(PACKAGE).as_posix()
        for in_function, line in _sympy_imports(ast.parse(path.read_text(encoding="utf-8"))):
            if name == ALLOWED_MODULE and in_function:
                allowed += 1
            else:
                offenders.append(f"{name}:{line}")
    assert not offenders, offenders
    assert allowed > 0


def test_the_check_sees_a_sympy_import():
    tree = ast.parse(
        "import sympy\n"
        "from sympy.polys import ring\n"
        "import sympyx, os\n"
        "from . import sympy\n"
        "class A:\n"
        "    from sympy import QQ\n"
        "    def f(self):\n"
        "        import os, sympy.polys\n"
        "        return __import__('sympy'), importlib.import_module('sympy.polys')\n")
    assert _sympy_imports(tree) == [(False, 1), (False, 2), (False, 6), (True, 8), (True, 9),
                                    (True, 9)]
