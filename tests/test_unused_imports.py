"""No module imports a name it never uses.

Every module of the package except the `__init__.py` export lists, and
every script under `scripts/`, is parsed; a name bound by an import must be
read somewhere in the same file, as a name or an attribute root.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conecert"


def _unused_imports(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of each imported name the tree never reads."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((name, line) for name, line in imported.items() if name not in used)


def test_no_module_or_script_imports_an_unused_name():
    files = [p for p in sorted(PACKAGE.rglob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    assert len(files) > 10
    offenders = [f"{path.relative_to(ROOT).as_posix()}:{line} {name}"
                 for path in files
                 for name, line in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert not offenders, offenders


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os, random\nfrom typing import Optional, Sequence\n"
                     "from __future__ import annotations\n"
                     "def f(x: Optional[int]) -> None:\n    return os.path.sep\n")
    assert _unused_imports(tree) == [("Sequence", 2), ("random", 1)]
