"""No public function, class or method of the package goes uncalled.

Every name read in a module of the package (not the `__init__.py` export
lists) or in a script under `scripts/` counts as a use, as a bare name or
as an attribute. A public module-level function or class, or a public
method, whose name is never used that way is dead API: delete it with its
tests, or list it in ALLOWED with the reason it stays.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conecert"

TRACED = "perfbench/spans.py traces it, but no command or module calls it"
ALLOWED = {
    "interior_eigenvector": TRACED,
    "QPoly.resultant": TRACED,
    "spectral_projector": TRACED,
    "AlgebraicNumber.refine": TRACED,
    "IrrationalCandidateOnlyError": "perfbench/workloads.py imports it; nothing raises it",
}


def _trees() -> list[ast.AST]:
    files = [p for p in sorted(PACKAGE.rglob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    return [ast.parse(p.read_text(encoding="utf-8")) for p in files]


def _uncalled(trees: list[ast.AST]) -> list[str]:
    """Public module-level functions and classes, and public methods as
    Class.method, whose names no tree reads."""
    used: set[str] = set()
    defined: list[tuple[str, str]] = []     # (qualified name, bare name)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{item.name}", item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)]
    return sorted(qualified for qualified, name in defined
                  if not name.startswith("_") and name not in used)


def test_every_public_name_has_a_caller():
    uncalled = _uncalled(_trees())
    assert sorted(ALLOWED) == [name for name in uncalled if name in ALLOWED], \
        "an allowed name has a caller now, or is gone: take it off ALLOWED"
    assert [name for name in uncalled if name not in ALLOWED] == []


def test_the_check_sees_an_uncalled_name():
    tree = ast.parse(
        "class QMatrix:\n"
        "    def rank(self): return 1\n"
        "    def nullspace(self): return []\n"
        "    def _echelon(self): return []\n"
        "def char_poly(m: QMatrix): return m.rank()\n"
        "def min_poly(m): return char_poly(m)\n"
        "def _helper(): pass\n")
    assert _uncalled([tree]) == ["QMatrix.nullspace", "min_poly"]
