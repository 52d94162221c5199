"""Every library error derives from ConecertError, as `conecert.errors` says.

Every module of the package is parsed, and each `raise` must name a class
defined in `conecert.errors`, called or not; a bare re-raise is allowed.
"""
import ast
import inspect
from pathlib import Path

import pytest

from conecert import errors
from conecert.exactalg import QMatrix, QPoly

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "conecert"
LIBRARY_ERRORS = {name for name, obj in vars(errors).items()
                  if inspect.isclass(obj) and issubclass(obj, errors.ConecertError)}


def _foreign_raises(tree: ast.AST) -> list[int]:
    """Lines of the raises that name no class from `conecert.errors`."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = (target.id if isinstance(target, ast.Name)
                else target.attr if isinstance(target, ast.Attribute) else None)
        if name not in LIBRARY_ERRORS:
            found.append(node.lineno)
    return found


def test_every_raise_names_a_library_error():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    offenders = [f"{path.relative_to(PACKAGE).as_posix()}:{line}"
                 for path in modules
                 for line in _foreign_raises(ast.parse(path.read_text(encoding="utf-8")))]
    assert not offenders, offenders


def test_the_check_sees_a_foreign_raise():
    tree = ast.parse(
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('bad')\n"
        "    try:\n"
        "        raise ScenarioError('ok')\n"
        "    except ScenarioError:\n"
        "        raise\n"
        "    raise errors.InternalCheckError('ok') from None\n")
    assert _foreign_raises(tree) == [3]


def test_immutable_values_raise_a_library_attribute_error():
    for value, name in ((QPoly([1, 2]), "coeffs"), (QMatrix.identity(2), "entries")):
        with pytest.raises(errors.ImmutableValueError) as caught:
            setattr(value, name, ())
        assert isinstance(caught.value, AttributeError)
