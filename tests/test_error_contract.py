"""Every library error derives from ConecertError, as `conecert.errors` says.

Every module of the package is parsed, and each `raise` must name a class
defined in `conecert.errors`, called or not; a bare re-raise is allowed.
"""
import ast
import inspect
from pathlib import Path

import pytest

from conecert import errors
from conecert.exactalg import QMatrix, QPoly, has_positive_irrational_root

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


@pytest.mark.parametrize("text", ["1/0", "abc"])
def test_malformed_rational_strings_raise_a_library_error(text):
    with pytest.raises(errors.PreconditionViolatedError):
        QPoly([text])


def test_roots_of_the_zero_polynomial_raise_a_library_error():
    with pytest.raises(errors.ZeroPolynomialError):
        has_positive_irrational_root(QPoly([]))


def test_empty_columns_raise_a_library_error():
    with pytest.raises(errors.EmptyInputError):
        QMatrix.from_columns([])


@pytest.mark.parametrize("read", [lambda m: m.entry(0, 2), lambda m: m.entry(2, 0),
                                  lambda m: m.entry(-1, 0), lambda m: m.row(2),
                                  lambda m: m.row(-1), lambda m: m.column(2),
                                  lambda m: m.column(-1)])
def test_an_index_outside_the_matrix_raises_a_library_error(read):
    m = QMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(errors.DimensionMismatchError):
        read(m)
    assert (m.entry(1, 0), m.row(1), m.column(1)) == (3, (3, 4), (2, 4))
