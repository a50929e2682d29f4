"""One error family: the library refuses a caller's argument with a
``ValidationError`` (CLI exit code 2), which is also a ``ValueError``."""

import ast
from pathlib import Path

import pytest

from circleinv.errors import ValidationError
from circleinv.hilbert import oracle_coefficients
from circleinv.hironaka import HironakaData, gammas_cm
from circleinv.laurent import gammas
from circleinv.weights import validate

SOURCE = Path(__file__).resolve().parent.parent / "src" / "circleinv"


def plain_value_error_raises(node, scope=()):
    """The dotted scope of every ``raise ValueError`` (called or bare) below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from plain_value_error_raises(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            raised = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(raised, ast.Name) and raised.id == "ValueError":
                yield ".".join(scope)
        yield from plain_value_error_raises(child, scope)


def test_validation_error_is_a_value_error():
    assert issubclass(ValidationError, ValueError)


def test_no_plain_value_error_raised():
    # only RationalFunction.__init__'s guard against direct construction, an
    # internal misuse that exits 3, raises a plain ValueError
    found = [
        (path.name, scope)
        for path in sorted(SOURCE.glob("*.py"))
        for scope in plain_value_error_raises(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [("exact.py", "RationalFunction.__init__")]


@pytest.mark.parametrize("upto", [True, 1.5])
@pytest.mark.parametrize(
    "call",
    [
        lambda upto: gammas(validate((-1, 2, 3)), upto),
        lambda upto: oracle_coefficients(validate((-1, 2, 3)), upto),
        lambda upto: gammas_cm(upto, HironakaData((2, 4), (0,))),
    ],
    ids=["gammas", "oracle_coefficients", "gammas_cm"],
)
def test_non_int_upto_refused(call, upto):
    # True was taken for 1 and 1.5 raised TypeError (exit 3)
    with pytest.raises(ValidationError, match="upto must be an int"):
        call(upto)
