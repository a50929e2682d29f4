"""One error family: the library refuses a caller's argument with a
``ValidationError`` (CLI exit code 2), which is also a ``ValueError``."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from circleinv.cyclotomic import RootConstraint, trace_sum
from circleinv.errors import ValidationError
from circleinv.exact import Polynomial
from circleinv.hilbert import oracle_coefficients
from circleinv.hironaka import HironakaData, gammas_cm, hilb_from_hironaka
from circleinv.laurent import gammas
from circleinv.schur import partial_schur, partial_schur_values
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


@pytest.mark.parametrize(
    "call",
    [
        # 0.1 was taken as 3602879701896397/36028797018963968
        lambda: Polynomial({0: 0.1}),
        lambda: Polynomial({0: Fraction(1, 2)}),
        lambda: Polynomial({0: True}),
        # a TypeError (exit 3)
        lambda: Polynomial({1.5: 1}),
        # the float alpha dropped out: the series 1
        lambda: hilb_from_hironaka(HironakaData((2.5,), (0,))),
        # read as alpha = 1
        lambda: HironakaData((True,), (0,)),
        # a TypeError (exit 3)
        lambda: HironakaData((2,), (1.5,)),
        # a ZeroDivisionError (exit 3)
        lambda: RootConstraint(6, frozenset({0})),
        # summed to 0
        lambda: RootConstraint(-6, frozenset()),
        lambda: trace_sum(Polynomial.one(), Polynomial.one(), 0),
        lambda: trace_sum(Polynomial.one(), Polynomial.one(), 2.0),
        # answered as for u = 1
        lambda: partial_schur(True, [1, 2], [3]),
        # OutOfRange with "u=1.5 exceeds the admissible maximum 0"
        lambda: partial_schur(1.5, [1], [2]),
        # a TypeError (exit 3)
        lambda: partial_schur_values(1.5, 1, [-1], [2, 3]),
        # answered as for lo = 1
        lambda: partial_schur_values(True, 1, [-1], [2, 3]),
    ],
    ids=[
        "polynomial_float",
        "polynomial_fraction",
        "polynomial_bool",
        "polynomial_float_exponent",
        "hironaka_float_alpha",
        "hironaka_bool_alpha",
        "hironaka_float_beta",
        "root_constraint_zero_suborder",
        "root_constraint_negative_order",
        "trace_sum_order_zero",
        "trace_sum_float_order",
        "partial_schur_bool_u",
        "partial_schur_float_u",
        "partial_schur_values_float_lo",
        "partial_schur_values_bool_lo",
    ],
)
def test_bad_argument_refused(call):
    with pytest.raises(ValidationError, match="must be an int|must be positive"):
        call()
