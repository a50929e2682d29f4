"""Exception hierarchy.

``ValidationError`` and its subclasses signal bad input (CLI exit code 2);
the library raises them itself wherever it refuses a caller's argument,
and a ``ValidationError`` is also a ``ValueError``.  ``InternalError``
subclasses signal an engine bug caught by a consistency check (CLI exit
code 3).
"""


class CircleInvError(Exception):
    pass


class ValidationError(CircleInvError, ValueError):
    pass


class InternalError(CircleInvError):
    pass


class ZeroDenominator(ValidationError):
    pass


class ZeroFunction(ValidationError):
    pass


class Empty(ValidationError):
    pass


class Unstable(ValidationError):
    pass


class NonInvertibleDenominator(ValidationError):
    pass


class RepeatedVariables(ValidationError):
    pass


class ZeroBase(ValidationError):
    pass


class OutOfRange(ValidationError):
    pass


class DegreeOverflow(ValidationError):
    pass


class InternalInvariantViolation(InternalError):
    pass


class OracleMismatch(InternalError):
    pass


def check_int(what: str, value):
    """Refuse with ``ValidationError`` a ``value`` that is not an int: not
    isinstance, since a bool is an int but no count, degree or weight."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an int, got {value!r}")
