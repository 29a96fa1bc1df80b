"""Exception hierarchy shared by all ccq modules."""


class CcqError(Exception):
    """Base class for all ccq errors."""


class BothZero(CcqError):
    """gcd of two zero polynomials is undefined."""


class ZeroInput(CcqError):
    """Operation requires a nonzero polynomial."""


class NotSquareFree(CcqError):
    """Operation requires a square-free polynomial."""


class DegenerateInput(CcqError):
    """Polynomial degrees violate the operation's preconditions."""


class ZeroDenominator(CcqError):
    """Substitution denominator is the zero polynomial."""


class RootAtEndpoint(CcqError):
    """Interval endpoint is a root of the queried polynomial."""


class GenericityViolation(CcqError):
    """Input curve or points violate the generic-position assumptions."""


class DegenerateCurve(CcqError):
    """The curve polynomial is not square-free (vanishing discriminant)."""


class ParseError(CcqError):
    """Input text could not be parsed; carries line/column anchors."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column
