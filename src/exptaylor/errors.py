"""Exception types shared across the package.

The command-line tool maps these onto process exit codes, so library code
should raise the most specific type that applies rather than bare ValueError.
"""

from __future__ import annotations


class ExpTaylorError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ExpTaylorError):
    """An argument is outside its documented range (bad order, size cap, ...)."""


class DomainError(ExpTaylorError):
    """Evaluation left the domain of an elementary function.

    Raised for division by zero, log/sqrt at zero, log/sqrt on the branch
    cut along the negative real axis, zero raised to a non-positive or
    non-real power, and expansion coefficients that overflow to a
    non-finite value.
    """


class DiagnosticError(ExpTaylorError):
    """A numerical diagnostic cannot be formed from the available data.

    Typical cause: a terminating coefficient sequence leaves too few defined
    ratios for a radius estimate.
    """


class ParseError(ExpTaylorError):
    """Syntax or name error in an expression string.

    Attributes
    ----------
    offset : int
        Byte offset into the source where the problem was detected.
    message : str
        Human-readable description.
    expected : str or None
        Short hint about what would have been accepted at that position.
    """

    def __init__(self, offset: int, message: str, expected: str | None = None):
        self.offset = offset
        self.message = message
        self.expected = expected
        detail = f"{message} (at offset {offset})"
        if expected:
            detail += f", expected {expected}"
        super().__init__(detail)
