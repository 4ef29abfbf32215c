"""Exception types shared across the toolkit."""

from __future__ import annotations


class ClosureLabError(Exception):
    """Base class for all toolkit errors.  ``exit_code`` and ``prefix`` are
    the CLI's exit code and stderr prefix for the type; subclasses inherit
    them unless they override."""

    exit_code = 2
    prefix = "error"


class ContractViolation(ClosureLabError):
    """An operation was called with inputs that break its contract
    (dimension mismatch, empty generator description, bad data signs)."""


class ParseError(ClosureLabError):
    """Instance-file or inequality-grammar parse failure, with position."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        elif column:
            message = f"column {column}: {message}"
        super().__init__(message)


class InconsistentSystemError(ClosureLabError):
    """An operation that requires a consistent inequality system was given
    an infeasible one.  Carries an exact Farkas certificate."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class HypothesisViolation(ClosureLabError):
    """An operation's mathematical hypothesis fails on the given input."""

    exit_code = 4


class NotPointedError(HypothesisViolation):
    """Cone contains a line; carries a nonzero vector v with v and -v in it."""

    def __init__(self, message: str, line_witness=None):
        super().__init__(message)
        self.line_witness = line_witness


class NotFullDimensionalError(HypothesisViolation):
    """Closure is not full-dimensional where full dimension is required."""


class EmptyClosureError(HypothesisViolation):
    """Closure is empty where a nonempty closure is required."""


class InvalidInequalityError(ClosureLabError):
    """Inequality claimed valid is violated; carries a violating point."""

    exit_code = 4

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InternalInvariantError(ClosureLabError):
    """An internal exactness invariant failed; indicates a bug, not bad input."""

    exit_code = 5
    prefix = "internal invariant failure"
