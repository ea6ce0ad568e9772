"""Error types shared across the package.

InputError and its subclasses cover everything a caller can fix (bad source
text, bad JSON, bad query); InternalCheckError means a self-check failed and
the result cannot be trusted.  The CLI maps these to exit codes 1 and 2.
"""


class InputError(Exception):
    """User-facing error in some input artifact."""


class ParseError(InputError):
    """Syntax error in loop source text, with position information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ProgramError(InputError):
    """Structural violation in a loop program (ordering, self-dependence, ...)."""


class SchemaError(InputError):
    """Malformed network JSON."""


class QueryError(InputError):
    """Unanswerable or ill-typed query."""


class UnsupportedError(InputError):
    """Input is well-formed but outside the supported fragment."""


class DegreeCapError(InputError):
    """The moment closure reached a monomial above the degree cap."""


class InternalCheckError(Exception):
    """An internal invariant (back-substitution, ...) failed."""
