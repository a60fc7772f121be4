"""Exception types shared across the package."""

__all__ = [
    "PivotGraphError",
    "InputError",
    "ParseError",
    "NotApplicableError",
    "UnsupportedSizeError",
]


class PivotGraphError(Exception):
    """Base class for all library errors."""


class InputError(PivotGraphError, ValueError):
    """Malformed or out-of-domain input: unknown vertex, odd arity, bad token."""


class ParseError(InputError):
    """Syntax error in a graph document, sequence string, or vertex-set string."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotApplicableError(PivotGraphError):
    """The requested operation is not applicable to the given graph state."""


class UnsupportedSizeError(PivotGraphError):
    """Input exceeds the size cap of an enumeration-based operation."""
