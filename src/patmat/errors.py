"""Exception types shared across the package."""

__all__ = ["DimensionError", "MembershipError", "TextParseError", "VertexRangeError"]


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


class MembershipError(ValueError):
    """A matrix violates the pattern class it was claimed to belong to."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class TextParseError(ValueError):
    """A pattern or graph text file is malformed."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class VertexRangeError(ValueError):
    """A vertex index is outside the declared vertex set."""
