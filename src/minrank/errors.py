"""Shared exception types.

Every error the toolkit raises deliberately derives from ToolkitError so
the command line layer can map failures onto stable exit codes.
"""

from __future__ import annotations

__all__ = [
    "ToolkitError",
    "ParseError",
    "LimitError",
    "InternalError",
    "OperatorConflict",
]


class ToolkitError(Exception):
    """Base class for toolkit failures."""


class ParseError(ToolkitError):
    """Malformed input text. Carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class LimitError(ToolkitError):
    """An exact computation was refused because a size limit was exceeded."""


class InternalError(ToolkitError):
    """A cross-check that must hold by construction failed."""


class OperatorConflict(ToolkitError):
    """A set of vectors admits no consistent row operator.

    Attributes:
        row: index of the offending row.
        x, y: witness vectors that agree on the row's star coordinates
            but disagree on the parity against the row's fixed part.
    """

    def __init__(self, row: int, x: int, y: int):
        super().__init__(
            f"row {row}: vectors {x} and {y} share star coordinates "
            "but need different operator values"
        )
        self.row = row
        self.x = x
        self.y = y
