"""Exception types shared across the package.

Every error raised by the public API derives from AdaFilterError so callers
can catch one base class. Index payloads on data-validation errors are
1-based (row, column) because they are meant for humans reading an input
file, not for indexing back into the array.
"""
from __future__ import annotations


class AdaFilterError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AdaFilterError, ValueError):
    """Invalid input data or parameters."""


class OutOfRangeEntry(ValidationError):
    """A p-value entry is outside [0, 1] (NaN is allowed and means missing)."""

    def __init__(self, row: int, column: int, value: float):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(
            f"p-value at row {row}, column {column} is {value!r}; "
            f"entries must lie in [0, 1] or be NaN for missing"
        )


class EmptyColumn(ValidationError):
    """A hypothesis column contains no observed p-values at all."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} has no observed p-values")


class DimensionMismatch(ValidationError):
    """Array shapes do not line up (e.g. ids vs. matrix columns)."""


class ReplicabilityLevelOutOfRange(ValidationError):
    """Requested replicability level r is not in [2, n] for some usage."""

    def __init__(self, r: int, n: int):
        self.r = r
        self.n = n
        super().__init__(
            f"replicability level r={r} must satisfy 2 <= r <= n={n}"
        )


class NoTestableHypotheses(AdaFilterError):
    """Every column has fewer than r observed studies; nothing can be tested."""


class NoConvergence(AdaFilterError):
    """An iterative numeric routine failed to reach its tolerance."""


class ParseError(AdaFilterError, ValueError):
    """Malformed input file (CSV matrix or scenario file)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateIdentifier(ParseError):
    """The same hypothesis id appears twice in an input file."""

    def __init__(self, identifier: str, line: int | None = None):
        self.identifier = identifier
        super().__init__(f"duplicate hypothesis id {identifier!r}", line)
