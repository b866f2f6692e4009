"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """Input is outside the domain a routine is defined on.

    Raised for malformed spectra (non-increasing, endpoints out of range),
    sequences whose entries escape [0, B], tails that cannot be indexed
    against the integers, and similar structural violations.
    """


class OutOfScopeError(DomainError):
    """A question outside the theorem's scope: a summable side, or a divergent tail to truncate."""


class ConstructionError(RuntimeError):
    """An internal invariant of a realization failed: a defect, not bad input."""


class TruncationTooSmallError(ValueError):
    """A finite realization was requested at a tail depth that cannot work.

    ``minimal`` carries the smallest sufficient depth, read in closed form
    from the tail cutoff, when the one build made there succeeds above the
    requested depth; ``None`` means no depth works, because the trace
    congruence or a mass bound fails.
    """

    def __init__(self, message: str, minimal: int | None = None):
        super().__init__(message)
        self.minimal = minimal


class SchemaError(ValueError):
    """A JSON document does not match the expected schema.

    ``path`` locates the offending node, e.g. ``"$.zero_tail.ratio"``.
    """

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path
