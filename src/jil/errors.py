"""Exception hierarchy for the jil package.

Every error raised deliberately by the library derives from ``JilError`` so
that callers (and the CLI) can separate domain failures from genuine bugs.
"""

from __future__ import annotations


class JilError(Exception):
    """Base class for all library errors."""


class DegenerateTreatment(JilError):
    """Raw treatment vector cannot be min-max normalized (zero range or non-finite)."""


class InvalidData(JilError):
    """A dataset field violates its invariants.

    Attributes
    ----------
    field : str
        Name of the offending field ("covariates", "treatments", "outcomes").
    row : int or None
        Index of the first offending row, or None for structural violations
        such as a length mismatch.
    """

    def __init__(self, field: str, row: int | None = None, message: str | None = None):
        self.field = field
        self.row = row
        where = f" at row {row}" if row is not None else ""
        super().__init__(message or f"invalid {field}{where}")


class EmptySegment(JilError):
    """No observations fall inside the requested interval."""


class DimensionMismatch(JilError):
    """Input vector length does not match the model's expected dimension."""


class InvalidPenalty(JilError):
    """Segmentation penalty is negative or non-finite."""


class BadFoldCount(JilError):
    """Cross-validation fold count outside [2, n]."""


class InsufficientData(JilError):
    """Too few observations for the requested estimate."""


class MissingTruth(JilError):
    """Ground-truth quantity required by the operation is not available."""


class BadSpec(JilError):
    """Malformed scenario specification."""


class SchemaMismatch(JilError):
    """Model artifact is incompatible with the supplied data."""


class NoConvergence(JilError):
    """An iterative solver stopped without meeting its convergence test, or
    left the finite range.

    Attributes
    ----------
    decrement : float or None
        Newton decrement g' H^-1 g at the last iterate; None for a solver
        without one (network SGD).
    """

    def __init__(self, decrement: float | None, message: str):
        self.decrement = decrement
        super().__init__(message)
