"""Exception types raised across the package.

Validation errors subclass ``ValueError`` so callers that do not care
about the fine-grained failure mode can catch the usual builtin.  Solver
failures subclass ``RuntimeError`` for the same reason.
"""

from __future__ import annotations

__all__ = [
    "BaryflowError",
    "ValidationError",
    "NegativeWeightError",
    "WeightSumError",
    "DimensionMismatchError",
    "NonFiniteCoordinateError",
    "MarginalMismatchError",
    "IndexOutOfRangeError",
    "TimeOutOfRangeError",
    "WrongExponentError",
    "SolverError",
    "CycleLimitError",
    "ConvergenceError",
    "ProductGridError",
]


class BaryflowError(Exception):
    """Common base class so ``except BaryflowError`` catches everything."""


class ValidationError(BaryflowError, ValueError):
    """Some input object violates one of its structural invariants."""


class NegativeWeightError(ValidationError):
    """A measure weight or plan mass is below the negativity tolerance."""


class WeightSumError(ValidationError):
    """Measure weights do not sum to one within tolerance."""


class DimensionMismatchError(ValidationError):
    """Points, weights, or supports have inconsistent shapes."""


class NonFiniteCoordinateError(ValidationError):
    """A coordinate or weight is NaN or infinite."""


class MarginalMismatchError(ValidationError):
    """A plan's marginal does not match the prescribed measure."""


class IndexOutOfRangeError(ValidationError, IndexError):
    """A marginal index is outside ``0 .. N-1``."""


class TimeOutOfRangeError(ValidationError):
    """A flow time is outside the unit interval."""


class WrongExponentError(ValidationError):
    """The requested operation needs a different cost exponent."""


class SolverError(BaryflowError, RuntimeError):
    """An iterative solver failed to produce a usable answer."""


class CycleLimitError(SolverError):
    """The simplex iteration cap was hit without reaching optimality."""


class ConvergenceError(SolverError):
    """An iteration budget was exhausted before the tolerance was met."""


class ProductGridError(BaryflowError, ValueError):
    """The tuple grid of a multi-marginal problem exceeds the cap."""
