"""Semantic exception hierarchy shared by all modules."""


class PolyboundsError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PolyboundsError, ValueError):
    """Input violates a construction contract (domain, shape, value range)."""


class NormalizationError(ValidationError):
    """A probability table does not sum to one within tolerance."""


class SignalingError(PolyboundsError):
    """A behavior is signaling where a no-signaling one is required."""


class InfeasibleTableError(PolyboundsError):
    """Observed distribution lies outside the model-compatible polytope."""


class InconsistentDataError(PolyboundsError):
    """Experimental and observational inputs admit no common causal model."""


class ZeroConditioningError(PolyboundsError):
    """A conditional quantity was requested on a zero-probability event."""


class SolverError(PolyboundsError):
    """Base class for optimization-engine failures."""


class DimensionMismatchError(SolverError):
    """Problem data with inconsistent dimensions."""


class IterationLimitError(SolverError):
    """Simplex pivot budget exhausted; signals numerical degeneracy."""


class SdpConvergenceError(SolverError):
    """Interior-point iteration cap reached before tolerances were met."""


class FloatRangeError(SolverError):
    """A computed value lies past the floating-point range."""


class EnumerationLimitError(PolyboundsError):
    """Brute-force oracle would exceed its combinatorial budget."""
