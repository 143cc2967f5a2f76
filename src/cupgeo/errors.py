"""Exception types shared across the package."""


class CupGeoError(Exception):
    """Base class for all errors raised by cupgeo."""


class DomainError(CupGeoError):
    """A point lies outside the valid chart domain (boundary margin included).

    Jet arithmetic raises it with ``mask``, the per-entry flags of the
    offending operand values; a field evaluation replaces such an error with
    one that names the field and the first offending point, and no mask.
    """

    def __init__(self, message, mask=None):
        super().__init__(message)
        self.mask = mask


class UnsupportedOrderError(CupGeoError):
    """A derivative order beyond the supported maximum was requested."""


class DimensionMismatchError(CupGeoError):
    """Operands refer to different chart dimensions or incompatible shapes."""


class VarianceError(CupGeoError):
    """A tensor slot has the wrong variance for the requested operation."""


class SingularMetricError(CupGeoError):
    """The metric is not positive-definite at the evaluation point."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class ExpressionError(CupGeoError):
    """A model or rescaling expression failed to parse or evaluate.

    ``position`` is the 0-based offset into the source text when known.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class ConfigError(CupGeoError):
    """A model, rescaling, or suite configuration is invalid."""


class EvaluationError(CupGeoError):
    """A field evaluation produced a non-finite or undefined value."""
