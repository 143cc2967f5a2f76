"""Exception types shared across the package."""


class CupGeoError(Exception):
    """Base class for all errors raised by cupgeo."""


class DomainError(CupGeoError):
    """A point lies outside the valid chart domain (boundary margin included),
    or a field is undefined at it: a field evaluation names the field and the
    first point of its batch that fails alone."""


class UndefinedValueError(DomainError, ArithmeticError):
    """Jet arithmetic met a value outside a function's domain (``log`` of a non-positive value)."""


class UnsupportedOrderError(CupGeoError):
    """A derivative order beyond the supported maximum was requested."""


class DimensionMismatchError(CupGeoError):
    """Operands refer to different chart dimensions or incompatible shapes."""


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
    """A field, connection, curvature or operator value is non-finite or undefined."""
