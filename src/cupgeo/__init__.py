"""Numerical differential geometry on statistical manifolds.

The package computes alpha-connections and their curvature from a metric
and skewness tensor pair, applies conformal-projective rescalings, builds
the curvature-coupled second-order operators, and machine-checks the
invariance laws that tie all of these together.
"""

from .cup_transform import (
    CupRescaling,
    WeightedDensity,
    connection_shift_prediction,
    curvature_shift_prediction,
    make_rescaling,
    parse_rescaling,
    rescaled_model,
    ricci_shift_prediction,
    transform_coupling,
    transform_density,
)
from .errors import (
    ConfigError,
    CupGeoError,
    DimensionMismatchError,
    DomainError,
    EvaluationError,
    ExpressionError,
    SingularMetricError,
    UnsupportedOrderError,
    VarianceError,
)
from .geometry import (
    CurvaturePack,
    HessianSpec,
    NonlinearCoupling,
    PointGeometry,
    alpha_connection,
    covariant_derivative_metric,
    cup_laplacian,
    cup_laplacian_decomposed,
    curvature,
    modified_hessian,
    nonlinear_cup_operator,
    point_geometry,
    ricci,
    riemann,
    scalar_curvature,
)
from .manifolds import (
    Domain,
    FisherEstimate,
    ManifoldModel,
    SampleSpec,
    estimate_fisher_tensors,
    euclidean_model,
    gaussian_model,
    model_from_callables,
    multinomial_model,
    parse_model,
    resolve_model,
)
from .tensor_core import (
    CONTRA,
    COV,
    Field,
    FuncField,
    NumericField,
    Point,
    Tensor,
    as_point,
    invert_metric,
)
from .verify import (
    CheckReport,
    ModelCase,
    SuiteConfig,
    SuiteResult,
    default_suite_config,
    run_check,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
