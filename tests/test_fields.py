"""The field contract: every field is a ``Field`` evaluated through one checked jet.

A scalar input (density, coupling, rescaling potential) must be a rank-0
field, and a failing evaluation of any kind of field names the field and
the first offending point.
"""

import numpy as np
import pytest

from cupgeo import jets
from cupgeo.cup_transform import (
    WeightedDensity,
    _PoweredScaleField,
    _ScaledMetricField,
    _ShiftedSkewnessField,
    make_rescaling,
    rescaled_model,
    transform_density,
)
from cupgeo.errors import ConfigError, DomainError, EvaluationError
from cupgeo.geometry import (
    HessianSpec,
    NonlinearCoupling,
    cup_laplacian,
    cup_laplacian_decomposed,
    modified_hessian,
    nonlinear_cup_operator,
)
from cupgeo.manifolds import (
    ExprScalarField,
    ExprTensorField,
    gaussian_model,
    model_from_callables,
    parse_model,
)
from cupgeo.tensor_core import Field, FuncField, NumericField

GAUSS = gaussian_model()
FD_GAUSS = model_from_callables(2, GAUSS.coord_names,
                                lambda v: np.diag([1.0 / v[1] ** 2, 2.0 / v[1] ** 2]),
                                lambda v: np.zeros((2, 2, 2)), domain=GAUSS.domain)
POINT = (0.3, 1.2)


def test_only_the_expression_tensor_field_overrides_jet():
    kinds = [FuncField, NumericField, ExprScalarField, ExprTensorField,
             _ScaledMetricField, _ShiftedSkewnessField, _PoweredScaleField]
    assert all(issubclass(kind, Field) for kind in kinds)
    assert [kind.__name__ for kind in kinds if "jet" in vars(kind)] == ["ExprTensorField"]


# -- a scalar input must be a rank-0 field ----------------------------------

TENSOR_FIELDS = {
    "metric": GAUSS.metric,
    "skewness": GAUSS.skewness,
    "fd metric": FD_GAUSS.metric,
    "rescaled metric": rescaled_model(
        GAUSS, make_rescaling(0.5, GAUSS.scalar_field("0.3*mu"))).metric,
}

DENSITY_OPERATORS = {
    "modified_hessian": lambda f: modified_hessian(GAUSS, 0.5, HessianSpec(1.0), f, POINT),
    "cup_laplacian": lambda f: cup_laplacian(GAUSS, 0.5, f, POINT),
    "cup_laplacian_decomposed": lambda f: cup_laplacian_decomposed(GAUSS, 0.5, f, POINT),
    "nonlinear_cup_operator": lambda f: nonlinear_cup_operator(
        GAUSS, 0.5, f, NonlinearCoupling(2.0, 3.0), POINT),
}


@pytest.mark.parametrize("operator", sorted(DENSITY_OPERATORS))
@pytest.mark.parametrize("field", sorted(TENSOR_FIELDS))
def test_a_tensor_field_is_not_a_density(field, operator):
    rank = TENSOR_FIELDS[field].rank
    with pytest.raises(ConfigError, match=f"density must be a scalar field, got a rank-{rank}"):
        DENSITY_OPERATORS[operator](TENSOR_FIELDS[field])


@pytest.mark.parametrize("field", sorted(TENSOR_FIELDS))
def test_a_tensor_field_is_not_a_coupling(field):
    coupling = NonlinearCoupling(TENSOR_FIELDS[field], 2.0)
    with pytest.raises(ConfigError, match="coupling must be a scalar field, got a rank-"):
        nonlinear_cup_operator(GAUSS, 0.5, 1.0, coupling, POINT)


@pytest.mark.parametrize("field", sorted(TENSOR_FIELDS))
def test_a_tensor_field_is_not_a_rescaling_potential(field):
    with pytest.raises(ConfigError, match="rescaling potential must be a scalar field, got a rank-"):
        make_rescaling(0.5, TENSOR_FIELDS[field])


# -- a failing evaluation names the field and the point ---------------------


def rule_log(c):
    return jets.log(c[0])


def fd_inverse(v):
    return 1.0 / v[0]


def fd_tensor(v):
    return np.eye(2) / v[0]


# x = 1 overflows once the huge entries meet the rescaling factor exp(10 x);
# x = 0 stays finite to second order
HUGE = parse_model('{"dim": 2, "coords": ["x", "y"], '
                   '"metric": {"11": "1e305", "22": "1"}, "skewness": {"111": "1e305"}}')
HUGE_RESCALING = make_rescaling(1.0, HUGE.scalar_field("-10*x"))
HUGE_RESCALED = rescaled_model(HUGE, HUGE_RESCALING)
CURVED = parse_model('{"dim": 2, "coords": ["x", "y"], '
                     '"metric": {"11": "1 + sqrt(x)", "22": "1"}}')
BAD_ROW = r"\(-1\.0, 1\.0\) \(row 1\)"
ZERO_ROW = r"\(0\.0, 1\.0\) \(row 1\)"
HUGE_ROW = r"\(1\.0, 0\.0\) \(row 1\)"

# kind: (field, order, a batch whose second row fails, error, message)
FAILURES = {
    "rule": (FuncField(rule_log, 2), 2, [(1.0, 1.0), (-1.0, 1.0)], DomainError,
             r"rule 'rule_log' failed at " + BAD_ROW),
    "fd scalar": (NumericField(fd_inverse, 2), 2, [(1.0, 1.0), (0.0, 1.0)], EvaluationError,
                  r"callable 'fd_inverse' is not finite at " + ZERO_ROW),
    "fd tensor": (NumericField(fd_tensor, 2, rank=2), 2, [(1.0, 1.0), (0.0, 1.0)],
                  EvaluationError, r"tensor callable 'fd_tensor' is not finite at " + ZERO_ROW),
    "expression scalar": (GAUSS.scalar_field("log(mu)"), 2, [(1.0, 1.0), (-1.0, 1.0)],
                          DomainError, r"field 'log\(mu\)' failed at " + BAD_ROW),
    "expression component": (CURVED.metric, 2, [(1.0, 1.0), (-1.0, 1.0)], DomainError,
                             r"component \(0, 0\) \('1 \+ sqrt\(x\)'\) failed at " + BAD_ROW),
    "rescaled metric": (HUGE_RESCALED.metric, 2, [(0.0, 0.0), (1.0, 0.0)], EvaluationError,
                        r"rescaled metric of potential field '-10\*x' is not finite at "
                        + HUGE_ROW),
    "rescaled skewness": (HUGE_RESCALED.skewness, 1, [(0.0, 0.0), (1.0, 0.0)], EvaluationError,
                          r"rescaled skewness of potential field '-10\*x' is not finite at "
                          + HUGE_ROW),
    "powered density": (transform_density(WeightedDensity(HUGE.scalar_field("1e305"), 1.0),
                                          HUGE_RESCALING).f,
                        2, [(0.0, 0.0), (1.0, 0.0)], EvaluationError,
                        r"eta\^1 times field '1e305' is not finite at " + HUGE_ROW),
}


@pytest.mark.parametrize("kind", sorted(FAILURES))
def test_a_failing_evaluation_names_the_field_and_the_point(kind):
    field, order, points, error, message = FAILURES[kind]
    points = np.array(points)
    field.jet(points[:1], order)  # the first row alone is finite
    with pytest.raises(error, match=message):
        field.jet(points, order)
