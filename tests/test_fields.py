"""The field contract: every field is a ``Field`` evaluated through one checked jet.

A scalar input (density, coupling, rescaling potential) must be a rank-0
field, and a failing evaluation of any kind of field names the field and
the first offending point.  Each field keeps its last jet: a repeat request
is answered from it, bitwise equal to a fresh evaluation.
"""

import collections
import contextlib
import io
import re

import numpy as np
import pytest

from cupgeo import cli, jets
from cupgeo.cup_transform import (
    WeightedDensity,
    _RuleField,
    make_rescaling,
    rescaled_model,
    transform_coupling,
    transform_density,
)
from cupgeo.errors import (
    ConfigError,
    CupGeoError,
    DimensionMismatchError,
    DomainError,
    EvaluationError,
)
from cupgeo.geometry import (
    HessianSpec,
    NonlinearCoupling,
    cup_laplacian,
    cup_laplacian_decomposed,
    curvature,
    modified_hessian,
    nonlinear_cup_operator,
)
from cupgeo.manifolds import (
    ExprScalarField,
    ExprTensorField,
    gaussian_model,
    model_from_callables,
    multinomial_model,
    parse_model,
)
from cupgeo.tensor_core import Field, FuncField, NumericField
from cupgeo.verify import default_suite_config, run_suite

GAUSS = gaussian_model()
FD_GAUSS = model_from_callables(2, GAUSS.coord_names,
                                lambda v: np.diag([1.0 / v[1] ** 2, 2.0 / v[1] ** 2]),
                                lambda v: np.zeros((2, 2, 2)), domain=GAUSS.domain)
POINT = (0.3, 1.2)


FIELD_KINDS = [FuncField, NumericField, ExprScalarField, ExprTensorField, _RuleField]


def test_only_the_expression_tensor_field_overrides_jet():
    assert all(issubclass(kind, Field) for kind in FIELD_KINDS)
    assert [kind.__name__ for kind in FIELD_KINDS if "jet" in vars(kind)] == ["ExprTensorField"]


# -- a scalar input must be a rank-0 field ----------------------------------

RESCALING = make_rescaling(0.5, GAUSS.scalar_field("0.3*mu"))

# inputs that are not scalar fields, each with the kind its ConfigError names
NOT_SCALARS = {
    "metric": (GAUSS.metric, "a rank-2 field"),
    "skewness": (GAUSS.skewness, "a rank-3 field"),
    "fd metric": (FD_GAUSS.metric, "a rank-2 field"),
    "rescaled metric": (rescaled_model(GAUSS, RESCALING).metric, "a rank-2 field"),
    "str": ("mu", "str"),
    "None": (None, "NoneType"),
}

DENSITY_OPERATORS = {
    "modified_hessian": lambda f: modified_hessian(GAUSS, 0.5, HessianSpec(1.0), f, POINT),
    "cup_laplacian": lambda f: cup_laplacian(GAUSS, 0.5, f, POINT),
    "cup_laplacian_decomposed": lambda f: cup_laplacian_decomposed(GAUSS, 0.5, f, POINT),
    "nonlinear_cup_operator": lambda f: nonlinear_cup_operator(
        GAUSS, 0.5, f, NonlinearCoupling(2.0, 3.0), POINT),
    "transform_density": lambda f: transform_density(WeightedDensity(f, 1.0), RESCALING),
}

COUPLING_OPERATORS = {
    "nonlinear_cup_operator": lambda c: nonlinear_cup_operator(GAUSS, 0.5, 1.0, c, POINT),
    "transform_coupling": lambda c: transform_coupling(c, RESCALING),
}


@pytest.mark.parametrize("operator", sorted(DENSITY_OPERATORS))
@pytest.mark.parametrize("field", sorted(NOT_SCALARS))
def test_a_tensor_field_is_not_a_density(field, operator):
    value, kind = NOT_SCALARS[field]
    with pytest.raises(ConfigError, match=f"^density must be a scalar field, got {kind}$"):
        DENSITY_OPERATORS[operator](value)


@pytest.mark.parametrize("operator", sorted(COUPLING_OPERATORS))
@pytest.mark.parametrize("field", sorted(NOT_SCALARS))
def test_a_tensor_field_is_not_a_coupling(field, operator):
    value, kind = NOT_SCALARS[field]
    with pytest.raises(ConfigError, match=f"^coupling must be a scalar field, got {kind}$"):
        COUPLING_OPERATORS[operator](NonlinearCoupling(value, 2.0))


@pytest.mark.parametrize("field", sorted(NOT_SCALARS))
def test_a_tensor_field_is_not_a_rescaling_potential(field):
    value, kind = NOT_SCALARS[field]
    message = f"^rescaling potential must be a scalar field, got {kind}$"
    with pytest.raises(ConfigError, match=message):
        make_rescaling(0.5, value)


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


# kind: (field, order, a good point, a bad point); 1/mu at mu = 0 gives an inf
# alone as inside a batch
ALONE = {
    "expression scalar": (GAUSS.scalar_field("1/mu"), 2, (1.0, 1.0), (0.0, 1.0)),
    "rule": (FuncField(rule_log, 2), 2, (1.0, 1.0), (-1.0, 1.0)),
    "fd scalar": (NumericField(fd_inverse, 2), 2, (1.0, 1.0), (0.0, 1.0)),
    "fd tensor": (NumericField(fd_tensor, 2, rank=2), 2, (1.0, 1.0), (0.0, 1.0)),
    "expression component": (CURVED.metric, 2, (1.0, 1.0), (-1.0, 1.0)),
    "rescaled metric": (HUGE_RESCALED.metric, 2, (0.0, 0.0), (1.0, 0.0)),
    "rescaled by a failing potential": (
        rescaled_model(GAUSS, make_rescaling(0.5, GAUSS.scalar_field("1/mu"))).metric,
        2, (1.0, 1.0), (0.0, 1.0)),
}


@pytest.mark.parametrize("kind", sorted(ALONE))
def test_a_batch_fails_as_its_first_failing_point_fails_alone(kind):
    field, order, good, bad = ALONE[kind]
    with pytest.raises(CupGeoError) as alone:
        field.jet(np.array(bad), order)
    with pytest.raises(CupGeoError) as batch:
        field.jet(np.array([good, bad]), order)
    assert type(batch.value) is type(alone.value)
    assert str(batch.value) == str(alone.value).replace(f"{bad}", f"{bad} (row 1)", 1)


# (expression, mu): at this mu a derivative coefficient is not finite (1/mu at
# mu = 0 is inf) where a low order never uses it, or a value is inf (1/mu at
# mu = +-0, 1/(mu*mu) at a tiny mu) that exp takes to a finite value or ^0 drops
UNUSED_COEFFICIENTS = [("sqrt(mu)", 0.0), ("sqrt(mu)*sigma", 0.0), ("0*sqrt(mu)", 0.0),
                       ("mu^-1", 1e-160), ("sqrt(mu - 1)", 1.0),
                       ("exp(-1/mu)", 0.0), ("(1/mu)^0", 0.0), ("(1/mu)^0", -0.0),
                       ("sqrt(mu)^0", 0.0), ("sqrt(mu)^0", -0.0), ("exp(1/mu)", -0.0),
                       ("exp(-1/(mu*mu))", 0.0), ("exp(-1/(mu*mu))", 5e-324)]


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("source, mu", UNUSED_COEFFICIENTS)
def test_a_row_of_a_batch_fails_exactly_when_its_point_fails_alone(source, mu, order):
    """A jet computes a derivative coefficient only at an order that uses it, so
    each value is finite at order 0, and the point fails alone as its row fails
    behind (2, 1), with the same message, or gives that row's parts bitwise."""
    field, point = GAUSS.scalar_field(source), (mu, 1.0)
    batch = np.array([(2.0, 1.0), point])
    try:
        alone = field.jet(np.array(point), order)
    except CupGeoError as e:
        assert order > 0
        with pytest.raises(type(e)) as failed:
            field.jet(batch, order)
        assert str(failed.value) == str(e).replace(f"{point}", f"{point} (row 1)", 1)
        return
    rows = field.jet(batch, order)
    for k in range(order + 1):
        assert np.array_equal(rows.deriv(k)[1], alone.deriv(k))


def test_a_batch_names_its_first_failing_row_not_the_first_row_an_operation_flags():
    # log(mu) flags row 1 first, but row 0 fails too, at log(sigma - 1.5)
    f = GAUSS.scalar_field("log(mu) + log(sigma - 1.5)")
    with pytest.raises(DomainError, match=r"^field 'log\(mu\) \+ log\(sigma - 1\.5\)' failed at "
                                          r"\(1\.0, 1\.0\) \(row 0\): log of a non-positive value$"):
        cup_laplacian(GAUSS, 0.0, f, [(1.0, 1.0), (-1.0, 2.0)])


WRONG_COUNT_FIELDS = {
    "expression scalar": GAUSS.scalar_field("mu*sigma"),
    "expression tensor": GAUSS.metric,
    "rule": FuncField(lambda c: c[0] * c[-1], 2),
    "fd": NumericField(lambda v: v[0] * v[-1], 2),
}


@pytest.mark.parametrize("rows", [None, 2], ids=["point", "batch"])
@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("name", sorted(WRONG_COUNT_FIELDS))
def test_a_wrong_number_of_coordinates_is_rejected(name, count, rows):
    field = WRONG_COUNT_FIELDS[name]
    coords = np.linspace(0.5, 1.5, count)
    if rows:
        coords = np.stack([coords + 0.1 * r for r in range(rows)])
    message = rf"^{re.escape(field.label)} takes 2 coordinates, got {count}$"
    with pytest.raises(DimensionMismatchError, match=message):
        field.jet(coords, 1)
    with pytest.raises(DimensionMismatchError, match=message):
        field(coords)


def rule_of_two_components(c):
    return c[0] * np.array([1.0, 2.0])


def rule_of_a_constant_array(c):
    return np.ones(3)


def fd_two_components(v):
    return v[0] * np.array([1.0, 2.0])


# a density whose result is not one value per point: (field, points, message)
WRONG_SHAPE_RULES = {
    "component array at a point": (
        FuncField(rule_of_two_components, 2), (0.1, 1.0),
        "rule 'rule_of_two_components' failed at (0.1, 1.0): returned a jet of shape (2,), "
        "expected a number or a jet of shape ()"),
    # the two components broadcast to the batch of two: its first row alone shows them
    "component array at a batch of its size": (
        FuncField(rule_of_two_components, 2), [(0.1, 1.0), (0.2, 1.0)],
        "rule 'rule_of_two_components' failed at (0.1, 1.0) (row 0): returned a jet of shape (2,), "
        "expected a number or a jet of shape ()"),
    "constant array": (
        FuncField(rule_of_a_constant_array, 2), (0.1, 1.0),
        "rule 'rule_of_a_constant_array' failed at (0.1, 1.0): returned ndarray of shape (3,), "
        "expected a number or a jet of shape ()"),
    "fd component array at a point": (
        NumericField(fd_two_components, 2), (0.1, 1.0),
        "callable 'fd_two_components' failed at (0.1, 1.0): returned shape (2,), expected ()"),
    "fd component array at a batch": (
        NumericField(fd_two_components, 2), [(0.1, 1.0), (0.2, 1.0)],
        "callable 'fd_two_components' failed at (0.1, 1.0) (row 0): returned shape (2,), "
        "expected ()"),
}


@pytest.mark.parametrize("name", list(WRONG_SHAPE_RULES))
def test_a_rule_result_without_the_batch_shape_is_an_evaluation_error(name):
    field, points, message = WRONG_SHAPE_RULES[name]
    with pytest.raises(EvaluationError) as info:
        cup_laplacian(GAUSS, 0.0, field, points)
    assert str(info.value) == message


def fd_row_inverse(v):
    return 1.0 / float(v[0])


def rule_row_inverse(c):
    """1/x in plain floats, row by row, so a zero raises ZeroDivisionError."""
    inverse = [1.0 / float(v) for v in np.ravel(c[0].value)]
    return c[0] * 0.0 + np.reshape(inverse, np.shape(c[0].value))


@pytest.mark.parametrize("field", [NumericField(fd_row_inverse, 2), FuncField(rule_row_inverse, 2)],
                         ids=["fd", "rule"])
def test_a_raising_row_of_a_batch_is_named(field):
    assert field.jet([(1.0, 1.0), (2.0, 1.0)], 1).order == 1
    with pytest.raises(EvaluationError, match=r"failed at \(0\.0, 1\.0\) \(row 1\): "):
        field.jet([(1.0, 1.0), (0.0, 1.0)], 1)
    with pytest.raises(EvaluationError, match=r"failed at \(0\.0, 1\.0\) \(row 0\): "):
        field.jet([(0.0, 1.0), (0.0, 2.0)], 1)


@pytest.mark.parametrize("huge", [10 ** 400, -10 ** 400], ids=["positive", "negative"])
@pytest.mark.parametrize("points, at", [
    ((0.0, 1.0), "(0.0, 1.0)"),
    ([(0.0, 1.0), (2.0, 3.0)], "(0.0, 1.0) (row 0)"),
], ids=["point", "batch"])
def test_an_integer_too_large_for_a_float_is_not_finite(huge, points, at):
    # the integer is +-inf, as for a config number, and the output check names it
    field = FuncField(lambda xs: huge, 2)
    with pytest.raises(EvaluationError) as info:
        field.jet(np.array(points), 0)
    assert str(info.value) == f"rule '<lambda>' is not finite at {at}"


# -- each field keeps its last jet ------------------------------------------


# the rules of the rule fields, as their labels begin; the potentials that
# verify stacks into one rule field join their labels with " and "
RULES = re.compile(r"rescaled metric|rescaled skewness|conformal factor|eta\^|.* and ")


@pytest.fixture
def evaluations(monkeypatch):
    """A counter of ``_jet`` calls by field type, for every field type of
    cupgeo, and of a rule field by the rule its label names."""
    counts = collections.Counter()
    for kind in FIELD_KINDS:
        def counted(self, coords, order, evaluate=vars(kind)["_jet"], name=kind.__name__):
            if name == "_RuleField":
                rule = RULES.match(self.label).group()
                name = "stacked potentials" if rule.endswith(" and ") else rule
            counts[name] += 1
            return evaluate(self, coords, order)
        monkeypatch.setattr(kind, "_jet", counted)
    return counts


def assert_same_jet(got, want):
    """Same order, and every part bitwise equal (the sign of a zero included)."""
    assert got.order == want.order
    for k in range(got.order + 1):
        a, b = np.asarray(got.deriv(k)), np.asarray(want.deriv(k))
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), k


FIELD_MODELS = {
    "gaussian": gaussian_model,
    "multinomial:3": lambda: multinomial_model(3),
    "multinomial:4": lambda: multinomial_model(4),
    "gaussian-fd": lambda: model_from_callables(
        2, GAUSS.coord_names, lambda v: np.diag([1.0 / v[1] ** 2, 2.0 / v[1] ** 2]),
        lambda v: np.full((2, 2, 2), 1.0 / v[1] ** 3), domain=GAUSS.domain),
}


def interior(model, rows):
    """``rows`` interior points of ``model`` (one point when ``rows`` is None)."""
    n = model.dim
    if model.domain.simplex:
        x = np.array([[(0.5 + 0.1 * r + 0.05 * i) / (n + 1) for i in range(n)]
                      for r in range(rows or 1)])
    else:
        x = np.array([[0.3 - 0.2 * r, 1.2 + 0.1 * r] for r in range(rows or 1)])
    return x[0] if rows is None else x


@pytest.mark.parametrize("rows", [None, 3], ids=["point", "batch"])
@pytest.mark.parametrize("name", sorted(FIELD_MODELS))
def test_a_kept_jet_is_bitwise_a_fresh_evaluation(name, rows, evaluations):
    model = FIELD_MODELS[name]()
    x = interior(model, rows)
    for kind, top in (("metric", 2), ("skewness", 2)):
        field = getattr(model, kind)
        field.jet(x, top)
        before = sum(evaluations.values())
        for order in range(top, -1, -1):
            fresh = getattr(FIELD_MODELS[name](), kind)
            kept = field.jet(x, order)
            assert sum(evaluations.values()) == before  # a hit calls no _jet
            assert_same_jet(kept, fresh.jet(x, order))
            before = sum(evaluations.values())


def test_a_repeat_call_returns_the_kept_parts(evaluations):
    field = GAUSS.scalar_field("exp(0.2*mu) * sigma")
    x = np.array([(0.3, 1.2), (-1.0, 0.6)])
    first = field.jet(x, 2)
    again = field.jet(x.copy(), 2)
    assert evaluations["ExprScalarField"] == 1
    assert all(again.deriv(k) is first.deriv(k) for k in range(3))


def test_a_lower_order_is_a_truncation_and_a_higher_one_recomputes(evaluations):
    field = GAUSS.scalar_field("exp(0.2*mu) * sigma")
    x = np.array([(0.3, 1.2), (-1.0, 0.6)])
    low = field.jet(x, 1)
    assert field.jet(x, 0).value is low.value
    assert evaluations["ExprScalarField"] == 1
    high = field.jet(x, 2)
    assert evaluations["ExprScalarField"] == 2
    assert high.d1 is not low.d1 and np.array_equal(high.d1, low.d1)
    assert field.jet(x, 1).d1 is high.d1
    assert evaluations["ExprScalarField"] == 2
    for other in (x[:1], x[::-1], x[0]):
        field.jet(other, 0)
    assert evaluations["ExprScalarField"] == 5


@pytest.mark.parametrize("field", [GAUSS.metric, FD_GAUSS.metric, GAUSS.scalar_field("mu*sigma")],
                         ids=["expression", "fd", "scalar"])
def test_a_returned_part_is_read_only(field):
    jet = field.jet(np.array([(0.3, 1.2), (-1.0, 0.6)]), 2)
    for k in range(3):
        with pytest.raises(ValueError, match="read-only"):
            jet.deriv(k)[...] = 0.0


@pytest.mark.parametrize("x", [(0.3, 1.2), [(0.3, 1.2), (-1.0, 0.6)]], ids=["point", "batch"])
@pytest.mark.parametrize("make", [lambda: gaussian_model().metric,
                                  lambda: FIELD_MODELS["gaussian-fd"]().metric,
                                  lambda: GAUSS.scalar_field("exp(0.2*mu) * sigma")],
                         ids=["expression", "fd", "scalar"])
def test_a_returned_jet_is_the_callers_own(make, x, evaluations):
    # a field keeps the parts of its last jet, not the jet it hands out:
    # rebinding a part of a returned jet reaches neither the kept parts nor
    # the next call's answer
    field, x = make(), np.array(x)
    low = field.jet(x, 1)
    value, d1 = low.value, low.d1
    low.value, low.d1 = np.zeros_like(value), None
    count = sum(evaluations.values())
    again = field.jet(x, 1)
    assert sum(evaluations.values()) == count  # a hit
    assert again is not low and again.value is value and again.d1 is d1
    for part in (value, d1):
        if isinstance(part, np.ndarray):
            with pytest.raises(ValueError, match="read-only"):
                part[...] = 0.0
    # a higher order than the kept one evaluates again
    high = field.jet(x, 2)
    assert sum(evaluations.values()) == count + 1
    assert_same_jet(again, make().jet(x, 1))
    assert_same_jet(high, make().jet(x, 2))


def test_a_failing_point_raises_on_every_call(evaluations):
    field = GAUSS.scalar_field("log(mu)")
    good = (1.0, 1.0)
    kept = field.jet(good, 2)
    for _ in range(2):
        with pytest.raises(DomainError, match=r"field 'log\(mu\)' failed at \(-1\.0, 1\.0\)"):
            field.jet((-1.0, 1.0), 2)
    assert field.jet(good, 2).d1 is kept.d1  # the failures kept nothing
    assert evaluations["ExprScalarField"] == 3


def test_a_default_pass_evaluates_each_field_once_per_grid(evaluations):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--default", "--json"]) == 0
    # per case: a metric and a skewness, 2 potentials (each on its own row
    # block), 2 densities and 4 couplings; per case, on the grid tiled under
    # both potentials and every alpha: the potentials stacked, eta, 6
    # transformed inputs and a rescaled metric and skewness, twice with the
    # 1/3-weight control
    assert dict(evaluations) == {
        "ExprTensorField": 4,
        "ExprScalarField": 16,
        "stacked potentials": 2,
        "rescaled metric": 4,
        "rescaled skewness": 4,
        "conformal factor": 2,
        "eta^": 12,
    }


# -- memory layout on the geometry paths -------------------------------------
#
# jets lays a part out batch-innermost only where a point-level part meets an
# operand with more axes.  A field's jet at one point has no batch axes, and
# the fields of a suite grid all share theirs, so every part the geometry
# reads keeps the C layout its pinned bytes were computed on.


@pytest.fixture
def returned_parts(monkeypatch):
    """Every array part of every jet ``Field.jet`` returns."""
    parts = []

    def recorded(self, coords, order, jet=Field.jet):
        got = jet(self, coords, order)
        parts.extend(got.deriv(k) for k in range(order + 1)
                     if isinstance(got.deriv(k), np.ndarray))
        return got

    monkeypatch.setattr(Field, "jet", recorded)
    return parts


def _pointwise_block():
    """Single-point queries: curvature, a modified Hessian and a nonlinear
    operator per model, rescaled and finite-difference models included."""
    models = [(GAUSS, (0.3, 1.2)), (multinomial_model(3), (0.3, 0.3)),
              (multinomial_model(4), (0.2, 0.3, 0.25)),
              (rescaled_model(GAUSS, RESCALING), (-0.4, 0.8)),
              (FIELD_MODELS["gaussian-fd"](), POINT)]
    for model, point in models:
        c1 = model.coord_names[0]
        f = model.scalar_field(f"1 + 0.1*{c1}")
        coupling = NonlinearCoupling(model.scalar_field("2"), 3.0)
        for alpha in (-1.0, 0.5):
            curvature(model, alpha, point)
            modified_hessian(model, alpha, HessianSpec(0.5), f, point)
            nonlinear_cup_operator(model, alpha, f, coupling, point)


LAYOUT_RUNS = {
    "default suite": lambda: run_suite(default_suite_config()),
    "verify multinomial:4": lambda: cli.main(["verify", "--model", "multinomial:4", "--json"]),
    "pointwise": _pointwise_block,
}


@pytest.mark.parametrize("run", sorted(LAYOUT_RUNS))
def test_the_geometry_reads_only_c_contiguous_parts(run, returned_parts):
    with contextlib.redirect_stdout(io.StringIO()):
        LAYOUT_RUNS[run]()
    assert returned_parts
    kinds = collections.Counter(
        "C" if a.flags.c_contiguous else "F" if a.flags.f_contiguous else "strided"
        for a in returned_parts)
    assert set(kinds) == {"C"}, kinds
