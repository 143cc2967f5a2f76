"""Batched evaluation: a (P, n) array of points against one point at a time.

Every point-taking public function accepts either one point or a batch.
A batch must reproduce the stack of single-point calls to within 1e-15
relative, on exact-jet models, a rescaled model and a finite-difference
twin, and a single point must keep returning plain floats.  Alpha is a
batch axis too: an array of one alpha per row must reproduce one call per
alpha bit for bit, signs of zeros included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cupgeo import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    EvaluationError,
    FuncField,
    HessianSpec,
    NonlinearCoupling,
    NumericField,
    PointGeometry,
    WeightedDensity,
    alpha_connection,
    connection_shift_prediction,
    covariant_derivative_metric,
    cup_laplacian,
    cup_laplacian_decomposed,
    curvature,
    curvature_shift_prediction,
    gaussian_model,
    make_rescaling,
    model_from_callables,
    modified_hessian,
    multinomial_model,
    nonlinear_cup_operator,
    parse_model,
    rescaled_model,
    ricci_shift_prediction,
    scalar_curvature,
    transform_coupling,
    transform_density,
)
from cupgeo import geometry

from helpers import gaussian_metric, gaussian_skewness

GAUSS = gaussian_model()
TRI = multinomial_model(3)


BASES = {
    "gaussian": GAUSS,
    "multinomial:3": TRI,
    "multinomial:4": multinomial_model(4),
    "rescaled multinomial:3": TRI,
    "gaussian-fd": model_from_callables(2, GAUSS.coord_names, gaussian_metric,
                                        gaussian_skewness, domain=GAUSS.domain,
                                        name="gaussian-fd"),
}


@st.composite
def grids(draw, model):
    """1 to 4 interior points of ``model``, as a (P, n) array."""
    rows = draw(st.integers(min_value=1, max_value=4))
    points = []
    for _ in range(rows):
        if model.domain.simplex:
            weights = [draw(st.floats(min_value=0.2, max_value=1.0))
                       for _ in range(model.dim + 1)]
            points.append([w / sum(weights) for w in weights[:-1]])
        else:
            points.append([draw(st.floats(min_value=-2.0, max_value=2.0)),
                           draw(st.floats(min_value=0.4, max_value=2.5))])
    return np.array(points)


def _operators(model, base, resc, alpha):
    c1, c2 = model.coord_names[:2]
    f = model.scalar_field(f"1 + 0.1*{c1}*{c2} + {c1}^2")
    coupling = NonlinearCoupling(model.scalar_field(f"1 + 0.1*{c1}"), 0.5)
    spec = HessianSpec(1.0 / (model.dim - 1))
    return {
        "curvature.riemann": lambda p: curvature(model, alpha, p).riemann.components,
        "curvature.ricci": lambda p: curvature(model, alpha, p).ricci.components,
        "curvature.scalar": lambda p: curvature(model, alpha, p).scalar,
        "alpha_connection": lambda p: alpha_connection(model, alpha, p).components,
        "covariant_derivative_metric":
            lambda p: covariant_derivative_metric(model, alpha, p).components,
        "modified_hessian": lambda p: modified_hessian(model, alpha, spec, f, p).components,
        "cup_laplacian": lambda p: cup_laplacian(model, alpha, f, p),
        "cup_laplacian_decomposed": lambda p: cup_laplacian_decomposed(model, alpha, f, p),
        "nonlinear_cup_operator": lambda p: nonlinear_cup_operator(model, alpha, f, coupling, p),
        "connection_shift_prediction": lambda p: connection_shift_prediction(resc, p).components,
        "curvature_shift_prediction":
            lambda p: curvature_shift_prediction(base, resc, p).components,
        "ricci_shift_prediction": lambda p: ricci_shift_prediction(base, resc, p).components,
        "expression field": f,
        "rule field": FuncField(lambda xs: 1 + 0.1 * xs[0] * xs[1] + xs[0] ** 2, model.dim),
        "fd field": NumericField(lambda x: 1 + 0.1 * x[0] * x[1] + x[0] ** 2, model.dim),
        "eta": resc.eta,
    }


# the labels of _operators whose one-point value is a number
SCALARS = ("curvature.scalar", "cup_laplacian", "cup_laplacian_decomposed",
           "nonlinear_cup_operator", "expression field", "rule field", "fd field", "eta")


@pytest.mark.parametrize("name", list(BASES))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_batch_matches_stacked_single_points(name, data):
    base = BASES[name]
    alpha = data.draw(st.floats(min_value=-1.0, max_value=1.0), label="alpha")
    points = data.draw(grids(base), label="points")
    c1, c2 = base.coord_names[:2]
    resc = make_rescaling(alpha, base.scalar_field(f"0.3*{c1} + 0.1*{c1}*{c2}"))
    model = rescaled_model(base, resc) if name.startswith("rescaled") else base
    for label, fn in _operators(model, base, resc, alpha).items():
        batch = np.asarray(fn(points))
        single = [fn(tuple(p)) for p in points]
        if label in SCALARS:
            assert all(type(v) is float for v in single), label
        single = np.stack([np.asarray(v) for v in single])
        assert batch.shape == single.shape, label
        scale = max(1.0, float(np.max(np.abs(single))))
        assert np.max(np.abs(batch - single)) <= 1e-15 * scale, label


def test_batch_names_the_first_point_outside_the_domain():
    points = np.array([[0.0, 1.0], [0.5, -0.2], [1.0, -0.5]])
    f = GAUSS.scalar_field("1 + mu")
    for call in (lambda: curvature(GAUSS, 0.5, points),
                 lambda: cup_laplacian(GAUSS, 0.5, f, points)):
        with pytest.raises(DomainError, match=r"\(0\.5, -0\.2\) \(row 1\)"):
            call()


def test_batch_names_the_first_point_where_a_field_leaves_its_domain():
    points = np.array([[1.0, 1.0], [2.0, 0.5], [-1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DomainError, match=r"field 'log\(mu\)' failed at "
                                          r"\(-1\.0, 1\.0\) \(row 2\)"):
        cup_laplacian(GAUSS, 0.5, GAUSS.scalar_field("log(mu)"), points)
    model = parse_model('{"dim": 2, "coords": ["x", "y"], '
                        '"metric": {"11": "1 + sqrt(x)", "22": "1"}}')
    with pytest.raises(DomainError, match=r"component \(0, 0\) \('1 \+ sqrt\(x\)'\) "
                                          r"failed at \(-1\.0, 1\.0\) \(row 2\)"):
        curvature(model, 0.5, points)


# -- alpha as a batch axis ----------------------------------------------------

ALPHAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
ALPHA_BASES = {
    "gaussian": (BASES["gaussian"], [(0.0, 1.0), (-1.0, 0.6), (0.5, 1.8)]),
    "multinomial:4": (BASES["multinomial:4"], [(0.2, 0.3, 0.1), (0.25, 0.25, 0.25)]),
    "gaussian-fd": (BASES["gaussian-fd"], [(0.0, 1.0), (-1.0, 0.6), (0.5, 1.8)]),
}
STAGES = ("g", "dg", "d2g", "t", "dt", "ginv", "dginv", "gamma0", "skew_mixed", "gamma",
          "dgamma", "riemann", "ricci", "scalar")


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _per_alpha_quantities(base, alpha, pts):
    """Every alpha-dependent quantity at ``alpha`` (a float or one per row of ``pts``)."""
    c1, c2 = base.coord_names[:2]
    f = base.scalar_field(f"1 + 0.1*{c1}*{c2} + {c1}^2")
    coupling = NonlinearCoupling(base.scalar_field(f"1 + 0.1*{c1}"), 0.5)
    resc = make_rescaling(alpha, base.scalar_field(f"0.3*{c1} + 0.1*{c1}*{c2}"))
    varied = rescaled_model(base, resc)
    density = transform_density(WeightedDensity(f, 1.0), resc).f
    lam = transform_coupling(coupling, resc)
    spec = HessianSpec(1.0 / (base.dim - 1))
    out = {}
    for name, model in (("base", base), ("rescaled", varied)):
        geo = PointGeometry(model, alpha, pts)
        out.update({f"{name}.{stage}": getattr(geo, stage) for stage in STAGES})
        out.update({
            f"{name}.modified_hessian": modified_hessian(model, alpha, spec, f, pts).components,
            f"{name}.cup_laplacian": cup_laplacian(model, alpha, f, pts),
            f"{name}.cup_laplacian_decomposed": cup_laplacian_decomposed(model, alpha, f, pts),
            f"{name}.nonlinear_cup_operator": nonlinear_cup_operator(model, alpha, f, coupling,
                                                                     pts),
        })
    for name, field in (("rescaled metric", varied.metric),
                        ("rescaled skewness", varied.skewness),
                        ("rescaled density", density), ("rescaled coupling", lam.lam)):
        jet = field.jet(pts, 2 if field.rank == 0 else 1)
        out.update({f"{name}.d{k}": jet.deriv(k) for k in range(jet.order + 1)})
    out["connection_shift_prediction"] = connection_shift_prediction(resc, pts).components
    out["curvature_shift_prediction"] = curvature_shift_prediction(base, resc, pts).components
    out["ricci_shift_prediction"] = ricci_shift_prediction(base, resc, pts).components
    out["eta"] = resc.eta(pts)
    return out


@pytest.mark.parametrize("name", list(ALPHA_BASES))
def test_an_alpha_array_matches_one_call_per_alpha_bitwise(name):
    base, grid = ALPHA_BASES[name]
    pts = np.array(grid)
    tiled = np.tile(pts, (len(ALPHAS), 1))
    rows = np.repeat(ALPHAS, len(pts))
    batched = _per_alpha_quantities(base, rows, tiled)
    single = [_per_alpha_quantities(base, alpha, pts) for alpha in ALPHAS]
    # two models' stages and operators, four fields' jet parts, three shifts and eta
    assert len(batched) == 2 * (len(STAGES) + 4) + 10 + 4
    for label, got in batched.items():
        want = np.concatenate([np.asarray(s[label]) for s in single])
        assert _same_bits(got, want), label


def _point_quantities(model, alpha, p):
    """The geometry stages and the four scalar-density operators of ``model`` at
    ``alpha`` and ``p``: one point at a float, or a batch at an alpha array."""
    c1, c2 = model.coord_names[:2]
    f = model.scalar_field(f"1 + 0.1*{c1}*{c2} + {c1}^2")
    # a fractional, negative exponent runs both of the density's sign checks
    coupling = NonlinearCoupling(model.scalar_field(f"1 + 0.1*{c1}"), -1.5)
    spec = HessianSpec(1.0 / (model.dim - 1))
    geo = PointGeometry(model, alpha, p)
    out = {stage: getattr(geo, stage) for stage in STAGES}
    out.update({
        "modified_hessian": modified_hessian(model, alpha, spec, f, p).components,
        "cup_laplacian": cup_laplacian(model, alpha, f, p),
        "cup_laplacian_decomposed": cup_laplacian_decomposed(model, alpha, f, p),
        "nonlinear_cup_operator": nonlinear_cup_operator(model, alpha, f, coupling, p),
    })
    return out


POINT_MODELS = {
    "gaussian": (BASES["gaussian"], (-0.0, 1.3)),
    "multinomial:4": (BASES["multinomial:4"], (0.2, 0.3, 0.1)),
    "gaussian-fd": (BASES["gaussian-fd"], (0.4, 1.1)),
}


@pytest.mark.parametrize("alpha", [0.0, -0.0, 0.5, -1.0])
@pytest.mark.parametrize("name", [*POINT_MODELS, "rescaled gaussian", "rescaled multinomial:4"])
def test_a_point_gives_its_one_row_batch_bitwise(name, alpha):
    # a point at a float alpha takes the shortcuts a float allows (no select
    # by alpha, a plain comparison of the density's value); a one-row batch
    # at an alpha array takes none, and gives the same bits
    base, p = POINT_MODELS[name.removeprefix("rescaled ")]
    model = base
    if name.startswith("rescaled"):
        c1, c2 = base.coord_names[:2]
        model = rescaled_model(base, make_rescaling(alpha, base.scalar_field(
            f"0.3*{c1} + 0.1*{c1}*{c2}")))
    alone = _point_quantities(model, alpha, p)
    row = _point_quantities(model, np.array([alpha]), np.array([p]))
    assert len(alone) == len(STAGES) + 4
    for label, got in alone.items():
        assert np.shape(row[label])[:1] == (1,), label
        assert _same_bits(got, row[label][0]), label
    for label in ("scalar", "cup_laplacian", "cup_laplacian_decomposed",
                  "nonlinear_cup_operator"):
        assert type(alone[label]) is float, label


def test_a_zero_alpha_row_keeps_its_base_bitwise():
    base = np.array([[-0.0, 1.0], [-0.0, 1.0]])
    term = np.array([[-1.0, np.inf], [2.0, 4.0]])
    with np.errstate(all="ignore"):  # as the geometry stages compute it
        got = geometry._shifted(base, np.array([0.0, 0.5]), lambda: term)
    assert _same_bits(got[0], base[0])
    assert np.array_equal(got[1], [-0.5, 0.0])
    assert geometry._shifted(base, np.zeros(2), lambda: pytest.fail("term read")) is base
    for alpha in (0.0, -0.0):
        assert geometry._shifted(base, alpha, lambda: pytest.fail("term read")) is base


def test_an_error_names_the_alpha_of_its_failing_row():
    p = (0.0, 1.0)
    with pytest.raises(EvaluationError) as alone:
        curvature(GAUSS, 1e300, p)
    assert str(alone.value) == "curvature is not finite at (0.0, 1.0); alpha = 1e+300"
    with pytest.raises(EvaluationError) as batch:
        curvature(GAUSS, np.array([0.5, 1e300]), np.array([p, p]))
    assert str(batch.value) == str(alone.value).replace("(0.0, 1.0)", "(0.0, 1.0) (row 1)")


@pytest.mark.parametrize("alpha, error, message", [
    (np.array([0.5]), DimensionMismatchError, r"^alpha has shape \(1,\), one entry per row"),
    (np.array([[0.5], [1.0]]), ConfigError, r"^alpha must be a real number or a \(P,\) array"),
    (np.array([True, False]), ConfigError, r"^alpha must be a real number or a \(P,\) array"),
    (np.array([0.5, np.nan]), ConfigError, r"^alpha must be finite, got nan \(row 1\)$"),
])
def test_an_alpha_array_must_be_finite_reals_one_per_row(alpha, error, message):
    pts = np.array([[0.0, 1.0], [0.5, 1.5]])
    with pytest.raises(error, match=message):
        scalar_curvature(GAUSS, alpha, pts)
    with pytest.raises(DimensionMismatchError, match=r"^alpha has shape \(2,\)"):
        scalar_curvature(GAUSS, np.array([0.5, 1.0]), (0.0, 1.0))


def test_an_alpha_array_rescaling_takes_only_its_own_rows():
    resc = make_rescaling(np.array([0.5, 1.0]), GAUSS.scalar_field("0.3*mu"))
    with pytest.raises(DimensionMismatchError, match=r"^alpha has shape \(2,\)"):
        resc.eta(np.array([[0.0, 1.0], [0.5, 1.5], [1.0, 1.0]]))
    with pytest.raises(DimensionMismatchError, match=r"^alpha has shape \(2,\)"):
        connection_shift_prediction(resc, (0.0, 1.0))
    assert np.array_equal(resc.eta(np.array([[1.0, 1.0], [1.0, 1.0]])),
                          [make_rescaling(a, GAUSS.scalar_field("0.3*mu")).eta((1.0, 1.0))
                           for a in (0.5, 1.0)])
