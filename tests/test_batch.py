"""Batched evaluation: a (P, n) array of points against one point at a time.

Every point-taking public function accepts either one point or a batch.
A batch must reproduce the stack of single-point calls to within 1e-15
relative, on exact-jet models, a rescaled model and a finite-difference
twin, and a single point must keep returning plain floats.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cupgeo import (
    DomainError,
    HessianSpec,
    NonlinearCoupling,
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
)

GAUSS = gaussian_model()
TRI = multinomial_model(3)


def _gaussian_metric(x):
    s = x[1]
    return np.diag([1.0 / s ** 2, 2.0 / s ** 2])


def _gaussian_skewness(x):
    s = x[1]
    t = np.zeros((2, 2, 2))
    t[0, 0, 1] = t[0, 1, 0] = t[1, 0, 0] = 2.0 / s ** 3
    t[1, 1, 1] = 8.0 / s ** 3
    return t


BASES = {
    "gaussian": GAUSS,
    "multinomial:3": TRI,
    "multinomial:4": multinomial_model(4),
    "rescaled multinomial:3": TRI,
    "gaussian-fd": model_from_callables(2, GAUSS.coord_names, _gaussian_metric,
                                        _gaussian_skewness, domain=GAUSS.domain,
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
    }


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
        if label in ("curvature.scalar", "cup_laplacian", "cup_laplacian_decomposed",
                     "nonlinear_cup_operator"):
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
