"""The geometry each model keeps and the suite's shared rescaled models.

Every operator fetches its geometry through ``point_geometry``, which keeps
the geometry of the last (alpha, points) request on the model; a
verification run builds each rescaled model once and shares it across
checks.  The kept geometry must be what a fresh ``PointGeometry`` computes,
hand out read-only arrays, and never keep a model alive on its own.
"""

import gc
import weakref

import numpy as np
import pytest

from cupgeo import (
    ConfigError,
    CupRescaling,
    DimensionMismatchError,
    DomainError,
    HessianSpec,
    ManifoldModel,
    NonlinearCoupling,
    PointGeometry,
    alpha_connection,
    curvature,
    curvature_shift_prediction,
    default_suite_config,
    gaussian_model,
    make_rescaling,
    modified_hessian,
    multinomial_model,
    nonlinear_cup_operator,
    rescaled_model,
    ricci,
    riemann,
    run_suite,
)
from cupgeo import geometry, manifolds
from cupgeo.geometry import point_geometry


@pytest.fixture
def builds(monkeypatch):
    """A list that grows by one entry per PointGeometry construction."""
    made = []
    init = PointGeometry.__init__

    def counting(self, model, alpha, p):
        made.append((model.name, alpha))
        init(self, model, alpha, p)

    monkeypatch.setattr(geometry.PointGeometry, "__init__", counting)
    return made


def _query(model, alpha, p):
    f = model.scalar_field("1 + 0.1*mu*sigma")
    coupling = NonlinearCoupling(model.scalar_field("2"), 0.5)
    curvature(model, alpha, p)
    modified_hessian(model, alpha, HessianSpec(1.0), f, p)
    nonlinear_cup_operator(model, alpha, f, coupling, p)


def test_one_query_builds_one_geometry(builds):
    model = gaussian_model()
    _query(model, 0.5, (0.3, 1.2))
    assert len(builds) == 1
    _query(model, 0.5, (0.3, 1.2))
    assert len(builds) == 1
    _query(model, -0.5, (0.3, 1.2))
    assert len(builds) == 2
    _query(model, 0.5, (0.3, 1.3))
    assert len(builds) == 3
    _query(model, 0.5, np.array([[0.3, 1.2]]))
    assert len(builds) == 4


def test_each_model_object_has_its_own_memo(builds):
    p = (0.3, 1.2)
    curvature(gaussian_model(), 0.5, p)
    curvature(gaussian_model(), 0.5, p)
    assert len(builds) == 2


def test_suite_pass_builds_six_geometries(builds):
    # per case, on its grid tiled under both potentials and every alpha: the
    # model and its rescaled variant, which carries both potentials, and the
    # variant again at the 1/3 skewness-shift weight of the control
    for _ in range(2):
        builds.clear()
        assert run_suite(default_suite_config()).passed
        assert len(builds) == 6


def test_suite_pass_checks_each_grid_once_and_builds_each_rescaling_once(builds, monkeypatch):
    checks, rescalings = [], []
    require_inside, init = ManifoldModel.require_inside, CupRescaling.__init__

    def counting_check(model, p):
        checks.append(model.name)
        return require_inside(model, p)

    def counting_init(self, alpha, potential):
        rescalings.append(alpha)
        init(self, alpha, potential)

    monkeypatch.setattr(ManifoldModel, "require_inside", counting_check)
    monkeypatch.setattr(CupRescaling, "__init__", counting_init)
    assert run_suite(default_suite_config()).passed
    # one check per case in the config's validation, then one per built geometry;
    # one rescaling per case, carrying every potential and alpha, shared by the
    # 1/3-weight control
    assert (len(checks), len(builds), len(rescalings)) == (8, 6, 2)


def test_a_float_grid_hit_checks_nothing(builds, monkeypatch):
    model = gaussian_model()
    grid = np.array([[0.0, 1.0], [1.0, 2.0]])
    first = point_geometry(model, 0.5, grid)
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(geometry, "as_coords", counting(geometry.as_coords))
    monkeypatch.setattr(manifolds, "as_coords", counting(manifolds.as_coords))
    monkeypatch.setattr(ManifoldModel, "require_inside", counting(ManifoldModel.require_inside))
    assert point_geometry(model, 0.5, grid.copy()) is first
    assert point_geometry(model, 0.5, np.asfortranarray(grid)) is first
    assert (calls, len(builds)) == ([], 1)
    # an int array of the same grid is converted, then finds the same geometry
    assert point_geometry(model, 0.5, np.array([[0, 1], [1, 2]])) is first
    assert (calls, len(builds)) == (["as_coords"], 1)


def test_an_alpha_array_is_keyed_by_its_shape_and_bytes(builds):
    model = gaussian_model()
    grid = np.array([[0.0, 1.0], [1.0, 2.0]])
    alphas = np.array([0.5, 1.0])
    first = point_geometry(model, alphas, grid)
    assert point_geometry(model, alphas.copy(), grid) is first
    alphas[0] = -0.5  # the memo keeps its own copy
    assert np.array_equal(first.alpha, [0.5, 1.0])
    ints = point_geometry(model, np.array([1, 1]), grid)
    assert point_geometry(model, np.array([1.0, 1.0]), grid) is ints
    assert point_geometry(model, 1.0, grid) is not ints
    assert len(builds) == 3


def test_an_invalid_float_grid_still_fails_its_build(builds):
    model = gaussian_model()
    grid = np.array([[0.0, 1.0], [1.0, 2.0]])
    first = point_geometry(model, 0.5, grid)
    for _ in range(2):  # an invalid grid is never kept: it fails every time
        with pytest.raises(DomainError, match=r"non-finite coordinates: \(1\.0, nan\) \(row 1\)"):
            point_geometry(model, 0.5, np.array([[0.0, 1.0], [1.0, np.nan]]))
        with pytest.raises(DomainError, match=r"\(1\.0, -2\.0\) \(row 1\) outside the domain"):
            point_geometry(model, 0.5, np.array([[0.0, 1.0], [1.0, -2.0]]))
        with pytest.raises(DimensionMismatchError, match=r"got \(1, 2, 2\)"):
            point_geometry(model, 0.5, grid[None])
    # nor does it evict the kept geometry
    built = len(builds)
    assert point_geometry(model, 0.5, grid) is first
    assert len(builds) == built


def test_the_last_request_replaces_the_kept_geometry(builds):
    model = gaussian_model()
    first = point_geometry(model, 0.5, (0.1, 1.0))
    assert point_geometry(model, 0.5, (0.1, 1.0)) is first
    assert len(builds) == 1
    second = point_geometry(model, 0.5, (0.2, 1.0))
    assert point_geometry(model, 0.5, (0.2, 1.0)) is second
    assert len(builds) == 2
    again = point_geometry(model, 0.5, (0.1, 1.0))
    assert again is not first and len(builds) == 3
    assert np.array_equal(again.riemann, first.riemann)
    # an alpha array is keyed by its shape and bytes, as a float alpha is: the
    # one-row request at the same alpha and point is new, and its repeat is not
    point_geometry(model, -0.5, (0.1, 1.0))
    assert len(builds) == 4
    point_geometry(model, np.array([-0.5]), np.array([[0.1, 1.0]]))
    point_geometry(model, np.array([-0.5]), np.array([[0.1, 1.0]]))
    assert len(builds) == 5


def test_an_invalid_point_is_never_remembered(builds):
    model = gaussian_model()
    first = point_geometry(model, 0.5, (0.0, 1.0))
    for _ in range(2):
        with pytest.raises(DomainError):
            riemann(model, 0.5, (0.0, -1.0))
    assert point_geometry(model, 0.5, (0.0, 1.0)) is first
    assert len(builds) == 3  # the valid point once, the invalid one at each request


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_an_invalid_point_is_reported_before_a_non_finite_alpha(alpha, builds):
    model = gaussian_model()
    first = point_geometry(model, 0.5, (0.0, 1.0))
    for _ in range(2):  # nothing invalid is kept: each request fails again
        for p in ((0.0, -1.0), (0.0, float("nan")), (0.0, 1.0, 2.0)):
            with pytest.raises(DomainError):
                riemann(model, alpha, p)
        with pytest.raises(ConfigError, match="alpha must be finite"):
            riemann(model, alpha, (0.0, 1.0))
    assert point_geometry(model, 0.5, (0.0, 1.0)) is first
    # the valid request once, then three builds at each try: a nan coordinate
    # fails in as_coords, before any build
    assert len(builds) == 7


def test_memo_hit_matches_a_fresh_geometry_bitwise():
    base = multinomial_model(3)
    resc = make_rescaling(0.5, base.scalar_field("0.2*p1*p2"))
    points = np.array([[0.2, 0.3], [0.25, 0.4]])
    for model in (base, rescaled_model(base, resc)):
        first = riemann(model, 0.5, points).components.copy()
        again = riemann(model, 0.5, points).components
        fresh = PointGeometry(model, 0.5, points).riemann
        assert np.array_equal(first, again)
        assert np.array_equal(first, fresh)


def test_shared_arrays_are_read_only():
    model = gaussian_model()
    p = (0.0, 1.0)
    before = riemann(model, 0.5, p).components.copy()
    for comps in (riemann(model, 0.5, p).components, ricci(model, 0.5, p).components,
                  alpha_connection(model, 0.5, p).components):
        with pytest.raises(ValueError):
            comps[(0,) * comps.ndim] = 1.0
    with pytest.raises(ValueError):
        point_geometry(model, 0.5, p).g[0, 0] = 1.0
    assert np.array_equal(riemann(model, 0.5, p).components, before)


def test_mutating_the_callers_points_does_not_reach_the_memo():
    model = gaussian_model()
    grid = [[0.0, 1.0], [0.5, 1.5]]
    points = np.array(grid)
    point_geometry(model, 0.5, points)  # remembered, nothing computed yet
    points[0, 1] = 2.0
    expected = PointGeometry(model, 0.5, grid).riemann
    assert np.array_equal(riemann(model, 0.5, grid).components, expected)


def test_used_models_die_without_the_cycle_collector():
    gc.disable()
    try:
        base = multinomial_model(3)
        resc = make_rescaling(0.5, base.scalar_field("0.2*p1*p2"))
        varied = rescaled_model(base, resc)
        p = (0.2, 0.3)
        curvature(base, 0.5, p)
        curvature(varied, 0.5, p)
        curvature_shift_prediction(base, resc, p)
        varied_ref, base_ref = weakref.ref(varied), weakref.ref(base)
        del varied
        assert varied_ref() is None
        del base, resc
        assert base_ref() is None
    finally:
        gc.enable()


def test_geometry_of_a_temporary_model_still_computes():
    geo = PointGeometry(gaussian_model(), 0.5, (0.0, 1.0))
    assert geo.scalar == pytest.approx(-0.75, abs=1e-12)
