"""Connections, curvature, and the curvature-coupled operators.

The expected numbers come from three independent sources: hand index
expansions of the defining formulas on the location-scale family, the
classical constant-curvature values of that family (scalar curvature -1)
and of the probability simplex (sphere of radius 2, scalar curvature 1/2),
and a finite-difference re-derivation through black-box model callables.
"""

import numpy as np
import pytest

from cupgeo.errors import ConfigError, DimensionMismatchError, DomainError
from cupgeo.geometry import (
    HessianSpec,
    NonlinearCoupling,
    PointGeometry,
    _laplacian,
    alpha_connection,
    covariant_derivative_metric,
    cup_laplacian,
    cup_laplacian_decomposed,
    curvature,
    modified_hessian,
    nonlinear_cup_operator,
    point_geometry,
    ricci,
    ricci_reconstruction,
    riemann,
    scalar_curvature,
)
from cupgeo.manifolds import (
    Domain,
    euclidean_model,
    gaussian_model,
    model_from_callables,
    multinomial_model,
)
from cupgeo.tensor_core import FuncField, as_coords

GAUSS = gaussian_model()
TRI = multinomial_model(3)
FLAT = euclidean_model(2)
ALPHAS = (-1.0, -0.5, 0.0, 0.5, 1.0)


class TestChristoffel:
    def test_euclidean_chart_is_flat(self):
        gamma = alpha_connection(FLAT, 0.0, (3.0, -2.0))
        assert np.array_equal(gamma.components, np.zeros((2, 2, 2)))

    def test_location_scale_values_at_unit_scale(self):
        gamma = alpha_connection(GAUSS, 0.0, (0.0, 1.0)).components
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 1] = expected[0, 1, 0] = -1.0
        expected[1, 0, 0] = 0.5
        expected[1, 1, 1] = -1.0
        assert np.allclose(gamma, expected, rtol=1e-14, atol=1e-15)

    def test_values_scale_inversely_with_sigma(self):
        gamma = alpha_connection(GAUSS, 0.0, (0.0, 2.0)).components
        assert gamma[0, 0, 1] == pytest.approx(-0.5, rel=1e-14)
        assert gamma[1, 0, 0] == pytest.approx(0.25, rel=1e-14)
        assert gamma[1, 1, 1] == pytest.approx(-0.5, rel=1e-14)

    def test_alpha_one_values(self):
        gamma = alpha_connection(GAUSS, 1.0, (0.0, 1.0)).components
        assert gamma[1, 0, 0] == pytest.approx(0.0, abs=1e-15)
        assert gamma[0, 0, 1] == pytest.approx(-2.0, rel=1e-14)
        assert gamma[1, 1, 1] == pytest.approx(-3.0, rel=1e-14)

    def test_alpha_minus_one_values(self):
        gamma = alpha_connection(GAUSS, -1.0, (0.0, 1.0)).components
        assert gamma[1, 0, 0] == pytest.approx(1.0, rel=1e-14)
        assert gamma[0, 0, 1] == pytest.approx(0.0, abs=1e-15)
        assert gamma[1, 1, 1] == pytest.approx(1.0, rel=1e-14)

    def test_torsion_free_exactly(self):
        for model, p in ((GAUSS, (0.4, 0.9)), (TRI, (0.2, 0.3))):
            for a in ALPHAS:
                gamma = alpha_connection(model, a, p).components
                assert np.array_equal(gamma, np.swapaxes(gamma, 1, 2))

    def test_singular_metric_rejected(self):
        bad = model_from_callables(
            2, ("x", "y"), lambda v: np.diag([1.0, 0.0]), lambda v: np.zeros((2, 2, 2))
        )
        from cupgeo.errors import SingularMetricError

        with pytest.raises(SingularMetricError):
            alpha_connection(bad, 0.0, (0.0, 0.0))


class TestMetricDerivative:
    def test_levi_civita_is_metric_compatible(self):
        for p in ((0.0, 1.0), (1.0, 0.6), (-1.0, 1.8)):
            nabla_g = covariant_derivative_metric(GAUSS, 0.0, p).components
            assert np.abs(nabla_g).max() <= 1e-10

    def test_derivative_proportional_to_skewness(self):
        for model, p in ((GAUSS, (0.5, 1.2)), (TRI, (0.25, 0.4))):
            t = model.skewness_at(p).components
            for a in ALPHAS:
                nabla_g = covariant_derivative_metric(model, a, p).components
                scale = max(1.0, np.abs(a * t).max())
                assert np.abs(nabla_g - a * t).max() / scale <= 1e-13

    def test_exact_values_at_alpha_one(self):
        nabla_g = covariant_derivative_metric(GAUSS, 1.0, (0.0, 1.0)).components
        assert nabla_g[0, 0, 1] == pytest.approx(2.0, rel=1e-13)
        assert nabla_g[1, 1, 1] == pytest.approx(8.0, rel=1e-13)

    def test_first_two_slots_symmetric(self):
        for a in ALPHAS:
            nabla_g = covariant_derivative_metric(GAUSS, a, (0.3, 0.8)).components
            assert np.abs(nabla_g - np.swapaxes(nabla_g, 0, 1)).max() <= 1e-13


class TestCurvature:
    def test_euclidean_flat(self):
        pack = curvature(FLAT, 0.0, (1.0, 2.0))
        assert np.array_equal(pack.riemann.components, np.zeros((2, 2, 2, 2)))
        assert np.array_equal(pack.ricci.components, np.zeros((2, 2)))
        assert pack.scalar == 0.0

    def test_location_scale_scalar_curvature_is_minus_one(self):
        for p in ((0.0, 1.0), (2.0, 0.5), (-1.0, 3.0), (0.3, 1.7)):
            assert scalar_curvature(GAUSS, 0.0, p) == pytest.approx(-1.0, rel=1e-12)

    def test_location_scale_ricci_is_half_metric(self):
        for p in ((0.0, 1.0), (1.0, 2.0)):
            ric = ricci(GAUSS, 0.0, p).components
            g = GAUSS.metric_at(p).components
            assert np.allclose(ric, -0.5 * g, rtol=1e-12, atol=1e-14)

    def test_exponential_family_flat_at_alpha_one(self):
        for model, p in ((GAUSS, (0.0, 1.0)), (GAUSS, (1.5, 0.7)), (TRI, (0.2, 0.3))):
            for a in (1.0, -1.0):
                assert np.abs(riemann(model, a, p).components).max() <= 1e-7

    def test_alpha_scalar_curvature_interpolates_quadratically(self):
        # the scalar curvature of the location-scale family is -(1 - alpha^2)
        for a in (0.25, 0.5, -0.5, 0.9):
            got = scalar_curvature(GAUSS, a, (0.4, 1.3))
            assert got == pytest.approx(-(1 - a * a), rel=1e-12, abs=1e-12)

    def test_simplex_scalar_curvature_is_one_half(self):
        # Fisher geometry of three categories = octant of the radius-2 sphere
        for p in ((1 / 3, 1 / 3), (0.2, 0.3), (0.25, 0.4)):
            assert scalar_curvature(TRI, 0.0, p) == pytest.approx(0.5, rel=1e-12)

    def test_riemann_antisymmetric_in_last_two_slots(self):
        for model, p in ((GAUSS, (0.2, 1.1)), (TRI, (0.3, 0.2))):
            for a in ALPHAS:
                R = riemann(model, a, p).components
                assert np.array_equal(R, -np.swapaxes(R, 2, 3))

    def test_scalar_is_trace_of_ricci(self):
        from cupgeo.tensor_core import invert_metric

        for a in (0.0, 0.5):
            pack = curvature(TRI, a, (0.3, 0.25))
            ginv = invert_metric(TRI.metric_at((0.3, 0.25)).components)
            assert pack.scalar == pytest.approx(
                float(np.einsum("jl,jl->", ginv, pack.ricci.components)), rel=1e-12
            )

    def test_finite_difference_route_agrees(self):
        fd = model_from_callables(
            2,
            ("mu", "sigma"),
            lambda v: np.diag([1.0 / v[1] ** 2, 2.0 / v[1] ** 2]),
            lambda v: np.array(
                [
                    [[0.0, 2.0 / v[1] ** 3], [2.0 / v[1] ** 3, 0.0]],
                    [[2.0 / v[1] ** 3, 0.0], [0.0, 8.0 / v[1] ** 3]],
                ]
            ),
        )
        assert scalar_curvature(fd, 0.0, (0.0, 1.0)) == pytest.approx(-1.0, abs=1e-6)
        assert np.abs(riemann(fd, 1.0, (0.0, 1.0)).components).max() <= 1e-5


class TestHessians:
    def test_constant_density_has_zero_hessian(self):
        h = modified_hessian(GAUSS, 0.5, 0.0, 1.0, (0.3, 1.2)).components
        assert np.array_equal(h, np.zeros((2, 2)))

    def test_flat_chart_hessian(self):
        f = FLAT.scalar_field("x*y")
        h = modified_hessian(FLAT, 0.0, 0.0, f, (5.0, -3.0)).components
        assert np.allclose(h, [[0.0, 1.0], [1.0, 0.0]], rtol=1e-14)

    def test_scale_coordinate_hessian_reads_off_christoffels(self):
        f = GAUSS.scalar_field("sigma")
        h = modified_hessian(GAUSS, 0.0, 0.0, f, (0.0, 1.0)).components
        assert np.allclose(h, np.diag([-0.5, 1.0]), rtol=1e-14)

    def test_unit_density_picks_out_coupled_ricci(self):
        h = modified_hessian(GAUSS, 0.0, HessianSpec(k=1.0), 1.0, (0.0, 1.0)).components
        assert np.allclose(h, np.diag([-0.5, -1.0]), rtol=1e-13)

    def test_coupling_accepts_plain_number(self):
        p = (0.2, 0.9)
        a = modified_hessian(GAUSS, 0.0, 0.25, 1.0, p).components
        b = modified_hessian(GAUSS, 0.0, HessianSpec(k=0.25), 1.0, p).components
        assert np.array_equal(a, b)


class TestTraceOperator:
    def test_unit_density_gives_curvature_over_dim_minus_one(self):
        for p in ((0.0, 1.0), (1.0, 2.0), (-0.5, 0.6)):
            assert cup_laplacian(GAUSS, 0.0, 1.0, p) == pytest.approx(-1.0, rel=1e-12)

    def test_flat_quadratic(self):
        f = FLAT.scalar_field("x^2")
        for a in (0.0, 0.7, -1.0):
            assert cup_laplacian(FLAT, a, f, (1.0, 2.0)) == pytest.approx(2.0, rel=1e-13)

    def test_unit_density_alpha_interpolation(self):
        for a in ALPHAS:
            got = cup_laplacian(GAUSS, a, 1.0, (0.0, 1.0))
            assert got == pytest.approx(-(1 - a * a), rel=1e-12, abs=1e-12)

    def test_divergence_form_decomposition(self):
        fields = ("1 + 0.1*mu*sigma", "exp(0.2*mu)", "sigma^2")
        for source in fields:
            f = GAUSS.scalar_field(source)
            for a in ALPHAS:
                for p in ((0.0, 1.0), (0.8, 1.6), (-1.0, 0.7)):
                    direct = cup_laplacian(GAUSS, a, f, p)
                    split = cup_laplacian_decomposed(GAUSS, a, f, p)
                    assert abs(direct - split) / max(1.0, abs(direct)) <= 1e-8

    @pytest.mark.parametrize("model, points", [
        (GAUSS, ((0.3, 1.2), (-1.0, 0.7))),
        (TRI, ((0.2, 0.3), (0.25, 0.4))),
    ], ids=["gaussian", "multinomial:3"])
    def test_decomposition_evaluates_the_density_once(self, model, points):
        calls = []

        def rule(c):
            calls.append(1)
            return 1.0 + 0.1 * c[0] * c[1]

        f = FuncField(rule, dim=2)
        for p in (points[0], np.array(points)):
            calls.clear()
            cup_laplacian_decomposed(model, 0.5, f, p)
            assert len(calls) == 1

    def test_alpha_correction_vanishes_at_alpha_zero(self):
        f = TRI.scalar_field("p1^2 + p2")
        p = (0.3, 0.25)
        k = 1.0 / (TRI.dim - 1)
        plain = _laplacian(point_geometry(TRI, 0.0, p), f.jet(as_coords(p), 2))
        full = cup_laplacian(TRI, 0.0, f, p)
        expected = plain + k * scalar_curvature(TRI, 0.0, p) * f(p)
        assert full == pytest.approx(expected, rel=1e-11)

    def test_one_dimensional_models_rejected(self):
        bern = multinomial_model(2)
        with pytest.raises(DimensionMismatchError):
            cup_laplacian(bern, 0.0, 1.0, (0.5,))
        with pytest.raises(DimensionMismatchError):
            cup_laplacian_decomposed(bern, 0.0, 1.0, (0.5,))


class TestNonlinearOperator:
    def test_zero_coupling_reduces_to_trace_operator(self):
        f = GAUSS.scalar_field("1 + 0.1*mu")
        coupling = NonlinearCoupling(GAUSS.scalar_field("0"), 3.0)
        p = (0.5, 1.0)
        assert nonlinear_cup_operator(GAUSS, 0.0, f, coupling, p) == pytest.approx(
            cup_laplacian(GAUSS, 0.0, f, p), rel=1e-14
        )

    def test_constant_density_with_cubic_coupling(self):
        coupling = NonlinearCoupling(GAUSS.scalar_field("2"), 3.0)
        assert nonlinear_cup_operator(GAUSS, 0.0, 1.0, coupling, (0.0, 1.0)) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_linear_exponent_gives_additive_operator(self):
        coupling = NonlinearCoupling(GAUSS.scalar_field("2"), 1.0)
        f = GAUSS.scalar_field("1 + 0.1*mu*sigma")
        g = GAUSS.scalar_field("sigma^2")
        fg = GAUSS.scalar_field("1 + 0.1*mu*sigma + sigma^2")
        p = (0.4, 1.2)
        lhs = nonlinear_cup_operator(GAUSS, 0.5, fg, coupling, p)
        rhs = nonlinear_cup_operator(GAUSS, 0.5, f, coupling, p) + nonlinear_cup_operator(
            GAUSS, 0.5, g, coupling, p
        )
        assert abs(lhs - rhs) <= 1e-10

    def test_exponent_zero_rejected(self):
        with pytest.raises(ConfigError):
            NonlinearCoupling(GAUSS.scalar_field("1"), 0.0)

    def test_fractional_exponent_rejects_negative_density(self):
        coupling = NonlinearCoupling(GAUSS.scalar_field("1"), 0.5)
        neg = GAUSS.scalar_field("0 - 2")
        with pytest.raises(DomainError):
            nonlinear_cup_operator(GAUSS, 0.0, neg, coupling, (0.0, 1.0))

    def test_negative_exponent_rejects_vanishing_density(self):
        coupling = NonlinearCoupling(GAUSS.scalar_field("1"), -2.0)
        f = GAUSS.scalar_field("mu")  # vanishes at mu = 0
        with pytest.raises(DomainError):
            nonlinear_cup_operator(GAUSS, 0.0, f, coupling, (0.0, 1.0))

    def test_zero_density_with_positive_fractional_exponent_is_fine(self):
        coupling = NonlinearCoupling(GAUSS.scalar_field("3"), 0.5)
        f = GAUSS.scalar_field("mu")
        got = nonlinear_cup_operator(GAUSS, 0.0, f, coupling, (0.0, 1.0))
        assert got == pytest.approx(cup_laplacian(GAUSS, 0.0, f, (0.0, 1.0)), rel=1e-13)


class TestDensityEntry:
    """A density or coupling enters every operator through one checked path."""

    POINT_CASES = [(0.3, 1.2), ((0.3, 1.2), (-1.0, 0.7))]
    OPERATORS = {
        "modified_hessian": lambda m, f, p: modified_hessian(m, 0.5, HessianSpec(1.0), f, p),
        "cup_laplacian": lambda m, f, p: cup_laplacian(m, 0.5, f, p),
        "nonlinear_cup_operator": lambda m, f, p: nonlinear_cup_operator(
            m, 0.5, f, NonlinearCoupling(m.scalar_field("2"), 3.0), p),
    }

    @pytest.mark.parametrize("points", POINT_CASES, ids=["point", "batch"])
    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_a_repeated_call_checks_its_points_once(self, name, points, monkeypatch):
        model = gaussian_model()
        f = model.scalar_field("1 + 0.1*mu*sigma")
        op = self.OPERATORS[name]
        op(model, f, points)  # warm-up: builds and remembers the geometry
        calls = []
        contains = Domain.contains

        def counted(domain, p):
            calls.append(1)
            return contains(domain, p)

        monkeypatch.setattr(Domain, "contains", counted)
        op(model, f, points)
        assert len(calls) == 0

    @pytest.mark.parametrize("points", POINT_CASES, ids=["point", "batch"])
    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_a_first_call_checks_its_points_once(self, name, points, monkeypatch):
        model = gaussian_model()
        f = model.scalar_field("1 + 0.1*mu*sigma")
        calls = []
        contains = Domain.contains

        def counted(domain, p):
            calls.append(1)
            return contains(domain, p)

        monkeypatch.setattr(Domain, "contains", counted)
        self.OPERATORS[name](model, f, points)  # builds the geometry
        assert len(calls) == 1

    def test_a_direct_build_still_checks_its_points(self):
        with pytest.raises(DomainError, match="outside the domain"):
            PointGeometry(GAUSS, 0.5, (0.0, -1.0))

    @pytest.mark.parametrize("field", [gaussian_model().scalar_field("mu*sigma"),
                                       euclidean_model(3).scalar_field("x")],
                             ids=["gaussian", "euclidean:3"])
    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_a_density_in_another_chart_is_rejected(self, name, field):
        tri = multinomial_model(3)
        with pytest.raises(ConfigError, match=r"chart mismatch: density is written in "
                                              r"\[.*\], model 'multinomial:3' uses "
                                              r"\['p1', 'p2'\]"):
            self.OPERATORS[name](tri, field, (0.2, 0.3))

    def test_a_coupling_in_another_chart_is_rejected(self):
        tri = multinomial_model(3)
        coupling = NonlinearCoupling(GAUSS.scalar_field("mu"), 2.0)
        with pytest.raises(ConfigError, match=r"coupling is written in \['mu', 'sigma'\]"):
            nonlinear_cup_operator(tri, 0.5, tri.scalar_field("1 + p1"), coupling, (0.2, 0.3))

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_a_number_is_the_constant_density(self, name):
        op = self.OPERATORS[name]
        for p in self.POINT_CASES:
            number = np.asarray(_components(op(GAUSS, 2.0, p)))
            field = np.asarray(_components(op(GAUSS, GAUSS.scalar_field("2"), p)))
            assert np.array_equal(number, field)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_number_density_rejected(self, value):
        with pytest.raises(ConfigError, match="must be finite"):
            cup_laplacian(GAUSS, 0.0, value, (0.0, 1.0))
        with pytest.raises(ConfigError, match="must be finite"):
            nonlinear_cup_operator(GAUSS, 0.0, 1.0, NonlinearCoupling(value, 3.0), (0.0, 1.0))

    def test_bad_density_type_named(self):
        with pytest.raises(ConfigError, match="str"):
            modified_hessian(GAUSS, 0.0, 1.0, "mu", (0.0, 1.0))

    def test_invalid_point_reported_before_bad_density_type(self):
        with pytest.raises(DomainError, match="outside the domain"):
            cup_laplacian(GAUSS, 0.0, "mu", (0.0, -1.0))

    def test_fields_carry_no_domain(self):
        # the model's domain is the only one: a field evaluates wherever it is asked
        f = GAUSS.scalar_field("mu + sigma")
        assert not hasattr(f, "domain")
        assert f.jet(as_coords((0.0, -1.0)), 0).value == -1.0


def _components(value):
    return getattr(value, "components", value)


def integrability_gap(model, alpha, p, k=None):
    """max |R^i_jkl - k (delta^i_k Ric_jl - delta^i_l Ric_jk)|, by default at k = 1/(n-1)."""
    k = 1.0 / (model.dim - 1) if k is None else k
    predicted = ricci_reconstruction(ricci(model, alpha, p).components, k)
    return np.abs(riemann(model, alpha, p).components - predicted).max()


class TestIntegrability:
    def test_flat_chart_residual_is_zero(self):
        assert integrability_gap(FLAT, 0.0, (1.0, 2.0)) == 0.0

    def test_location_scale_family_satisfies_the_identity(self):
        for p in ((0.0, 1.0), (1.0, 0.6), (-0.7, 2.2)):
            assert integrability_gap(GAUSS, 0.0, p) <= 1e-7

    def test_simplex_at_intermediate_alpha(self):
        assert integrability_gap(TRI, 0.5, (1 / 3, 1 / 3)) <= 1e-7

    def test_wrong_coupling_breaks_the_identity(self):
        assert integrability_gap(GAUSS, 0.0, (0.0, 1.0), k=0.25) > 1e-3


@pytest.mark.parametrize("alpha", ["0.5", True, None])
def test_an_alpha_that_is_not_a_real_number_fails_alike_on_a_fresh_and_a_warm_model(alpha):
    fresh, warm = gaussian_model(), gaussian_model()
    for value in (0.5, 1.0):
        scalar_curvature(warm, value, (0.0, 1.0))
    messages = []
    for model in (fresh, warm):
        with pytest.raises(ConfigError, match=r"^alpha must be a real number") as info:
            scalar_curvature(model, alpha, (0.0, 1.0))
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    with pytest.raises(ConfigError, match=r"^alpha must be a real number"):
        PointGeometry(fresh, alpha, (0.0, 1.0))


def test_an_alpha_of_any_real_type_is_its_float():
    expected = scalar_curvature(GAUSS, 1.0, (0.0, 1.0))
    for alpha in (1, np.int64(1), np.float32(1.0)):
        assert scalar_curvature(gaussian_model(), alpha, (0.0, 1.0)) == expected


def test_connection_components_expose_metadata():
    gamma = alpha_connection(GAUSS, 0.5, (0.0, 1.0))
    assert gamma.components.shape == (2, 2, 2)


def test_curvature_pack_consistency():
    pack = curvature(GAUSS, 0.0, (0.0, 1.0))
    assert pack.ricci.components[0, 0] == pytest.approx(-0.5, rel=1e-12)
    assert pack.scalar == pytest.approx(-1.0, rel=1e-12)
    contracted = np.einsum("kjkl->jl", pack.riemann.components)
    assert np.allclose(contracted, pack.ricci.components, rtol=1e-14)
