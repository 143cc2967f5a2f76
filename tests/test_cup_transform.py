"""Rescalings: the transformation laws and their closed-form shift predictions."""

import json
import math

import numpy as np
import pytest

from cupgeo.errors import ConfigError, DomainError, EvaluationError, UnsupportedOrderError
from cupgeo.cup_transform import (
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
from cupgeo.geometry import (
    HessianSpec,
    NonlinearCoupling,
    alpha_connection,
    cup_laplacian,
    modified_hessian,
    nonlinear_cup_operator,
    ricci,
    riemann,
)
from cupgeo.manifolds import (
    euclidean_model,
    gaussian_model,
    model_from_callables,
    multinomial_model,
    parse_model,
)
from cupgeo.tensor_core import NumericField, as_coords
from cupgeo.verify import default_suite_config, run_suite

from helpers import assert_fully_symmetric

GAUSS = gaussian_model()
TRI = multinomial_model(3)


def resc(alpha, source, model=GAUSS):
    return make_rescaling(alpha, model.scalar_field(source))


# -- eta and psi ------------------------------------------------------------


def test_identity_potential_gives_unit_factor_and_zero_covector():
    r = resc(1.0, "0")
    assert r.eta((0.4, 1.3)) == 1.0
    assert np.array_equal(r.psi((0.4, 1.3)).components, [0.0, 0.0])


def test_eta_closed_form():
    r = resc(1.0, "0.3*mu")
    assert r.eta((0.0, 1.0)) == 1.0
    assert r.eta((1.0, 1.0)) == pytest.approx(math.exp(-0.3), rel=1e-15)
    assert np.allclose(r.psi((2.0, 0.5)).components, [0.3, 0.0], rtol=1e-15)


def test_alpha_zero_keeps_unit_factor_with_active_covector():
    r = resc(0.0, "sigma")
    assert r.eta((1.0, 2.0)) == 1.0
    assert np.array_equal(r.psi((1.0, 2.0)).components, [0.0, 1.0])


def test_log_factor_differential_matches_scaled_covector():
    # d(log eta) = -alpha * psi, componentwise at the jet level
    r = resc(0.7, "0.2*mu*sigma")
    coords = (0.8, 1.4)
    eta = r.eta_jet(coords, 1)
    psi = r.psi_jet(coords, 0)
    dlog = eta.d1 / eta.value
    assert np.abs(dlog + 0.7 * psi.value).max() <= 1e-13


def test_psi_exactness_at_jet_level():
    r = resc(0.5, "0.1*mu^2*sigma")
    dpsi = r.psi_jet((0.6, 1.1), 1).d1
    assert np.array_equal(dpsi, dpsi.T)


def test_psi_jet_order_capped():
    # a psi jet of order m needs the potential to order m + 1
    r = resc(0.5, "mu")
    assert r.psi_jet((0.0, 1.0), 1).order == 1
    with pytest.raises(UnsupportedOrderError):
        r.psi_jet((0.0, 1.0), 2)


@pytest.mark.parametrize("points", [(0.3, 1.2), ((0.3, 1.2), (-1.0, 0.6), (1.0, 1.8))],
                         ids=["point", "batch"])
def test_kept_jets_match_a_fresh_rescaling_bitwise(points):
    x = as_coords(points)
    kept = resc(0.5, "0.1*mu*sigma + exp(0.2*mu)")
    kept.eta_jet(x, 2)  # every lower order below is read off this one by truncation
    for order in (0, 1, 2):
        fresh = resc(0.5, "0.1*mu*sigma + exp(0.2*mu)")
        pairs = [(kept.eta_jet(x, order), fresh.eta_jet(x, order))]
        if order < 2:
            pairs.append((kept.psi_jet(x, order), fresh.psi_jet(x, order)))
        for got, want in pairs:
            assert got.order == want.order == order
            for k in range(order + 1):
                assert np.array_equal(got.deriv(k), want.deriv(k))


def test_default_pass_evaluates_each_potential_once_per_grid():
    config = default_suite_config()
    orders = []
    for case in config.cases:
        for potential in case.potentials:
            def counted(coords, order, evaluate=potential._jet):
                orders.append(order)
                return evaluate(coords, order)
            potential._jet = counted
    assert run_suite(config).passed
    # one rescaling of each of the four potentials, on its case's alpha-tiled
    # grid: the first request is at the highest order any of them needs
    assert orders == [2, 2, 2, 2]


def test_potential_must_be_scalar_field():
    with pytest.raises(ConfigError):
        CupRescaling(1.0, "0.3*mu")
    with pytest.raises(ConfigError):
        CupRescaling(float("nan"), GAUSS.scalar_field("mu"))


@pytest.mark.parametrize("alpha", ["x", "0.5", True, None])
def test_an_alpha_that_is_not_a_real_number_is_a_config_error(alpha):
    with pytest.raises(ConfigError, match=r"^alpha must be a real number"):
        make_rescaling(alpha, GAUSS.scalar_field("mu"))


# -- model transformation ---------------------------------------------------


def test_identity_rescaling_fixes_the_model_exactly():
    tilde = rescaled_model(GAUSS, resc(1.0, "0"))
    for p in ((0.0, 1.0), (1.5, 0.7)):
        assert np.array_equal(
            tilde.metric_at(p).components, GAUSS.metric_at(p).components
        )
        assert np.array_equal(
            tilde.skewness_at(p).components, GAUSS.skewness_at(p).components
        )


def test_metric_scales_by_the_conformal_factor():
    r = resc(1.0, "0.3*mu")
    tilde = rescaled_model(GAUSS, r)
    p = (1.0, 1.0)
    assert np.allclose(
        tilde.metric_at(p).components,
        math.exp(-0.3) * np.diag([1.0, 2.0]),
        rtol=1e-14,
    )


def test_skewness_shift_hand_value():
    # at unit factor: t_111 + 3 g_11 psi_1 = 0 + 3 * 1 * 0.3
    tilde = rescaled_model(GAUSS, resc(1.0, "0.3*mu"))
    t = tilde.skewness_at((0.0, 1.0)).components
    assert t[0, 0, 0] == pytest.approx(0.9, rel=1e-14)
    assert t[0, 0, 1] == pytest.approx(2.0, rel=1e-14)  # psi_sigma = 0 leaves it


def test_alpha_zero_still_deforms_skewness():
    tilde = rescaled_model(GAUSS, resc(0.0, "0.3*mu"))
    p = (0.7, 1.0)
    assert np.array_equal(tilde.metric_at(p).components, GAUSS.metric_at(p).components)
    t = tilde.skewness_at(p).components
    assert t[0, 0, 0] == pytest.approx(0.9, rel=1e-13)


def test_rescaled_skewness_stays_fully_symmetric():
    tilde = rescaled_model(TRI, make_rescaling(0.5, TRI.scalar_field("0.2*p1*p2")))
    assert_fully_symmetric(tilde.skewness_at((0.3, 0.25)).components)


def test_composition_matches_summed_potentials():
    p = (0.6, 1.2)
    r1 = resc(0.5, "0.3*mu")
    r2 = resc(0.5, "0.1*mu*sigma")
    once = rescaled_model(rescaled_model(GAUSS, r1), r2)
    joint = rescaled_model(GAUSS, resc(0.5, "0.3*mu + 0.1*mu*sigma"))
    assert np.abs(once.metric_at(p).components - joint.metric_at(p).components).max() <= 1e-10
    assert np.abs(once.skewness_at(p).components - joint.skewness_at(p).components).max() <= 1e-10


def test_chart_mismatch_rejected():
    with pytest.raises(ConfigError):
        rescaled_model(TRI, resc(1.0, "0.3*mu"))


def test_transformed_fields_keep_their_chart():
    r = resc(0.5, "0.2*p1*p2", TRI)
    density = transform_density(WeightedDensity(GAUSS.scalar_field("mu*sigma"), 1.0), r)
    coupling = transform_coupling(NonlinearCoupling(GAUSS.scalar_field("2"), 3.0), r)
    model = rescaled_model(TRI, r)
    with pytest.raises(ConfigError, match=r"density is written in \['mu', 'sigma'\]"):
        cup_laplacian(model, 0.5, density.f, (0.2, 0.3))
    with pytest.raises(ConfigError, match=r"coupling is written in \['mu', 'sigma'\]"):
        nonlinear_cup_operator(model, 0.5, 1.0, coupling, (0.2, 0.3))


def _derived_modes(model, potential):
    """The modes of the rescaled model, its two fields, a transformed density
    and a transformed coupling, for the rescaling by ``potential``."""
    r = make_rescaling(0.5, potential)
    moved = rescaled_model(model, r)
    c1 = model.coord_names[0]
    density = transform_density(WeightedDensity(model.scalar_field(f"1 + 0.1*{c1}"), 1.0), r)
    coupling = transform_coupling(NonlinearCoupling(model.scalar_field("2"), 3.0), r)
    return [moved.mode, moved.metric.mode, moved.skewness.mode, density.f.mode,
            coupling.lam.mode]


def _gaussian_by_callables():
    return model_from_callables(
        2, GAUSS.coord_names, lambda v: np.diag([1.0 / v[1] ** 2, 2.0 / v[1] ** 2]),
        lambda v: np.zeros((2, 2, 2)), domain=GAUSS.domain, name="gaussian-fd")


def test_a_finite_difference_potential_makes_every_derived_field_fd():
    potential = NumericField(lambda v: 0.1 * v[0] * v[1], 2)
    assert _derived_modes(GAUSS, potential) == ["fd"] * 5


def test_an_expression_potential_keeps_every_derived_field_exact():
    assert _derived_modes(GAUSS, GAUSS.scalar_field("0.1*mu*sigma")) == ["jet"] * 5


def test_a_finite_difference_model_rescaled_by_an_expression_is_fd():
    model = _gaussian_by_callables()
    modes = _derived_modes(model, model.scalar_field("0.1*mu*sigma"))
    # the density and coupling read only expressions
    assert modes == ["fd", "fd", "fd", "jet", "jet"]


@pytest.mark.parametrize("make", [
    gaussian_model,
    lambda: multinomial_model(4),
    lambda: euclidean_model(3),
    lambda: parse_model(json.dumps({"dim": 2, "coords": ["u", "v"],
                                    "metric": {"11": "1 + u^2", "22": "exp(v)"}})),
    _gaussian_by_callables,
], ids=["gaussian", "multinomial:4", "euclidean:3", "config", "callables"])
def test_a_model_and_its_rescaling_take_their_dimension_from_the_chart(make):
    model = make()
    moved = rescaled_model(model, make_rescaling(0.5, model.scalar_field(
        f"0.1*{model.coord_names[0]}")))
    for m in (model, moved):
        assert m.dim == len(m.coord_names) == m.metric.dim == m.skewness.dim


def test_wrong_symmetrization_weight_changes_the_skewness():
    r = resc(1.0, "0.3*mu")
    good = rescaled_model(GAUSS, r).skewness_at((0.0, 1.0)).components
    bad = rescaled_model(GAUSS, r, sym_weight=1 / 3).skewness_at((0.0, 1.0)).components
    assert np.abs(good - bad).max() > 0.1


# -- density and coupling transforms ----------------------------------------


def test_density_picks_up_weighted_factor():
    # choose the point where eta = 2 exactly
    p = (-math.log(2.0) / 0.3, 1.0)
    r = resc(1.0, "0.3*mu")
    assert r.eta(p) == pytest.approx(2.0, rel=1e-14)
    d = WeightedDensity(GAUSS.scalar_field("3"), 1.0)
    assert transform_density(d, r).f(p) == pytest.approx(6.0, rel=1e-13)
    flat = WeightedDensity(GAUSS.scalar_field("3"), 0.0)
    assert transform_density(flat, r).f(p) == pytest.approx(3.0, rel=1e-15)


def test_coupling_divides_by_factor_power():
    p = (-math.log(2.0) / 0.3, 1.0)
    r = resc(1.0, "0.3*mu")
    c = NonlinearCoupling(GAUSS.scalar_field("8"), 3.0)
    moved = transform_coupling(c, r)
    assert moved.a == 3.0
    assert float(moved.lam(p)) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("points", [(0.3, 1.2), ((0.3, 1.2), (-1.0, 0.6), (1.0, 1.8))],
                         ids=["point", "batch"])
def test_a_number_input_transforms_as_its_constant_field(points):
    r = resc(0.5, "0.1*mu*sigma + 0.3*mu")
    varied = rescaled_model(GAUSS, r)

    def values(f, lam):
        density = transform_density(WeightedDensity(f, 1.0), r).f
        coupling = transform_coupling(NonlinearCoupling(lam, 3.0), r)
        return (cup_laplacian(varied, 0.5, density, points),
                modified_hessian(varied, 0.5, HessianSpec(1.0), density, points).components,
                nonlinear_cup_operator(varied, 0.5, density, coupling, points))

    two = GAUSS.scalar_field("2")
    for got, want in zip(values(2.0, 2), values(two, two)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_number_input_is_a_config_error(value):
    r = resc(0.5, "0.3*mu")
    with pytest.raises(ConfigError, match="density must be finite"):
        transform_density(WeightedDensity(value, 1.0), r)
    with pytest.raises(ConfigError, match="coupling must be finite"):
        transform_coupling(NonlinearCoupling(value, 2.0), r)


# a rescaling with one alpha per row, at the rows' points; row 1 (alpha = -1
# at mu = 1) is the only one where eta = exp(-alpha * potential) grows
ROW_ALPHAS = np.array([0.0, -1.0, 1.0])
ROW_POINTS = np.array([(-1.0, 1.0), (1.0, 1.0), (0.0, 1.0)])


def test_a_failing_row_of_a_per_row_rescaling_is_named_as_itself():
    # exp(800) overflows at row 1 only; row 0 has eta = 1
    r = make_rescaling(ROW_ALPHAS, GAUSS.scalar_field("800*mu"))
    with pytest.raises(EvaluationError, match=r"^conformal factor of potential field '800\*mu' "
                                              r"is not finite at \(1\.0, 1\.0\) \(row 1\)$"):
        r.eta(ROW_POINTS)


def test_a_failing_row_of_a_per_row_transformed_coupling_is_named_as_itself():
    # eta = exp(400) is finite at row 1, and eta^2 is not
    lam = transform_coupling(NonlinearCoupling(GAUSS.scalar_field("2"), -2.0),
                             make_rescaling(ROW_ALPHAS, GAUSS.scalar_field("400*mu"))).lam
    with pytest.raises(EvaluationError, match=r"^eta\^2 times field '2' is not finite at "
                                              r"\(1\.0, 1\.0\) \(row 1\)$"):
        lam.jet(ROW_POINTS, 0)


def test_an_error_in_a_rules_own_arithmetic_names_the_batch():
    # eta = exp(-800) is zero at row 1, and a fractional power of zero raises
    lam = transform_coupling(NonlinearCoupling(GAUSS.scalar_field("2"), 0.5),
                             make_rescaling(ROW_ALPHAS, GAUSS.scalar_field("-800*mu"))).lam
    with pytest.raises(DomainError, match=(
            r"^eta\^-0\.5 times field '2' failed at a batch of 3 points: "
            r"zero base raised to fractional exponent -0\.5$")):
        lam.jet(ROW_POINTS, 0)


# -- shift predictions vs direct recomputation ------------------------------


def test_connection_shift_closed_form_components():
    shift = connection_shift_prediction(resc(1.0, "0.3*mu"), (0.0, 1.0)).components
    assert shift[0, 0, 0] == pytest.approx(-0.6, rel=1e-15)
    assert shift[1, 0, 1] == pytest.approx(-0.3, rel=1e-15)
    assert shift[0, 1, 1] == 0.0
    negated = connection_shift_prediction(resc(-1.0, "0.3*mu"), (0.0, 1.0)).components
    assert np.array_equal(negated, -shift)


def test_connection_shift_matches_direct_recomputation():
    for model, pot, p in (
        (GAUSS, "0.3*mu", (0.4, 1.1)),
        (GAUSS, "0.1*mu*sigma", (-0.5, 0.8)),
        (TRI, "0.2*p1*p2", (0.3, 0.25)),
    ):
        for a in (-1.0, -0.5, 0.5, 1.0):
            r = make_rescaling(a, model.scalar_field(pot))
            direct = (
                alpha_connection(rescaled_model(model, r), a, p).components
                - alpha_connection(model, a, p).components
            )
            predicted = connection_shift_prediction(r, p).components
            assert np.abs(direct - predicted).max() <= 1e-11


def test_ricci_shift_matches_direct_recomputation():
    for model, pot, p in ((GAUSS, "0.3*mu", (0.0, 1.0)), (TRI, "0.3*p1", (0.3, 0.25))):
        for a in (-1.0, 0.5, 1.0):
            r = make_rescaling(a, model.scalar_field(pot))
            direct = (
                ricci(rescaled_model(model, r), a, p).components
                - ricci(model, a, p).components
            )
            predicted = ricci_shift_prediction(model, r, p).components
            assert np.abs(direct - predicted).max() <= 1e-9


def test_curvature_shift_matches_direct_recomputation():
    r = resc(1.0, "0.3*mu")
    p = (0.0, 1.0)
    direct = (
        riemann(rescaled_model(GAUSS, r), 1.0, p).components
        - riemann(GAUSS, 1.0, p).components
    )
    predicted = curvature_shift_prediction(GAUSS, r, p).components
    assert np.abs(direct - predicted).max() <= 1e-9


def test_curvature_shift_traces_to_ricci_shift():
    for a in (-0.5, 1.0):
        r = resc(a, "0.1*mu*sigma")
        p = (0.7, 1.3)
        full = curvature_shift_prediction(GAUSS, r, p).components
        traced = np.einsum("kjkl->jl", full)
        assert np.abs(traced - ricci_shift_prediction(GAUSS, r, p).components).max() <= 1e-13


def test_shift_predictions_vanish_for_constant_potential():
    r = resc(1.0, "2.5")
    p = (0.3, 0.9)
    assert np.abs(connection_shift_prediction(r, p).components).max() == 0.0
    assert np.abs(ricci_shift_prediction(GAUSS, r, p).components).max() == 0.0
    assert np.abs(curvature_shift_prediction(GAUSS, r, p).components).max() == 0.0


def test_shift_predictions_vanish_at_alpha_zero():
    r = resc(0.0, "0.3*mu")
    p = (0.5, 1.5)
    assert np.abs(connection_shift_prediction(r, p).components).max() == 0.0
    assert np.abs(ricci_shift_prediction(GAUSS, r, p).components).max() == 0.0


# -- config parsing ---------------------------------------------------------


def test_parse_rescaling_roundtrip():
    r = parse_rescaling(json.dumps({"alpha": 0.5, "potential": "0.3*mu"}), GAUSS)
    assert r.alpha == 0.5
    assert np.allclose(r.psi((1.0, 1.0)).components, [0.3, 0.0], rtol=1e-15)


def test_parse_rescaling_errors():
    with pytest.raises(ConfigError):
        parse_rescaling("{bad", GAUSS)
    with pytest.raises(ConfigError):
        parse_rescaling(json.dumps({"alpha": 1.0}), GAUSS)
    with pytest.raises(ConfigError):
        parse_rescaling(json.dumps({"alpha": "x", "potential": "mu"}), GAUSS)
    for flag in (True, False):
        with pytest.raises(ConfigError, match=f"alpha must be a real number, got {flag}"):
            parse_rescaling(json.dumps({"alpha": flag, "potential": "mu"}), GAUSS)
    with pytest.raises(ConfigError):
        parse_rescaling(json.dumps({"alpha": 1.0, "potential": 5}), GAUSS)
    with pytest.raises(ConfigError):
        parse_rescaling(json.dumps({"alpha": 1.0, "potential": "nosuchvar"}), GAUSS)
