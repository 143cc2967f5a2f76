"""Rescalings: the transformation laws and their closed-form shift predictions."""

import json
import math

import numpy as np
import pytest

from cupgeo.errors import ConfigError, UnsupportedOrderError
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
    NonlinearCoupling,
    alpha_connection,
    ricci,
    riemann,
)
from cupgeo.manifolds import gaussian_model, multinomial_model
from cupgeo.tensor_core import as_coords
from cupgeo.verify import default_suite_config, run_suite

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
            def counted(coords, order, jet=potential.jet):
                orders.append(order)
                return jet(coords, order)
            potential.jet = counted
    assert run_suite(config).passed
    # 40 rescalings on one grid each; one first asked for a lower order is evaluated twice
    assert len(orders) <= 60


def test_potential_must_be_scalar_field():
    with pytest.raises(ConfigError):
        CupRescaling(1.0, "0.3*mu")
    with pytest.raises(ConfigError):
        CupRescaling(float("nan"), GAUSS.scalar_field("mu"))


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
    assert tilde.skewness_at((0.3, 0.25)).is_fully_symmetric()


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
    with pytest.raises(ConfigError):
        parse_rescaling(json.dumps({"alpha": 1.0, "potential": 5}), GAUSS)
    with pytest.raises(ConfigError):
        parse_rescaling(json.dumps({"alpha": 1.0, "potential": "nosuchvar"}), GAUSS)
