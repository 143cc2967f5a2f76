"""Acceptance criteria, one test per numbered item, at the stated tolerances.

Criteria 1-8 read the aggregated default verification suite (run once per
module); 9 and 10 exercise the oracles and the CLI determinism contract
directly.  Each test prints a single PASS line naming its criterion; run
with -s (or read the -v test names) to see the checklist.
"""

import subprocess
import sys

import numpy as np
import pytest

from cupgeo.manifolds import estimate_fisher_tensors, gaussian_model
from cupgeo.geometry import riemann, scalar_curvature
from cupgeo.verify import (
    CONTROL_FACTOR,
    control_failed_as_expected,
    default_suite_config,
    run_suite,
)

ALPHAS = (-1.0, -0.5, 0.0, 0.5, 1.0)


@pytest.fixture(scope="module")
def suite():
    config = default_suite_config()
    assert config.alphas == ALPHAS
    result = run_suite(config)
    return {r.check_id: r for r in result.reports}, result, config


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_metric_compatibility(suite):
    by_id, _, _ = suite
    r = by_id["metric_compat"]
    assert r.tolerance == 1e-7
    assert r.passed and r.max_rel_residual <= 1e-7
    assert r.points_evaluated > 0
    report(1, f"covariant metric derivative matches alpha-weighted skewness, "
              f"max residual {r.max_rel_residual:.2e} <= 1e-07 over {r.points_evaluated} evals")


def test_criterion_2_codazzi_symmetry(suite):
    by_id, _, _ = suite
    r = by_id["codazzi"]
    assert r.tolerance == 1e-7
    assert r.passed and r.max_rel_residual <= 1e-7
    report(2, f"metric derivative symmetric in first two slots, "
              f"max residual {r.max_rel_residual:.2e} <= 1e-07")


def test_criterion_3_connection_shift(suite):
    by_id, _, config = suite
    r = by_id["conn_shift"]
    assert r.tolerance == 1e-7
    assert r.passed and r.max_rel_residual <= 1e-7
    for case in config.cases:
        assert len(case.potentials) == 2
    grid = sum(len(case.points) for case in config.cases)
    assert r.points_evaluated == len(ALPHAS) * 2 * grid
    report(3, f"predicted connection shift equals direct recomputation, "
              f"max residual {r.max_rel_residual:.2e} <= 1e-07, "
              f"2 rescalings per model per alpha")


def test_criterion_4_curvature_and_ricci_shift(suite):
    by_id, _, _ = suite
    curv, ric = by_id["curv_shift"], by_id["ricci_shift"]
    assert curv.tolerance == 1e-6 and ric.tolerance == 1e-6
    assert curv.passed and curv.max_rel_residual <= 1e-6
    assert ric.passed and ric.max_rel_residual <= 1e-6
    assert curv.trace_residual <= 1e-9
    report(4, f"curvature shift {curv.max_rel_residual:.2e} <= 1e-06, "
              f"ricci shift {ric.max_rel_residual:.2e} <= 1e-06, "
              f"trace consistency {curv.trace_residual:.2e} <= 1e-09")


def test_criterion_5_modified_hessian_invariance(suite):
    by_id, _, _ = suite
    r = by_id["hessian_inv"]
    control = by_id["hessian_inv[k=0]"]
    assert r.tolerance == 1e-7
    assert r.passed and r.max_rel_residual <= 1e-7
    assert control.negative_control
    assert control.max_rel_residual >= CONTROL_FACTOR * control.tolerance
    assert control_failed_as_expected(control)
    report(5, f"ricci-coupled hessian scales by eta, residual "
              f"{r.max_rel_residual:.2e} <= 1e-07; k=0 control fails at "
              f"{control.max_rel_residual:.2e} >= 1e+03 x tolerance")


def test_criterion_6_laplacian_invariance_and_decomposition(suite):
    by_id, _, _ = suite
    r = by_id["laplacian_inv"]
    assert r.tolerance == 1e-7
    assert r.passed and r.max_rel_residual <= 1e-7
    assert r.decomp_residual <= 1e-8
    report(6, f"trace operator invariant with no output factor, residual "
              f"{r.max_rel_residual:.2e} <= 1e-07; divergence decomposition "
              f"{r.decomp_residual:.2e} <= 1e-08")


def test_criterion_7_nonlinear_invariance(suite):
    by_id, _, config = suite
    r = by_id["nonlinear_inv"]
    assert r.tolerance == 1e-7
    assert r.passed and r.max_rel_residual <= 1e-7
    for case in config.cases:
        assert {c.a for c in case.couplings} == {-2.0, 0.5, 1.0, 3.0}
    report(7, f"zeroth-order coupling divided by eta^a restores invariance for "
              f"a in {{-2, 0.5, 1, 3}}, residual {r.max_rel_residual:.2e} <= 1e-07")


def test_criterion_8_curvature_integrability(suite):
    by_id, _, _ = suite
    r = by_id["integrability"]
    assert r.tolerance == 1e-6
    assert r.passed and r.max_rel_residual <= 1e-6
    assert r.flat_points > 0
    assert r.points_evaluated > 0
    report(8, f"curvature equals its ricci reconstruction, residual "
              f"{r.max_rel_residual:.2e} <= 1e-06 over {r.points_evaluated} "
              f"curved points; {r.flat_points} flat points reported and skipped")


def test_criterion_9_oracle_cross_checks():
    model = gaussian_model()
    grid = [(mu, sigma) for mu in (-2.0, -0.5, 0.0, 1.0, 2.5)
            for sigma in (0.4, 0.8, 1.0, 1.7, 3.0)]
    worst = 0.0
    for p in grid:
        worst = max(worst, abs(scalar_curvature(model, 0.0, p) + 1.0))
    assert worst <= 1e-7

    worst_flat = 0.0
    for alpha in (-1.0, 1.0):
        for p in grid:
            worst_flat = max(worst_flat,
                             float(np.max(np.abs(riemann(model, alpha, p).components))))
    assert worst_flat <= 1e-6

    spec = model.sample_spec(count=10**6, seed=0)
    est = estimate_fisher_tensors(spec, (0.0, 1.0))
    assert est.se_reliable
    g = model.metric_at((0.0, 1.0)).components
    t = model.skewness_at((0.0, 1.0)).components
    z_g = float(np.max(np.abs(est.metric.components - g) / est.metric_se))
    z_t = float(np.max(np.abs(est.skewness.components - t) / est.skewness_se))
    assert z_g <= 3.0
    assert z_t <= 3.0
    report(9, f"gaussian scalar curvature -1 within {worst:.2e} over 25 points; "
              f"exponential-family flatness {worst_flat:.2e} <= 1e-06; "
              f"sampled tensors within {max(z_g, z_t):.2f} standard errors at 1e6 draws")


def test_criterion_10_byte_identical_verification():
    argv = [sys.executable, "-m", "cupgeo.cli",
            "verify", "--default", "--seed", "42", "--json"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0
    report(10, f"two seeded verification runs emit identical bytes "
               f"({len(first.stdout)} bytes of JSON)")


def test_default_suite_verdict(suite):
    _, result, _ = suite
    assert result.passed
