"""Suite plumbing: check dispatch, negative controls, determinism."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cupgeo import verify
from cupgeo.cli import _case_for, render_json
from cupgeo.cup_transform import (
    WeightedDensity,
    make_rescaling,
    rescaled_model,
    transform_coupling,
    transform_density,
)
from cupgeo.errors import ConfigError, EvaluationError, SingularMetricError
from cupgeo.geometry import NonlinearCoupling
from cupgeo.manifolds import Domain, gaussian_model, model_from_callables, multinomial_model
from cupgeo.tensor_core import Tensor
from cupgeo.verify import (
    CHECK_IDS,
    CONTROL_FACTOR,
    ModelCase,
    SuiteConfig,
    _Residuals,
    control_failed_as_expected,
    default_suite_config,
    run_check,
    run_suite,
)

from helpers import RowByRowResiduals, gaussian_metric, gaussian_skewness

GAUSS = gaussian_model()


def small_config(**overrides):
    """Two-point gaussian matrix, two alphas.  Fast enough to run per-test."""
    case = ModelCase(
        model=GAUSS,
        points=((0.0, 1.0), (0.5, 1.4)),
        potentials=(GAUSS.scalar_field("0.2*mu"),),
        densities=(WeightedDensity(GAUSS.scalar_field("1 + 0.1*mu*sigma"), 1.0),),
        couplings=(
            NonlinearCoupling(GAUSS.scalar_field("2"), 3.0),
            NonlinearCoupling(GAUSS.scalar_field("1 + 0.1*mu"), -2.0),
        ),
    )
    base = dict(cases=(case,), alphas=(-1.0, 0.5))
    base.update(overrides)
    return SuiteConfig(**base)


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_every_check_passes_on_small_matrix(check_id):
    report = run_check(check_id, small_config())
    assert report.passed
    assert report.check_id == check_id
    assert report.max_rel_residual <= report.tolerance
    assert not report.negative_control


def test_unknown_check_id():
    with pytest.raises(ConfigError, match="unknown check"):
        run_check("metric_compat_typo", small_config())


def test_report_counts_every_matrix_cell():
    # 2 alphas x 1 potential x 1 density x 2 points
    report = run_check("hessian_inv", small_config())
    assert report.points_evaluated == 4
    # nonlinear adds the coupling axis
    report = run_check("nonlinear_inv", small_config())
    assert report.points_evaluated == 8
    # metric_compat runs on base and rescaled models alike
    report = run_check("metric_compat", small_config())
    assert report.points_evaluated == 8


def test_worst_point_is_a_grid_point():
    report = run_check("conn_shift", small_config())
    assert tuple(report.worst_point) in {(0.0, 1.0), (0.5, 1.4)}


class TestValidation:
    def test_no_cases(self):
        with pytest.raises(ConfigError, match="no model cases"):
            run_check("codazzi", small_config(cases=()))

    def test_no_alphas(self):
        with pytest.raises(ConfigError, match="alpha"):
            run_check("codazzi", small_config(alphas=()))

    def test_case_without_points(self):
        case = dataclasses.replace(small_config().cases[0], points=())
        with pytest.raises(ConfigError, match="no grid points"):
            run_check("codazzi", small_config(cases=(case,)))

    def test_case_without_potentials(self):
        case = dataclasses.replace(small_config().cases[0], potentials=())
        with pytest.raises(ConfigError, match="potentials"):
            run_check("codazzi", small_config(cases=(case,)))

    def test_a_potential_on_another_chart_is_named(self):
        """Every potential of a batch is held to the case's chart, not only its first."""
        case = dataclasses.replace(small_config().cases[0], potentials=(
            GAUSS.scalar_field("0.2*mu"), multinomial_model(3).scalar_field("p1")))
        with pytest.raises(ConfigError, match=r"chart mismatch: rescaling potential is written "
                                              r"in \['p1', 'p2'\]"):
            run_check("conn_shift", small_config(cases=(case,)))

    def test_point_outside_domain(self):
        case = dataclasses.replace(small_config().cases[0],
                                   points=((0.0, 1.0), (0.0, -1.0)))
        with pytest.raises(Exception, match="outside the domain"):
            run_check("codazzi", small_config(cases=(case,)))

    @pytest.mark.parametrize("check_id", ["integrability", "hessian_inv"])
    def test_one_dimensional_case_rejected(self, check_id):
        bern = multinomial_model(2)
        case = ModelCase(model=bern, points=((0.5,),), potentials=(bern.scalar_field("p1"),),
                         densities=(WeightedDensity(bern.scalar_field("1"), 1.0),), couplings=())
        with pytest.raises(ConfigError, match="'multinomial:2' is one-dimensional"):
            run_check(check_id, small_config(cases=(case,)))

    @pytest.mark.parametrize("overrides, field", [
        ({"tolerance": float("nan")}, "tolerance"),
        ({"tolerance": 0.0}, "tolerance"),
        ({"hessian_k": float("nan")}, "hessian_k"),
        ({"sym_weight": float("inf")}, "sym_weight"),
        ({"laplacian_s": float("-inf")}, "laplacian_s"),
    ])
    def test_bad_knob_names_its_field(self, overrides, field):
        with pytest.raises(ConfigError) as exc:
            run_check("codazzi", small_config(**overrides))
        assert str(exc.value).startswith(field + " must be finite")


class TestNegativeControls:
    """Each sabotage knob must break exactly its own check, loudly."""

    def test_dropping_ricci_coupling_breaks_hessian_invariance(self):
        report = run_check("hessian_inv", small_config(hessian_k=0.0))
        assert not report.passed
        assert control_failed_as_expected(report)

    def test_normalized_symmetrization_breaks_connection_shift(self):
        report = run_check("conn_shift", small_config(sym_weight=1.0 / 3.0))
        assert not report.passed
        assert control_failed_as_expected(report)

    def test_conformal_output_weight_breaks_trace_invariance(self):
        report = run_check("laplacian_inv", small_config(laplacian_s=1.0))
        assert not report.passed
        assert control_failed_as_expected(report)

    def test_sabotage_does_not_leak_into_unrelated_checks(self):
        # the k knob only matters where the curvature coupling appears
        report = run_check("conn_shift", small_config(hessian_k=0.0))
        assert report.passed

    def test_barely_failing_is_not_a_control_pass(self):
        good = run_check("hessian_inv", small_config())
        fake = dataclasses.replace(good, max_rel_residual=good.tolerance * 10)
        assert not control_failed_as_expected(fake)


class TestRunSuite:
    def test_small_suite_shape_and_verdict(self):
        result = run_suite(small_config())
        assert result.passed
        assert len(result.reports) == len(CHECK_IDS) + 3
        ids = [r.check_id for r in result.reports]
        assert ids[: len(CHECK_IDS)] == list(CHECK_IDS)
        assert ids[len(CHECK_IDS):] == [
            "hessian_inv[k=0]", "conn_shift[sym=1/3]", "laplacian_inv[s=1]"]
        for r in result.reports:
            assert r.negative_control == ("[" in r.check_id)
        for r in result.reports:
            if r.negative_control:
                assert r.max_rel_residual >= CONTROL_FACTOR * r.tolerance

    def test_suite_fails_when_a_control_stops_failing(self):
        result = run_suite(small_config())
        doctored = [r for r in result.reports]
        idx = next(i for i, r in enumerate(doctored) if r.negative_control)
        doctored[idx] = dataclasses.replace(doctored[idx], max_rel_residual=0.0)
        passed = all(r.passed for r in doctored if not r.negative_control) and all(
            control_failed_as_expected(r) for r in doctored if r.negative_control)
        assert not passed

    def test_summary_is_deterministic(self):
        a = run_suite(small_config()).summary(seed=7)
        b = run_suite(small_config()).summary(seed=7)
        assert a == b
        assert render_json(a) == render_json(b)
        assert a["seed"] == 7
        assert a["passed"] is True

    def test_summary_without_seed_has_no_seed_key(self):
        summary = run_suite(small_config()).summary()
        assert "seed" not in summary
        assert set(summary) == {"passed", "checks"}

    def test_summary_fields_per_check(self):
        summary = run_suite(small_config()).summary(seed=0)
        assert len(summary["checks"]) == 12
        for row in summary["checks"]:
            assert set(row) == {
                "check_id", "negative_control", "points_evaluated", "flat_points",
                "max_abs_residual", "max_rel_residual", "tolerance",
                "trace_residual", "decomp_residual", "passed", "worst_point",
            }


class TestIntegrabilityReporting:
    def test_flat_points_skipped_and_counted(self):
        # both exponential-family flat alphas: every grid point is flat
        config = small_config(alphas=(-1.0, 1.0))
        report = run_check("integrability", config)
        assert report.passed
        assert report.flat_points == 4
        assert report.points_evaluated == 0
        assert report.worst_point == ()

    def test_mixed_flat_and_curved(self):
        report = run_check("integrability", small_config())
        assert report.flat_points == 2
        assert report.points_evaluated == 2

    def test_wrong_coupling_breaks_integrability(self):
        report = run_check("integrability", small_config(hessian_k=0.25))
        assert not report.passed


class TestTolerances:
    def test_unreachable_tolerance_fails_the_check(self):
        report = run_check("conn_shift", small_config(tolerance=1e-30))
        assert not report.passed

    def test_a_set_tolerance_applies(self):
        report = run_check("codazzi", small_config(tolerance=1e-3))
        assert report.tolerance == 1e-3

    def test_mode_default_when_nothing_set(self):
        report = run_check("codazzi", small_config())
        assert report.tolerance == 1e-7

    @pytest.mark.parametrize("model, tolerance", [
        (GAUSS, 1e-7),
        (model_from_callables(2, ("mu", "sigma"),
                              lambda v: np.diag([1.0 / v[1] ** 2, 2.0 / v[1] ** 2]),
                              lambda v: np.zeros((2, 2, 2)),
                              domain=Domain(((None, None), (0.0, None)))), 1e-4),
    ], ids=["jet", "fd"])
    def test_every_row_of_a_model_case_has_its_mode_tolerance(self, model, tolerance):
        result = run_suite(SuiteConfig(cases=(_case_for(model),), alphas=(-1.0, 0.5)))
        assert len(result.reports) == 12
        assert {r.tolerance for r in result.reports} == {tolerance}


def test_an_fd_model_with_a_real_skewness_passes_the_whole_suite():
    twin = model_from_callables(2, GAUSS.coord_names, gaussian_metric, gaussian_skewness,
                                domain=GAUSS.domain, name="gaussian-fd")
    result = run_suite(SuiteConfig(cases=(_case_for(twin),), alphas=verify.DEFAULT_ALPHAS))
    assert result.passed
    regular = [r for r in result.reports if not r.negative_control]
    controls = [r for r in result.reports if r.negative_control]
    assert len(regular) == len(CHECK_IDS) and len(controls) == 3
    # both sides of each law read the same stencil jets: only rounding is left
    assert max(r.max_rel_residual for r in regular) <= 1e-13
    assert all(r.max_rel_residual >= CONTROL_FACTOR * 1e-4 for r in controls)


class TestDefaultConfig:
    def test_matrix_shape(self):
        config = default_suite_config()
        assert len(config.cases) == 2
        assert {c.model.name for c in config.cases} == {"gaussian", "multinomial:3"}
        assert config.alphas == (-1.0, -0.5, 0.0, 0.5, 1.0)
        assert config.tolerance is None
        assert {r.tolerance for r in run_suite(config).reports} == {1e-7}
        for case in config.cases:
            assert len(case.couplings) == 4
            assert {c.a for c in case.couplings} == {3.0, -2.0, 0.5, 1.0}

    def test_knobs_default_to_honest_values(self):
        config = default_suite_config()
        assert config.hessian_k is None
        assert config.sym_weight == 1.0
        assert config.laplacian_s == 0.0


class TestTypeInvarianceHelper:
    """The (r; s) law on one cell: one model, alpha, potential and density."""

    POINTS = ((0.0, 1.0), (0.5, 1.4))

    def one_cell(self, **overrides):
        case = ModelCase(model=GAUSS, points=self.POINTS,
                         potentials=(GAUSS.scalar_field("0.2*mu"),),
                         densities=(WeightedDensity(GAUSS.scalar_field("1 + 0.1*mu*sigma"), 1.0),),
                         couplings=())
        return SuiteConfig(cases=(case,), alphas=(0.5,), **overrides)

    def test_trace_operator_is_type_one_zero(self):
        report = run_check("laplacian_inv", self.one_cell())
        assert report.passed
        assert report.points_evaluated == len(self.POINTS)

    def test_hessian_operator_is_type_one_one(self):
        report = run_check("hessian_inv", self.one_cell())
        assert report.passed
        assert report.points_evaluated == len(self.POINTS)

    def test_wrong_signature_fails(self):
        report = run_check("laplacian_inv", self.one_cell(laplacian_s=1.0))
        assert not report.passed


def test_non_finite_residual_fails_the_check():
    res = _Residuals()
    points = np.array([(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)])
    res.add(points, [[1.0], [np.nan], [np.inf]], [[1.0], [0.0], [0.0]])
    report = res.report("demo", 1e-7)
    assert report.points_evaluated == 3
    assert report.max_rel_residual == np.inf
    assert report.max_abs_residual == np.inf
    assert not report.passed
    # ties keep the later row, as for finite residuals
    assert report.worst_point == (2.0, 1.0)


def test_a_side_residual_is_judged_against_its_own_tolerance():
    points = np.array([(0.0, 1.0)])
    res, side = _Residuals(), _Residuals()
    res.add(points, [[1.0]], [[1.0]])
    side.add(points, [[0.0]], [[1e-6]])
    within = res.report("demo", 1e-7, [("trace_residual", side, 1e-5)])
    over = res.report("demo", 1e-7, [("trace_residual", side, 1e-7)])
    assert within.passed and not over.passed
    assert within.trace_residual == over.trace_residual == 1e-6
    assert over.max_rel_residual == 0.0


def test_curv_shift_fails_on_its_trace_side_law_alone(monkeypatch):
    """The curvature law still holds; only the Ricci prediction its trace
    is compared with is wrong."""
    exact = verify.ricci_shift_prediction
    monkeypatch.setattr(verify, "ricci_shift_prediction", lambda model, resc, p: Tensor(
        1.5 * exact(model, resc, p).components))
    report = run_check("curv_shift", small_config())
    assert report.max_rel_residual <= report.tolerance
    assert report.trace_residual > verify.TRACE_TOLERANCE
    assert not report.passed


# few distinct values, so that equal maxima within and across batches are common
_SIDE = st.sampled_from([0.0, 0.5, -0.5, 2.0, 3.0, -3.0, np.inf, np.nan])
# a batch: the component shape of its rows (scalar or 2x2), the dimension of
# its points, and its rows, each with both sides' components (the first one,
# or the first four, of each half is used); batches may be empty, as the
# curved-point filter of _check_integrability makes them
_BATCHES = st.lists(
    st.tuples(st.sampled_from([(), (2, 2)]), st.sampled_from([2, 3]),
              st.lists(st.tuples(*[_SIDE] * 8), max_size=6)),
    max_size=8)


def _tie_across_widths():
    """Scalar rows, 2x2 rows, then scalar rows again, with an empty batch
    between them, every row at the same relative residual."""
    scalar, square = (3.0,) + (0.0,) * 7, (3.0,) * 4 + (0.0,) * 4
    return [((), 2, [scalar] * 2), ((2, 2), 3, [square]), ((2, 2), 2, []), ((), 2, [scalar])]


@settings(max_examples=300, deadline=None)
@given(_BATCHES)
@example(_tie_across_widths())
def test_a_batch_is_recorded_as_its_rows_one_by_one(batches):
    each, last, rowwise = _Residuals(), _Residuals(), RowByRowResiduals()

    def results(res):
        if isinstance(res, RowByRowResiduals):
            return res.count, res.max_abs, res.max_rel, res.worst or ()
        report = res.report("demo", 1.0)
        return (report.points_evaluated, report.max_abs_residual, report.max_rel_residual,
                report.worst_point)

    start = 0
    for shape, dim, rows in batches:
        # each row gets its own point, so the worst point names the row
        points = np.array([(float(start + i),) + (1.0,) * (dim - 1)
                           for i in range(len(rows))]).reshape(-1, dim)
        start += len(rows)
        width = int(np.prod(shape))
        sides = np.array(rows).reshape(-1, 2, 4)[:, :, :width].reshape((-1, 2) + shape)
        for res in (each, last, rowwise):
            res.add(points, sides[:, 0], sides[:, 1])
        assert results(each) == results(rowwise)
    assert results(last) == results(each) == results(rowwise)
    _, max_abs, max_rel, _ = results(last)
    assert type(max_abs) is type(max_rel) is type(rowwise.max_abs) is float


def test_a_suite_of_a_2d_and_a_3d_case_reduces_as_its_two_cases():
    """Each report of a suite mixing a 2-d and a 3-d case is its two single-case
    reports reduced: counts add up, maxima take the larger, and the worst point
    is the one of the case holding the maximum."""
    both = (_case_for(gaussian_model()), _case_for(multinomial_model(4)))
    mixed, first, second = (
        run_suite(SuiteConfig(cases=cases, alphas=verify.DEFAULT_ALPHAS)).reports
        for cases in (both, both[:1], both[1:]))
    for m, a, b in zip(mixed, first, second, strict=True):
        assert m.check_id == a.check_id == b.check_id
        assert m.points_evaluated == a.points_evaluated + b.points_evaluated
        assert m.flat_points == a.flat_points + b.flat_points
        assert m.max_abs_residual == max(a.max_abs_residual, b.max_abs_residual)
        assert m.max_rel_residual == max(a.max_rel_residual, b.max_rel_residual)
        for side in ("trace_residual", "decomp_residual"):
            if getattr(a, side) is not None:
                assert getattr(m, side) == max(getattr(a, side), getattr(b, side))
        # a tie goes to the later case, whose rows are recorded last
        holder = b if b.max_rel_residual >= a.max_rel_residual else a
        assert m.worst_point == holder.worst_point


def _three_potentials():
    gauss = default_suite_config().cases[0]
    return dataclasses.replace(gauss, potentials=gauss.potentials + (
        GAUSS.scalar_field("0.2*sigma^2 - 0.1*mu"),))


BATCHED_CASES = {
    "gaussian": lambda: default_suite_config().cases[0],
    "multinomial:3": lambda: default_suite_config().cases[1],
    "multinomial:4": lambda: _case_for(multinomial_model(4)),
    "three potentials": _three_potentials,
}


@pytest.mark.parametrize("make_case", BATCHED_CASES.values(), ids=BATCHED_CASES)
def test_each_row_block_of_the_batched_rescaling_is_its_potential_alone(make_case):
    """Block i of the rescaling that carries every potential of a case, and of
    everything it drives, is bitwise what potential i alone gives on the grid
    tiled under alpha only."""
    case = make_case()
    config = SuiteConfig(cases=(case,), alphas=verify.DEFAULT_ALPHAS)
    pts, alphas = verify._grid(config, case)
    ((resc, varied, inputs),) = verify._rescalings(config, case, alphas, {})
    block = len(config.alphas) * len(case.points)
    assert len(pts) == len(case.potentials) * block
    for i, potential in enumerate(case.potentials):
        rows = slice(i * block, (i + 1) * block)
        x, alone = pts[rows], make_rescaling(alphas[rows], potential)
        alone_model = rescaled_model(case.model, alone)
        pairs = [(resc.eta_jet(pts, 2), alone.eta_jet(x, 2)),
                 (resc.psi_jet(pts, 1), alone.psi_jet(x, 1)),
                 (varied.metric.jet(pts, 2), alone_model.metric.jet(x, 2)),
                 (varied.skewness.jet(pts, 1), alone_model.skewness.jet(x, 1))]
        pairs += [(inputs[d].f.jet(pts, 2), transform_density(d, alone).f.jet(x, 2))
                  for d in case.densities]
        pairs += [(inputs[c].lam.jet(pts, 2), transform_coupling(c, alone).lam.jet(x, 2))
                  for c in case.couplings]
        for batched, single in pairs:
            for k in range(single.order + 1):
                got, want = batched.deriv(k)[rows], single.deriv(k)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model, size", [
    (gaussian_model(), 2), (multinomial_model(3), 2), (multinomial_model(4), 2),
    (multinomial_model(9), 2), (multinomial_model(17), 1)])
def test_potentials_share_a_batch_while_its_n4_arrays_stay_small(model, size):
    case = _case_for(model)
    config = SuiteConfig(cases=(case,), alphas=verify.DEFAULT_ALPHAS)
    assert verify._batch_size(config, case) == size
    pts, alphas = verify._grid(config, case)
    assert len(pts) == len(alphas) == size * len(config.alphas) * len(case.points)


def test_batches_split_the_potentials_evenly(monkeypatch):
    """A case's potentials share one rescaling or take one each: room for two of
    three gives three rescalings of one, so the original model keeps one grid."""
    case = _three_potentials()
    config = SuiteConfig(cases=(case,), alphas=verify.DEFAULT_ALPHAS)
    block = len(config.alphas) * len(case.points) * 2 ** 4 * 8
    assert verify._batch_size(config, case) == 3
    monkeypatch.setattr(verify, "POTENTIAL_BATCH_BYTES", 2 * block)
    assert verify._batch_size(config, case) == 1
    assert len(verify._rescalings(config, case, verify._grid(config, case)[1], {})) == 3


def test_potentials_that_do_not_all_fit_take_one_rescaling_each(monkeypatch):
    """Room for two of four potentials gives four rescalings of one, not two of
    two, and the suite reports what it reports with all four stacked."""
    case = dataclasses.replace(_three_potentials(), potentials=_three_potentials().potentials
                               + (GAUSS.scalar_field("0.05*mu^2"),))
    config = SuiteConfig(cases=(case,), alphas=verify.DEFAULT_ALPHAS)
    stacked = run_suite(config).reports
    block = len(config.alphas) * len(case.points) * 2 ** 4 * 8
    monkeypatch.setattr(verify, "POTENTIAL_BATCH_BYTES", 2 * block)
    assert verify._batch_size(config, case) == 1
    assert len(verify._rescalings(config, case, verify._grid(config, case)[1], {})) == 4
    assert run_suite(config).reports == stacked


def test_an_error_names_the_row_of_the_users_grid():
    config = default_suite_config()
    case = config.cases[0]  # 9 points
    with pytest.raises(SingularMetricError, match=r"^metric is singular at \(0\.0, 1\.0\) "
                                                  r"\(row 4\); alpha = 1$") as caught:
        with verify._user_rows(config, case):
            raise SingularMetricError("metric is singular at (0.0, 1.0) (row 85); alpha = 1",
                                      min_eigenvalue=-1.0)
    assert caught.value.min_eigenvalue == -1.0


def test_a_failing_potential_block_names_the_users_row():
    """eta overflows only under the second potential, at (0, 1) and alpha = -1:
    the batch's first row that is not finite is row 49 of the tiled grid, in
    the second potential's block of 45 rows, and row 4 of the case's grid."""
    case = _three_potentials()
    bump = GAUSS.scalar_field("1000*exp(-100*(mu^2 + (sigma - 1)^2))")
    config = SuiteConfig(cases=(dataclasses.replace(case, potentials=case.potentials[:1] + (bump,)),),
                         alphas=verify.DEFAULT_ALPHAS)
    with pytest.raises(EvaluationError, match=(
            r"^conformal factor of potential field '1000\*exp\(.*\)' "
            r"is not finite at \(0\.0, 1\.0\) \(row 4\)$")):
        run_check("conn_shift", config)


def test_a_failing_coupling_under_stacked_potentials_names_the_users_row():
    """Under the second potential, 400*mu at alpha = -1, eta^-3 = exp(-1200 mu)
    overflows at mu = -1: first at row 0 of the case's grid."""
    case = dataclasses.replace(default_suite_config().cases[0], potentials=(
        GAUSS.scalar_field("0.3*mu"), GAUSS.scalar_field("400*mu")))
    config = SuiteConfig(cases=(case,), alphas=(-1.0, 0.0, 1.0))
    with pytest.raises(EvaluationError, match=r"^eta\^-3 times field '2' is not finite at "
                                              r"\(-1\.0, 0\.6\) \(row 0\)$"):
        run_check("nonlinear_inv", config)


def test_full_default_suite_passes():
    """The slow one: the complete shipped matrix, all twelve reports."""
    result = run_suite(default_suite_config())
    assert result.passed
    by_id = {r.check_id: r for r in result.reports}
    assert by_id["curv_shift"].trace_residual <= 1e-9
    assert by_id["laplacian_inv"].decomp_residual <= 1e-8
    assert by_id["integrability"].flat_points > 0
    assert by_id["nonlinear_inv"].points_evaluated == 1120
