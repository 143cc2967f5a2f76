"""Residual checks: every transformation law becomes a named, gridded check.

Each check evaluates one identity over the full parameter matrix of a
:class:`SuiteConfig` (models x alphas x rescaling potentials x densities x
couplings x grid points) and reports the worst absolute and relative
residual.  The operators take a case's whole grid as one batch, and the
residuals are then recorded row by row in grid order.  Relative residuals
are normalized by max(1, |lhs|, |rhs|) so near-zero references cannot
inflate them; a non-finite side or difference counts as an infinite
residual, so it fails the check.

The three operator checks share one (r; s) invariance engine: an operator
applied to inputs of weight r, each rescaled to eta^r f, on the rescaled
model equals eta^s times the operator on the original.  ``hessian_inv``
runs it with s = 1, ``laplacian_inv`` with s = 0 (and reuses both sides
for its decomposition residual), and ``nonlinear_inv`` with s = 0 and the
coupling lam as a second input of weight -a.  :func:`check_type_invariance`
is the same engine for one operator, rescaling and density.

Three deliberately wrong configurations run as first-class suite members:
dropping the Ricci coupling, normalizing the skewness shift by 1/3, and
giving the trace operator a conformal output weight.  Each must fail by at
least a factor of 1000 over tolerance; a suite in which they pass is
reporting vacuously and is itself considered broken.
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .cup_transform import (
    WeightedDensity,
    connection_shift_prediction,
    curvature_shift_prediction,
    make_rescaling,
    rescaled_model,
    ricci_shift_prediction,
    transform_density,
)
from .errors import ConfigError
from .geometry import (
    HessianSpec,
    NonlinearCoupling,
    _ricci_coupling,
    alpha_connection,
    covariant_derivative_metric,
    cup_laplacian,
    cup_laplacian_decomposed,
    modified_hessian,
    nonlinear_cup_operator,
    ricci,
    ricci_reconstruction,
    riemann,
)
from .manifolds import gaussian_model, multinomial_model
from .tensor_core import as_coords

MODE_TOLERANCE = {"jet": 1e-7, "fd": 1e-4}
TRACE_TOLERANCE = 1e-9
DECOMPOSITION_TOLERANCE = 1e-8
CONTROL_FACTOR = 1e3

CHECK_IDS = (
    "metric_compat",
    "codazzi",
    "conn_shift",
    "curv_shift",
    "ricci_shift",
    "hessian_inv",
    "laplacian_inv",
    "nonlinear_inv",
    "integrability",
)


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    points_evaluated: int
    max_abs_residual: float
    max_rel_residual: float
    tolerance: float
    passed: bool
    worst_point: tuple
    negative_control: bool = False
    flat_points: int = 0
    trace_residual: float = None
    decomp_residual: float = None


@dataclass(frozen=True)
class ModelCase:
    """One model with its grid and the chart-specific test inputs."""

    model: object
    points: tuple
    potentials: tuple
    densities: tuple
    couplings: tuple


@dataclass(frozen=True)
class SuiteConfig:
    """The full evaluation matrix plus the injectable wrong-parameter knobs.

    ``hessian_k=None`` means the canonical 1/(n-1); ``sym_weight`` scales
    the skewness shift (1 is the defining law); ``laplacian_s`` is the
    output weight asserted for the trace operator (0 is the claim).
    """

    cases: tuple
    alphas: tuple
    tolerance: float = None
    tol_overrides: dict = field(default_factory=dict)
    hessian_k: float = None
    sym_weight: float = 1.0
    laplacian_s: float = 0.0

    def validate(self):
        if not self.cases:
            raise ConfigError("suite config has no model cases")
        if not self.alphas:
            raise ConfigError("suite config has an empty alpha list")
        for case in self.cases:
            if case.model.dim < 2:
                raise ConfigError(f"model case {case.model.name!r} is one-dimensional; "
                                  "the suite needs models of dimension 2 or more")
            if not case.points:
                raise ConfigError(f"model case {case.model.name!r} has no grid points")
            if not case.potentials:
                raise ConfigError(f"model case {case.model.name!r} has no rescaling potentials")
            if not case.densities:
                raise ConfigError(f"model case {case.model.name!r} has no densities")
            case.model.require_inside(case.points)
        tolerances = {"tolerance": self.tolerance,
                      **{f"tol_overrides[{c!r}]": t for c, t in self.tol_overrides.items()}}
        for name, value in tolerances.items():
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        for name in ("hessian_k", "sym_weight", "laplacian_s"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")


def _grid(case):
    return as_coords(case.points).reshape(-1, case.model.dim)


class _Residuals:
    def __init__(self):
        self.count = 0
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.worst = None

    def add(self, points, lhs, rhs):
        """Record one residual per row of a batch, in row order."""
        rows = len(points)
        if rows == 0:
            return
        with np.errstate(all="ignore"):
            lhs = np.asarray(lhs, dtype=float).reshape(rows, -1)
            rhs = np.asarray(rhs, dtype=float).reshape(rows, -1)
            gap = np.abs(lhs - rhs)
            finite = np.isfinite(gap).all(axis=1)
            diff = np.where(finite, gap.max(axis=1, initial=0.0), np.inf)
            scale = np.maximum(1.0, np.maximum(np.abs(lhs).max(axis=1, initial=0.0),
                                               np.abs(rhs).max(axis=1, initial=0.0)))
            rel = np.where(finite, diff / scale, np.inf)
        for point, d, r in zip(points, diff.tolist(), rel.tolist()):
            self.count += 1
            self.max_abs = max(self.max_abs, d)
            if r >= self.max_rel:
                self.max_rel = r
                self.worst = tuple(float(c) for c in point)

    def report(self, check_id, tolerance, passed=None, **extra):
        if passed is None:
            passed = self.max_rel <= tolerance
        return CheckReport(
            check_id=check_id,
            points_evaluated=self.count,
            max_abs_residual=self.max_abs,
            max_rel_residual=self.max_rel,
            tolerance=tolerance,
            passed=passed,
            worst_point=self.worst if self.worst is not None else (),
            **extra,
        )


def _tolerance_for(config, check_id):
    if check_id in config.tol_overrides:
        return float(config.tol_overrides[check_id])
    if config.tolerance is not None:
        return float(config.tolerance)
    return max(MODE_TOLERANCE[case.model.mode] for case in config.cases)


def _rescalings(config, case, alpha, variants):
    """The (rescaling, rescaled model) pairs of ``case`` at ``alpha``, one per potential.

    ``variants`` holds them for one run over ``config``'s cases, keyed by
    case, alpha and skewness-shift weight, so every check of the run reuses
    the same models and with them their memoized geometry.
    """
    key = (id(case), float(alpha), float(config.sym_weight))
    if key not in variants:
        pairs = []
        for potential in case.potentials:
            resc = make_rescaling(alpha, potential)
            pairs.append((resc, rescaled_model(case.model, resc, sym_weight=config.sym_weight)))
        variants[key] = tuple(pairs)
    return variants[key]


# -- structural checks on models --------------------------------------------


def _model_variants(config, case, alpha, variants):
    yield case.model
    for _, varied in _rescalings(config, case, alpha, variants):
        yield varied


def _check_metric_compat(config, tol, variants):
    res = _Residuals()
    for case in config.cases:
        pts = _grid(case)
        for alpha in config.alphas:
            for model in _model_variants(config, case, alpha, variants):
                nabla_g = covariant_derivative_metric(model, alpha, pts).components
                res.add(pts, nabla_g, alpha * model.skewness_at(pts).components)
    return res.report("metric_compat", tol)


def _check_codazzi(config, tol, variants):
    res = _Residuals()
    for case in config.cases:
        pts = _grid(case)
        for alpha in config.alphas:
            for model in _model_variants(config, case, alpha, variants):
                nabla_g = covariant_derivative_metric(model, alpha, pts).components
                res.add(pts, nabla_g, np.swapaxes(nabla_g, -3, -2))
    return res.report("codazzi", tol)


# -- shift predictions vs direct recomputation ------------------------------


def _rescaled_cells(config, variants):
    """Every (case, grid, alpha, rescaling, rescaled model) cell, in suite order."""
    for case in config.cases:
        pts = _grid(case)
        for alpha in config.alphas:
            for resc, varied in _rescalings(config, case, alpha, variants):
                yield case, pts, alpha, resc, varied


def _check_conn_shift(config, tol, variants):
    res = _Residuals()
    for case, pts, alpha, resc, varied in _rescaled_cells(config, variants):
        pred = connection_shift_prediction(resc, pts).components
        direct = (alpha_connection(varied, alpha, pts).components
                  - alpha_connection(case.model, alpha, pts).components)
        res.add(pts, pred, direct)
    return res.report("conn_shift", tol)


def _check_curv_shift(config, tol, variants):
    res = _Residuals()
    trace = _Residuals()
    for case, pts, alpha, resc, varied in _rescaled_cells(config, variants):
        pred = curvature_shift_prediction(case.model, resc, pts).components
        direct = (riemann(varied, alpha, pts).components
                  - riemann(case.model, alpha, pts).components)
        res.add(pts, pred, direct)
        trace.add(pts, np.einsum("...kjkl->...jl", pred),
                  ricci_shift_prediction(case.model, resc, pts).components)
    passed = res.max_rel <= tol and trace.max_rel <= TRACE_TOLERANCE
    return res.report("curv_shift", tol, passed=passed, trace_residual=trace.max_rel)


def _check_ricci_shift(config, tol, variants):
    res = _Residuals()
    for case, pts, alpha, resc, varied in _rescaled_cells(config, variants):
        pred = ricci_shift_prediction(case.model, resc, pts).components
        direct = (ricci(varied, alpha, pts).components
                  - ricci(case.model, alpha, pts).components)
        res.add(pts, pred, direct)
    return res.report("ricci_shift", tol)


# -- operator invariances ---------------------------------------------------


def _cells(config, variants):
    """Every rescaled cell once per density of its case, in suite order."""
    for cell in _rescaled_cells(config, variants):
        for density in cell[0].densities:
            yield cell + (density,)


def _components(value):
    return value.components if hasattr(value, "components") else value


def _invariance(res, operator, s, model, varied, resc, inputs, pts):
    """Record the (r; s) law on one grid and return both of its sides.

    The law: ``operator`` on the rescaled model, applied to the weighted
    ``inputs`` each rescaled to eta^r f, equals eta^s times ``operator`` on
    the original model applied to the inputs themselves.
    ``operator(model, *fields, pts)`` takes the whole grid as one batch and
    returns per-row scalars or a tensor.  Returns the two operator values,
    the rescaled side first, before any eta^s factor.
    """
    lhs = _components(operator(varied, *(transform_density(d, resc).f for d in inputs), pts))
    base = _components(operator(model, *(d.f for d in inputs), pts))
    rhs = base
    if s != 0.0:
        rhs = np.reshape(resc.eta(pts) ** s, (-1,) + (1,) * (np.ndim(base) - 1)) * base
    res.add(pts, lhs, rhs)
    return lhs, base


def _hessian_k(config, case):
    """The Ricci coupling of ``config``: its override, else 1/(n-1) on the case's model."""
    return _ricci_coupling(case.model.dim) if config.hessian_k is None else config.hessian_k


def _check_hessian_inv(config, tol, variants):
    res = _Residuals()
    for case, pts, alpha, resc, varied, density in _cells(config, variants):
        k = _hessian_k(config, case)
        op = lambda m, f, p: modified_hessian(m, alpha, HessianSpec(k), f, p)
        _invariance(res, op, 1.0, case.model, varied, resc, (density,), pts)
    return res.report("hessian_inv", tol)


def _check_laplacian_inv(config, tol, variants):
    res = _Residuals()
    decomp = _Residuals()
    for case, pts, alpha, resc, varied, density in _cells(config, variants):
        op = lambda m, f, p: cup_laplacian(m, alpha, f, p)
        lhs, base = _invariance(res, op, config.laplacian_s, case.model, varied, resc,
                                (density,), pts)
        scaled = transform_density(density, resc).f
        decomp.add(pts, lhs, cup_laplacian_decomposed(varied, alpha, scaled, pts))
        decomp.add(pts, base, cup_laplacian_decomposed(case.model, alpha, density.f, pts))
    passed = res.max_rel <= tol and decomp.max_rel <= DECOMPOSITION_TOLERANCE
    return res.report("laplacian_inv", tol, passed=passed, decomp_residual=decomp.max_rel)


def _check_nonlinear_inv(config, tol, variants):
    """The coupling lam enters as a second input, of weight -a."""
    res = _Residuals()
    for case, pts, alpha, resc, varied, density in _cells(config, variants):
        for c in case.couplings:
            op = lambda m, f, lam, p: nonlinear_cup_operator(
                m, alpha, f, NonlinearCoupling(lam, c.a), p)
            _invariance(res, op, 0.0, case.model, varied, resc,
                        (density, WeightedDensity(c.lam, -c.a)), pts)
    return res.report("nonlinear_inv", tol)


def _check_integrability(config, tol, variants):
    res = _Residuals()
    flat = 0
    for case in config.cases:
        pts = _grid(case)
        k = _hessian_k(config, case)
        for alpha in config.alphas:
            riem = riemann(case.model, alpha, pts).components
            curved = ~(np.abs(riem).max(axis=(-4, -3, -2, -1)) <= tol)
            flat += len(pts) - int(np.count_nonzero(curved))
            predicted = ricci_reconstruction(ricci(case.model, alpha, pts).components, k)
            res.add(pts[curved], riem[curved], predicted[curved])
    return res.report("integrability", tol, flat_points=flat)


_CHECK_FUNCTIONS = {
    "metric_compat": _check_metric_compat,
    "codazzi": _check_codazzi,
    "conn_shift": _check_conn_shift,
    "curv_shift": _check_curv_shift,
    "ricci_shift": _check_ricci_shift,
    "hessian_inv": _check_hessian_inv,
    "laplacian_inv": _check_laplacian_inv,
    "nonlinear_inv": _check_nonlinear_inv,
    "integrability": _check_integrability,
}


def check_type_invariance(operator, s, model, resc, density, points):
    """The (r; s) law for one operator, rescaling and density of weight r = ``density.r``.

    ``operator(model, f, p)`` is called once with the whole ``(P, n)`` batch
    of ``points`` and may return per-row scalars or a tensor.
    """
    pts = as_coords(points).reshape(-1, model.dim)
    res = _Residuals()
    _invariance(res, operator, s, model, rescaled_model(model, resc), resc, (density,), pts)
    return res.report("type_invariance", MODE_TOLERANCE[model.mode])


def run_check(check_id, config):
    """One named check over the full matrix of ``config``."""
    return _run_check(check_id, config, {})


def _run_check(check_id, config, variants):
    if check_id not in _CHECK_FUNCTIONS:
        raise ConfigError(f"unknown check id {check_id!r}; known: {', '.join(CHECK_IDS)}")
    config.validate()
    return _CHECK_FUNCTIONS[check_id](config, _tolerance_for(config, check_id), variants)


@dataclass(frozen=True)
class SuiteResult:
    reports: tuple
    passed: bool

    def summary(self, seed=None):
        checks = []
        for r in self.reports:
            checks.append({
                "check_id": r.check_id,
                "negative_control": r.negative_control,
                "points_evaluated": r.points_evaluated,
                "flat_points": r.flat_points,
                "max_abs_residual": r.max_abs_residual,
                "max_rel_residual": r.max_rel_residual,
                "tolerance": r.tolerance,
                "trace_residual": r.trace_residual,
                "decomp_residual": r.decomp_residual,
                "passed": r.passed,
                "worst_point": list(r.worst_point),
            })
        out = {"passed": self.passed}
        if seed is not None:
            out["seed"] = seed
        out["checks"] = checks
        return out


_NEGATIVE_CONTROLS = (
    ("hessian_inv[k=0]", "hessian_inv", {"hessian_k": 0.0}),
    ("conn_shift[sym=1/3]", "conn_shift", {"sym_weight": 1.0 / 3.0}),
    ("laplacian_inv[s=1]", "laplacian_inv", {"laplacian_s": 1.0}),
)


def control_failed_as_expected(report):
    """A negative control behaves iff its residual is >= 1000x tolerance."""
    return report.max_rel_residual >= CONTROL_FACTOR * report.tolerance


def run_suite(config):
    """All checks plus the three negative controls, aggregated.

    Overall pass requires every regular check to pass and every negative
    control to fail by the factor-1000 margin; per-check errors surface as
    ConfigError/geometry exceptions rather than being swallowed.
    """
    config.validate()
    variants = {}
    reports = [_run_check(check_id, config, variants) for check_id in CHECK_IDS]
    for label, base_id, overrides in _NEGATIVE_CONTROLS:
        varied = dataclasses.replace(config, **overrides)
        report = _run_check(base_id, varied, variants)
        reports.append(dataclasses.replace(report, check_id=label, negative_control=True))
    passed = all(r.passed for r in reports if not r.negative_control) and all(
        control_failed_as_expected(r) for r in reports if r.negative_control
    )
    return SuiteResult(reports=tuple(reports), passed=passed)


# -- default matrix ---------------------------------------------------------

DEFAULT_ALPHAS = (-1.0, -0.5, 0.0, 0.5, 1.0)


def default_suite_config(tolerance=None):
    """Gaussian and 3-category models on small interior grids, five alphas,
    two rescaling potentials, two densities, and four coupling exponents."""
    gauss = gaussian_model()
    gauss_case = ModelCase(
        model=gauss,
        points=tuple((mu, sigma) for mu in (-1.0, 0.0, 1.0) for sigma in (0.6, 1.0, 1.8)),
        potentials=(gauss.scalar_field("0.3*mu"), gauss.scalar_field("0.1*mu*sigma")),
        densities=(
            WeightedDensity(gauss.scalar_field("1"), 1.0),
            WeightedDensity(gauss.scalar_field("1 + 0.1*mu*sigma"), 1.0),
        ),
        couplings=(
            NonlinearCoupling(gauss.scalar_field("2"), 3.0),
            NonlinearCoupling(gauss.scalar_field("1 + 0.1*mu"), -2.0),
            NonlinearCoupling(gauss.scalar_field("2"), 0.5),
            NonlinearCoupling(gauss.scalar_field("1 + 0.1*mu"), 1.0),
        ),
    )
    multi = multinomial_model(3)
    multi_case = ModelCase(
        model=multi,
        points=((1 / 3, 1 / 3), (0.2, 0.3), (0.3, 0.2), (0.25, 0.4), (0.4, 0.25)),
        potentials=(multi.scalar_field("0.3*p1"), multi.scalar_field("0.2*p1*p2")),
        densities=(
            WeightedDensity(multi.scalar_field("1"), 1.0),
            WeightedDensity(multi.scalar_field("1 + 0.1*p1*p2"), 1.0),
        ),
        couplings=(
            NonlinearCoupling(multi.scalar_field("2"), 3.0),
            NonlinearCoupling(multi.scalar_field("1 + 0.1*p1"), -2.0),
            NonlinearCoupling(multi.scalar_field("2"), 0.5),
            NonlinearCoupling(multi.scalar_field("1 + 0.1*p1"), 1.0),
        ),
    )
    return SuiteConfig(
        cases=(gauss_case, multi_case),
        alphas=DEFAULT_ALPHAS,
        tolerance=tolerance,
        tol_overrides={} if tolerance is not None else {
            "curv_shift": 1e-6,
            "ricci_shift": 1e-6,
            "integrability": 1e-6,
        },
    )
