"""Residual checks: every transformation law becomes a named, gridded check.

Each check evaluates one identity over the full parameter matrix of a
:class:`SuiteConfig` (models x alphas x rescaling potentials x densities x
couplings x grid points) and reports the worst absolute and relative
residual.  The operators take a case's whole grid as one batch; a check
records its batches and reduces them once, in its report, which alone
judges it: the worst relative residual, and that of any side law, must be
within tolerance.  Relative residuals are normalized by max(1, |lhs|,
|rhs|) so near-zero references cannot inflate them; a non-finite side or
difference is an infinite residual and fails the check.

Two engines run the rescaling checks.  The shift engine compares the
closed-form prediction of what the rescaling adds to the connection, the
curvature (with the trace of its prediction as a side law) or the Ricci
tensor with the difference between the rescaled and the original model.
The (r; s) invariance engine runs the operator checks: an operator applied
to inputs of weight r, each rescaled to eta^r f, on the rescaled model
equals eta^s times the operator on the original.  ``hessian_inv`` has
s = 1, ``laplacian_inv`` s = 0 (and reuses both sides for its
decomposition side law), and ``nonlinear_inv`` s = 0 with the coupling lam
as a second input of weight -a.

Three deliberately wrong configurations run as first-class suite members:
dropping the Ricci coupling, normalizing the skewness shift by 1/3, and
giving the trace operator a conformal output weight.  Each must fail by at
least a factor of 1000 over tolerance; a suite in which they pass is
reporting vacuously and is itself considered broken.
"""

import dataclasses
import itertools
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
    transform_coupling,
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
    point_geometry,
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


@dataclass(frozen=True, kw_only=True)
class CheckReport:
    """One check's outcome; the fields are in the key order of its JSON entry."""

    check_id: str
    negative_control: bool = False
    points_evaluated: int
    flat_points: int = 0
    max_abs_residual: float
    max_rel_residual: float
    tolerance: float
    trace_residual: float = None
    decomp_residual: float = None
    passed: bool
    worst_point: tuple


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
    """The residuals of one check, one per row of each recorded batch, in suite order.

    ``add`` only records a batch; :meth:`report` reduces every batch at once,
    each run of consecutive batches of equal width concatenated.
    """

    def __init__(self):
        self._batches = []

    def add(self, points, lhs, rhs):
        """Record a batch: one row of ``lhs`` and ``rhs`` per point, in row order."""
        rows = len(points)
        if rows:
            self._batches.append((points, np.reshape(lhs, (rows, -1)), np.reshape(rhs, (rows, -1))))

    def report(self, check_id, tolerance, sides=(), **extra):
        """The check's report, judged here and only here.

        A row's residual is the largest gap between its two sides, and its
        relative residual that gap over max(1, |lhs|, |rhs|), both infinite
        for a non-finite gap; the worst point is the last row's reaching the
        largest.  ``sides`` holds (field, residuals, tolerance) side laws, each
        reported under its field; the check passes when it and every side do.
        """
        diffs, rels = [np.zeros(0)], [np.zeros(0)]
        width = lambda batch: (batch[1].shape[1], batch[2].shape[1])
        for _, run in itertools.groupby(self._batches, key=width):
            _, lhs, rhs = zip(*run)
            lhs = np.concatenate(lhs, dtype=float)
            rhs = np.concatenate(rhs, dtype=float)
            with np.errstate(all="ignore"):
                gap = np.abs(lhs - rhs)
                finite = np.isfinite(gap).all(axis=1)
                diff = np.where(finite, gap.max(axis=1, initial=0.0), np.inf)
                scale = np.maximum(1.0, np.maximum(np.abs(lhs).max(axis=1, initial=0.0),
                                                   np.abs(rhs).max(axis=1, initial=0.0)))
                rels.append(np.where(finite, diff / scale, np.inf))
            diffs.append(diff)
        diff, rel = np.concatenate(diffs), np.concatenate(rels)
        worst, count = (), len(rel)
        if count:
            row = count - 1 - int(np.argmax(rel[::-1]))  # the last row reaching the maximum
            start = count
            for points, _, _ in reversed(self._batches):
                start -= len(points)
                if start <= row:
                    worst = tuple(float(c) for c in points[row - start])
                    break
        max_rel = float(rel.max(initial=0.0))
        passed = max_rel <= tolerance
        for field_name, side, side_tolerance in sides:
            side_report = side.report(field_name, side_tolerance)
            extra[field_name] = side_report.max_rel_residual
            passed = passed and side_report.passed
        return CheckReport(
            check_id=check_id,
            points_evaluated=count,
            max_abs_residual=float(diff.max(initial=0.0)),
            max_rel_residual=max_rel,
            tolerance=tolerance,
            passed=passed,
            worst_point=worst,
            **extra,
        )


def _tolerance_for(config, check_id):
    if check_id in config.tol_overrides:
        return float(config.tol_overrides[check_id])
    if config.tolerance is not None:
        return float(config.tolerance)
    return max(MODE_TOLERANCE[case.model.mode] for case in config.cases)


def _rescalings(config, case, alpha, variants):
    """The (rescaling, rescaled model, inputs) triples of ``case`` at ``alpha``, one
    per potential; ``inputs`` maps each case density and coupling to its transform.

    ``variants`` holds them for one run over ``config``'s cases, so every
    check of the run reuses the same models and fields, and with them their
    memoized geometry and jets.  The rescalings and inputs are keyed by case
    and alpha; only a rescaled model also depends on the skewness-shift
    weight.
    """
    key = (id(case), float(alpha))
    if key not in variants:
        pairs = []
        for potential in case.potentials:
            resc = make_rescaling(alpha, potential)
            inputs = {d: transform_density(d, resc).f for d in case.densities}
            inputs.update((c, transform_coupling(c, resc).lam) for c in case.couplings)
            pairs.append((resc, inputs))
        variants[key] = tuple(pairs)
    weighted = key + (float(config.sym_weight),)
    if weighted not in variants:
        variants[weighted] = tuple(
            (resc, rescaled_model(case.model, resc, sym_weight=config.sym_weight), inputs)
            for resc, inputs in variants[key])
    return variants[weighted]


# -- structural checks on models --------------------------------------------


def _model_variants(config, case, alpha, variants):
    yield case.model
    for _, varied, _ in _rescalings(config, case, alpha, variants):
        yield varied


def _check_metric_compat(config, tol, variants):
    res = _Residuals()
    for case in config.cases:
        pts = _grid(case)
        for alpha in config.alphas:
            for model in _model_variants(config, case, alpha, variants):
                nabla_g = covariant_derivative_metric(model, alpha, pts).components
                res.add(pts, nabla_g, alpha * point_geometry(model, alpha, pts).t)
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
    """Every (case, grid, alpha, rescaling, rescaled model, inputs) cell, in suite order."""
    for case in config.cases:
        pts = _grid(case)
        for alpha in config.alphas:
            for resc, varied, inputs in _rescalings(config, case, alpha, variants):
                yield case, pts, alpha, resc, varied, inputs


def _shift_law(config, tol, variants, check_id, quantity, prediction, side=None):
    """Report ``check_id``: on every rescaled cell, ``prediction(model, resc, pts)``
    against ``quantity`` on the rescaled model minus ``quantity`` on the model.
    ``side``, if given, is a (field, tolerance, law) side law: ``law(model, resc,
    pts, pred)`` gives the two sides of a second residual."""
    res, side_res = _Residuals(), _Residuals()
    for case, pts, alpha, resc, varied, _ in _rescaled_cells(config, variants):
        pred = prediction(case.model, resc, pts).components
        res.add(pts, pred, (quantity(varied, alpha, pts).components
                            - quantity(case.model, alpha, pts).components))
        if side:
            side_res.add(pts, *side[2](case.model, resc, pts, pred))
    return res.report(check_id, tol, [(side[0], side_res, side[1])] if side else ())


def _check_conn_shift(config, tol, variants):
    return _shift_law(config, tol, variants, "conn_shift", alpha_connection,
                      lambda model, resc, pts: connection_shift_prediction(resc, pts))


def _check_curv_shift(config, tol, variants):
    trace = lambda model, resc, pts, pred: (np.einsum("...kjkl->...jl", pred),
                                            ricci_shift_prediction(model, resc, pts).components)
    return _shift_law(config, tol, variants, "curv_shift", riemann, curvature_shift_prediction,
                      ("trace_residual", TRACE_TOLERANCE, trace))


def _check_ricci_shift(config, tol, variants):
    return _shift_law(config, tol, variants, "ricci_shift", ricci, ricci_shift_prediction)


# -- operator invariances ---------------------------------------------------


def _cells(config, variants):
    """Every rescaled cell once per case density, with its (f, eta^r f) pair, in suite order."""
    for cell in _rescaled_cells(config, variants):
        for density in cell[0].densities:
            yield cell + ((density.f, cell[-1][density]),)


def _components(value):
    return value.components if hasattr(value, "components") else value


def _invariance(res, operator, s, model, varied, resc, inputs, pts):
    """Record the (r; s) law on one grid and return both of its sides.

    The law: ``operator`` on the rescaled model, applied to the weighted
    inputs each rescaled to eta^r f, equals eta^s times ``operator`` on the
    original model applied to the inputs themselves; ``inputs`` holds the
    (f, eta^r f) pairs.  ``operator(model, *fields, pts)`` takes the whole
    grid as one batch and returns per-row scalars or a tensor.  Returns the
    two operator values, the rescaled side first, before any eta^s factor.
    """
    lhs = _components(operator(varied, *(scaled for _, scaled in inputs), pts))
    base = _components(operator(model, *(f for f, _ in inputs), pts))
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
    for case, pts, alpha, resc, varied, _, density in _cells(config, variants):
        k = _hessian_k(config, case)
        op = lambda m, f, p: modified_hessian(m, alpha, HessianSpec(k), f, p)
        _invariance(res, op, 1.0, case.model, varied, resc, (density,), pts)
    return res.report("hessian_inv", tol)


def _check_laplacian_inv(config, tol, variants):
    res, decomp = _Residuals(), _Residuals()
    for case, pts, alpha, resc, varied, _, (plain, scaled) in _cells(config, variants):
        op = lambda m, f, p: cup_laplacian(m, alpha, f, p)
        lhs, base = _invariance(res, op, config.laplacian_s, case.model, varied, resc,
                                ((plain, scaled),), pts)
        decomp.add(pts, lhs, cup_laplacian_decomposed(varied, alpha, scaled, pts))
        decomp.add(pts, base, cup_laplacian_decomposed(case.model, alpha, plain, pts))
    return res.report("laplacian_inv", tol, [("decomp_residual", decomp, DECOMPOSITION_TOLERANCE)])


def _check_nonlinear_inv(config, tol, variants):
    """The coupling lam enters as a second input, of weight -a."""
    res = _Residuals()
    for case, pts, alpha, resc, varied, inputs, density in _cells(config, variants):
        for c in case.couplings:
            op = lambda m, f, lam, p: nonlinear_cup_operator(
                m, alpha, f, NonlinearCoupling(lam, c.a), p)
            _invariance(res, op, 0.0, case.model, varied, resc, (density, (c.lam, inputs[c])), pts)
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

CHECK_IDS = tuple(_CHECK_FUNCTIONS)


def run_check(check_id, config):
    """One named check over the full matrix of ``config``."""
    if check_id not in _CHECK_FUNCTIONS:
        raise ConfigError(f"unknown check id {check_id!r}; known: {', '.join(CHECK_IDS)}")
    config.validate()
    return _run_check(check_id, config, {})


def _run_check(check_id, config, variants):
    return _CHECK_FUNCTIONS[check_id](config, _tolerance_for(config, check_id), variants)


@dataclass(frozen=True)
class SuiteResult:
    reports: tuple
    passed: bool

    def summary(self, seed=None):
        checks = [{**dataclasses.asdict(r), "worst_point": list(r.worst_point)}
                  for r in self.reports]
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


def standard_couplings(model):
    """The four couplings every shipped case checks: lam = 2 or 1 + 0.1 times
    the first coordinate, at exponents 3, -2, 0.5 and 1."""
    linear = f"1 + 0.1*{model.coord_names[0]}"
    return tuple(NonlinearCoupling(model.scalar_field(lam), a)
                 for lam, a in (("2", 3.0), (linear, -2.0), ("2", 0.5), (linear, 1.0)))


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
        couplings=standard_couplings(gauss),
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
        couplings=standard_couplings(multi),
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
