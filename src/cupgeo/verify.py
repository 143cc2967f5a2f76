"""Residual checks: every transformation law becomes a named, gridded check.

Each check evaluates one identity over the full parameter matrix of a
:class:`SuiteConfig` (models x alphas x rescaling potentials x densities x
couplings x grid points) and reports the worst absolute and relative
residual.  Alpha and the potential are batch axes: each case's grid is
tiled under every suite alpha, alpha by alpha, and that under each of its
potentials, into one batch of potential x alpha x point rows, and one
rescaling per case carries every row: its potential is a rule field stacking
the case's potentials, whose block i is potential i.  So each operator on a
rescaled model runs once per (case, density, coupling) on the whole tiled
grid, and each on the original model once per (case, density, coupling) as
well, since it does not depend on the potential.  Only where a batch's n^4
arrays would outgrow :data:`POTENTIAL_BATCH_BYTES` do a case's potentials
split into equal batches, one rescaling each (from dimension 11 up on the
5-point grid of ``cupgeo verify --model multinomial:k``).  The structural rows and
``integrability`` record the original model on its first potential block
alone, so a check's rows are those of a grid tiled under alpha only.

One driver, :func:`_law`, runs every check but ``integrability``: the check
yields the (lhs, rhs) cells of each case, its own and those of any side
law, one row per tiled grid row, and the driver records each cell as it
comes, reduced at once to its rows' residuals.  The report alone judges
the check: the worst relative residual, and that of any side law, must be
within tolerance.  Every check has the suite's one tolerance: the config's
``tolerance`` when set, else the loosest :data:`MODE_TOLERANCE` of its
models (1e-7 for exact jets, 1e-4 for finite differences); the side laws
keep :data:`TRACE_TOLERANCE` and :data:`DECOMPOSITION_TOLERANCE`.  The
worst point is the last row, in recording order, reaching that worst
residual, so a tie goes to the last row.  Relative residuals are
normalized by max(1, |lhs|, |rhs|) so near-zero references cannot inflate
them; a non-finite side or difference is an infinite residual and fails
the check.  An error raised inside a check names the row of the case's grid
as the user wrote it, not the row of the tiled batch.

Two engines run the rescaling checks.  The shift engine compares the
closed-form prediction of what the rescaling adds to the connection, the
curvature (with the trace of its prediction as a side law) or the Ricci
tensor with the difference between the rescaled and the original model.
The (r; s) invariance engine runs the operator checks: an operator applied
to input objects of weight r (the case's densities and couplings), each
transformed once per rescaling to carry eta^r f, on the rescaled model
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

import contextlib
import dataclasses
import re
from dataclasses import dataclass

import numpy as np

from .cup_transform import (
    WeightedDensity,
    _RuleField,
    connection_shift_prediction,
    curvature_shift_prediction,
    make_rescaling,
    rescaled_model,
    ricci_shift_prediction,
    transform_coupling,
    transform_density,
)
from . import jets
from .errors import ConfigError, CupGeoError
from .jets import _bc
from .geometry import (
    HessianSpec,
    NonlinearCoupling,
    _require_chart,
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
from .tensor_core import as_coords, require_real

MODE_TOLERANCE = {"jet": 1e-7, "fd": 1e-4}
TRACE_TOLERANCE = 1e-9
DECOMPOSITION_TOLERANCE = 1e-8
CONTROL_FACTOR = 1e3
# A rescaling carries as many of a case's potentials as keep one float64 n^4
# array over its rows (d2g, dgamma, riemann, ...; a check holds a few dozen
# at once) within this many bytes.  On the 25 rows per potential of
# ``verify --model multinomial:k`` that is both potentials up to dimension
# 10, and one per rescaling from dimension 11.
POTENTIAL_BATCH_BYTES = 4 << 20


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

    ``tolerance`` holds every check, side laws aside, to one bound;
    ``None`` means the loosest :data:`MODE_TOLERANCE` of the cases' models.
    ``hessian_k=None`` means the canonical 1/(n-1); ``sym_weight`` scales
    the skewness shift (1 is the defining law); ``laplacian_s`` is the
    output weight asserted for the trace operator (0 is the claim).
    """

    cases: tuple
    alphas: tuple
    tolerance: float = None
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
        for alpha in self.alphas:
            require_real(alpha, "alpha")
        if self.tolerance is not None and not require_real(self.tolerance, "tolerance") > 0.0:
            raise ConfigError(f"tolerance must be finite and positive, got {self.tolerance}")
        for name in ("hessian_k", "sym_weight", "laplacian_s"):
            if getattr(self, name) is not None:
                require_real(getattr(self, name), name)


def _block(config, case):
    """The rows of one potential block of the case's tiled grid: one per (alpha, point)."""
    return len(config.alphas) * len(case.points)


def _batch_size(config, case):
    """How many of the case's potentials one rescaling carries: the most that
    divides their number and keeps a batch's n^4 array within
    :data:`POTENTIAL_BATCH_BYTES`, and one at least."""
    count = len(case.potentials)
    block_bytes = _block(config, case) * case.model.dim ** 4 * 8
    return max(size for size in range(1, count + 1)
               if count % size == 0 and (size == 1 or size * block_bytes <= POTENTIAL_BATCH_BYTES))


def _grid(config, case):
    """The case's grid tiled under every alpha of ``config``, alpha by alpha, and
    that under each potential of a batch: the ``(B * A * P, n)`` points and the
    alpha of each row.  Its first ``A * P`` rows are the first potential block."""
    pts = as_coords(case.points).reshape(-1, case.model.dim)
    alphas = np.array(config.alphas, dtype=float)
    size = _batch_size(config, case)
    return np.tile(pts, (size * len(alphas), 1)), np.tile(np.repeat(alphas, len(pts)), size)


@contextlib.contextmanager
def _user_rows(config, case):
    """Rename the batch row of an error raised inside: row r of a tiled grid is
    row r mod P of the case's own grid of P points, and stacked potentials
    (see :func:`_stacked`) are named by their member of block r // (A * P)."""
    try:
        yield
    except CupGeoError as e:
        text = str(e)
        row = re.search(r"\(row (\d+)\)", text)
        if row:
            labels = [f.label for f in case.potentials]
            size, member = _batch_size(config, case), int(row[1]) // _block(config, case)
            for i in range(0, len(labels), size):
                text = text.replace(" and ".join(labels[i:i + size]), labels[i + member])
        rename = lambda m: f"(row {int(m[1]) % len(case.points)})"
        e.args = (re.sub(r"\(row (\d+)\)", rename, text), *e.args[1:])
        raise


def _stacked(potentials):
    """The potential of a rescaling that carries several: a rule field whose jet
    on a batch of equal row blocks is, on block i, member i's jet."""
    def rule(coords, order):
        parts = [f.jet(block, order)
                 for f, block in zip(potentials, np.split(coords, len(potentials)))]
        return jets.Jet(potentials[0].dim, order,
                        *(np.concatenate([p.deriv(k) for p in parts]) for k in range(order + 1)))
    return _RuleField(" and ".join(f.label for f in potentials), 0, rule, *potentials)


class _Residuals:
    """The residuals of one check, one per recorded row, in recording order:
    ``add`` reduces each batch at once, and :meth:`report` concatenates the rows."""

    def __init__(self):
        self._batches = []

    def add(self, points, lhs, rhs):
        """Record a batch, one row of ``lhs`` and ``rhs`` per point.

        A row's residual is the largest gap between its two sides, and its
        relative residual that gap over max(1, |lhs|, |rhs|), both infinite
        for a non-finite gap.
        """
        rows = len(points)
        if not rows:
            return
        lhs = np.reshape(np.asarray(lhs, dtype=float), (rows, -1))
        rhs = np.reshape(np.asarray(rhs, dtype=float), (rows, -1))
        with np.errstate(all="ignore"):
            diff = np.abs(lhs - rhs).max(axis=1, initial=0.0)  # not finite if any gap is not
            finite = np.isfinite(diff)
            scale = np.maximum(np.abs(lhs), np.abs(rhs)).max(axis=1, initial=1.0)
            rel = np.where(finite, diff / scale, np.inf)
        self._batches.append((points, np.where(finite, diff, np.inf), rel))

    def report(self, check_id, tolerance, sides=(), **extra):
        """The check's report, judged here and only here.

        The worst point is the last row, in recording order, reaching the
        largest relative residual.  ``sides`` holds (field, residuals,
        tolerance) side laws, each reported under its field; the check
        passes when it and every side do.
        """
        diff = np.concatenate([np.zeros(0)] + [d for _, d, _ in self._batches])
        rel = np.concatenate([np.zeros(0)] + [r for _, _, r in self._batches])
        max_rel = float(rel.max(initial=0.0))
        # the last row reaching the maximum, in the last batch reaching it
        worst = next((tuple(float(c) for c in points[len(r) - 1 - int(np.argmax(r[::-1]))])
                      for points, _, r in reversed(self._batches) if r.max() == max_rel), ())
        passed = max_rel <= tolerance
        for field_name, side, side_tolerance in sides:
            side_report = side.report(field_name, side_tolerance)
            extra[field_name] = side_report.max_rel_residual
            passed = passed and side_report.passed
        return CheckReport(
            check_id=check_id,
            points_evaluated=len(rel),
            max_abs_residual=float(diff.max(initial=0.0)),
            max_rel_residual=max_rel,
            tolerance=tolerance,
            passed=passed,
            worst_point=worst,
            **extra,
        )


def _tolerance_for(config):
    if config.tolerance is not None:
        return float(config.tolerance)
    return max(MODE_TOLERANCE[case.model.mode] for case in config.cases)


def _rescalings(config, case, alphas, variants):
    """The (rescaling, rescaled model, inputs) triples of ``case``, one per batch
    of its potentials (all of them, unless :func:`_batch_size` splits them),
    each driven by the batch's potentials stacked into one rule field (see
    :func:`_stacked`) and carrying the case's tiled grid at its per-row
    ``alphas``; ``inputs`` maps each case density and coupling to its
    transformed :class:`WeightedDensity` or :class:`NonlinearCoupling`.

    ``variants`` holds them for one run over ``config``'s cases, so every
    check of the run reuses the same models and fields, and with them their
    memoized geometry and jets.  The rescalings and inputs are keyed by case;
    only a rescaled model also depends on the skewness-shift weight.
    """
    key = id(case)
    if key not in variants:
        for potential in case.potentials:
            _require_chart(potential, case.model, "rescaling potential")
        size = _batch_size(config, case)
        pairs = []
        for i in range(0, len(case.potentials), size):
            resc = make_rescaling(alphas, _stacked(case.potentials[i:i + size]))
            inputs = {d: transform_density(d, resc) for d in case.densities}
            inputs.update((c, transform_coupling(c, resc)) for c in case.couplings)
            pairs.append((resc, inputs))
        variants[key] = tuple(pairs)
    weighted = (key, float(config.sym_weight))
    if weighted not in variants:
        variants[weighted] = tuple(
            (resc, rescaled_model(case.model, resc, sym_weight=config.sym_weight), inputs)
            for resc, inputs in variants[key])
    return variants[weighted]


def _law(config, variants, check_id, tol, cells, sides=()):
    """Report ``check_id`` on the cells of every case of ``config``, each recorded as it comes.

    ``cells(case, pts, alphas, rescalings)`` yields the (field, lhs, rhs)
    cells of one case on its tiled grid ``pts``, each side one row per grid
    row, or per row of a leading block of the grid; ``field`` is None for
    the check's own cells and otherwise names a side law, one of the (field,
    tolerance) pairs of ``sides``.  ``rescalings`` holds the case's
    (rescaling, rescaled model, inputs) triples of :func:`_rescalings`, each
    rescaling driven by a stacked rule field and ``inputs`` mapping each case
    density and coupling to its transformed object.  The original model has
    the one grid ``pts`` in every check; each rescaled model has it too.
    """
    res = {field_name: _Residuals() for field_name, _ in ((None, tol), *sides)}
    for case in config.cases:
        pts, alphas = _grid(config, case)
        with _user_rows(config, case):
            for field_name, lhs, rhs in cells(case, pts, alphas,
                                              _rescalings(config, case, alphas, variants)):
                res[field_name].add(pts[:len(lhs)], lhs, rhs)
    return res[None].report(check_id, tol, [(f, res[f], t) for f, t in sides])


# -- structural checks on models --------------------------------------------


def _structural(config, law):
    """The cells of ``law(model, alphas, pts)`` on a case model, in its first
    potential block, and on each of its rescaled variants."""
    def cells(case, pts, alphas, rescalings):
        block = _block(config, case)
        yield None, *(side[:block] for side in law(case.model, alphas, pts))
        for _, varied, _ in rescalings:
            yield None, *law(varied, alphas, pts)
    return cells


def _check_metric_compat(config, tol, variants):
    def law(model, alphas, pts):
        nabla_g = covariant_derivative_metric(model, alphas, pts).components
        return nabla_g, _bc(alphas, 3) * point_geometry(model, alphas, pts).t
    return _law(config, variants, "metric_compat", tol, _structural(config, law))


def _check_codazzi(config, tol, variants):
    def law(model, alphas, pts):
        nabla_g = covariant_derivative_metric(model, alphas, pts).components
        return nabla_g, np.swapaxes(nabla_g, -3, -2)
    return _law(config, variants, "codazzi", tol, _structural(config, law))


# -- shift predictions vs direct recomputation ------------------------------


def _shift_law(config, tol, variants, check_id, quantity, prediction, side=None):
    """Report ``check_id``: on every rescaled cell, ``prediction(model, resc, pts)``
    against ``quantity`` on the rescaled model minus ``quantity`` on the model.
    ``side``, if given, is a (field, tolerance, law) side law: ``law(model, resc,
    pts, pred)`` gives the two sides of a second residual."""
    def cells(case, pts, alphas, rescalings):
        base = quantity(case.model, alphas, pts).components
        for resc, varied, _ in rescalings:
            pred = prediction(case.model, resc, pts).components
            yield None, pred, quantity(varied, alphas, pts).components - base
            if side:
                yield side[0], *side[2](case.model, resc, pts, pred)
    return _law(config, variants, check_id, tol, cells, [side[:2]] if side else ())


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


def _invariance(operator, s, model, rescalings, pts, *inputs):
    """The (r; s) law on one grid: the original side's value, and the law's
    cells on each rescaled batch.

    The law: ``operator`` on the rescaled model, applied to the weighted
    inputs each rescaled to eta^r f, equals eta^s times ``operator`` on the
    original model applied to the inputs themselves.  ``inputs`` holds the
    case densities and couplings the operator takes, and each batch maps one
    to its transformed object, whose field is eta^r f.  ``operator(model,
    *inputs, pts)`` takes the whole grid as one batch and returns per-row
    scalars or tensor components.  The original side, before any eta^s
    factor, does not depend on the potential and is computed once; each cell
    is (rescaled model, its inputs, lhs, rhs).
    """
    base = operator(model, *inputs, pts)
    cells = []
    for resc, varied, transformed in rescalings:
        scaled = [transformed[i] for i in inputs]
        rhs = base
        if s != 0.0:
            rhs = np.reshape(resc.eta(pts) ** s, (-1,) + (1,) * (np.ndim(base) - 1)) * base
        cells.append((varied, scaled, operator(varied, *scaled, pts), rhs))
    return base, cells


def _hessian_k(config, case):
    """The Ricci coupling of ``config``: its override, else 1/(n-1) on the case's model."""
    return _ricci_coupling(case.model.dim) if config.hessian_k is None else config.hessian_k


def _check_hessian_inv(config, tol, variants):
    def cells(case, pts, alphas, rescalings):
        spec = HessianSpec(_hessian_k(config, case))
        op = lambda m, d, p: modified_hessian(m, alphas, spec, d.f, p).components
        for density in case.densities:
            _, batches = _invariance(op, 1.0, case.model, rescalings, pts, density)
            for _, _, lhs, rhs in batches:
                yield None, lhs, rhs
    return _law(config, variants, "hessian_inv", tol, cells)


def _check_laplacian_inv(config, tol, variants):
    def cells(case, pts, alphas, rescalings):
        op = lambda m, d, p: cup_laplacian(m, alphas, d.f, p)
        for density in case.densities:
            base, batches = _invariance(op, config.laplacian_s, case.model, rescalings, pts,
                                        density)
            for varied, (scaled,), lhs, rhs in batches:
                yield None, lhs, rhs
                yield "decomp_residual", lhs, cup_laplacian_decomposed(varied, alphas, scaled.f,
                                                                       pts)
            yield "decomp_residual", base, cup_laplacian_decomposed(case.model, alphas, density.f,
                                                                    pts)
    return _law(config, variants, "laplacian_inv", tol, cells,
                [("decomp_residual", DECOMPOSITION_TOLERANCE)])


def _check_nonlinear_inv(config, tol, variants):
    """The coupling lam enters as a second input, of weight -a."""
    def cells(case, pts, alphas, rescalings):
        op = lambda m, d, c, p: nonlinear_cup_operator(m, alphas, d.f, c, p)
        for density in case.densities:
            for c in case.couplings:
                _, batches = _invariance(op, 0.0, case.model, rescalings, pts, density, c)
                for _, _, lhs, rhs in batches:
                    yield None, lhs, rhs
    return _law(config, variants, "nonlinear_inv", tol, cells)


def _check_integrability(config, tol, variants):
    """Recorded on the first potential block of each case's grid."""
    res = _Residuals()
    flat = 0
    for case in config.cases:
        pts, alphas = _grid(config, case)
        block = _block(config, case)
        with _user_rows(config, case):
            k = _hessian_k(config, case)
            riem = riemann(case.model, alphas, pts).components[:block]
            curved = ~(np.abs(riem).max(axis=(-4, -3, -2, -1)) <= tol)
            flat += block - int(np.count_nonzero(curved))
            predicted = ricci_reconstruction(ricci(case.model, alphas, pts).components[:block], k)
        res.add(pts[:block][curved], riem[curved], predicted[curved])
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
    return _CHECK_FUNCTIONS[check_id](config, _tolerance_for(config), variants)


@dataclass(frozen=True)
class SuiteResult:
    """Reports; ``passed`` when each regular one passes and each negative control
    misses by :data:`CONTROL_FACTOR`."""

    reports: tuple

    @property
    def passed(self):
        return all(control_failed_as_expected(r) if r.negative_control else r.passed
                   for r in self.reports)

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
    return SuiteResult(reports=tuple(reports))


# -- default matrix ---------------------------------------------------------

DEFAULT_ALPHAS = (-1.0, -0.5, 0.0, 0.5, 1.0)


def _case(model, points, potentials, densities):
    """The case of ``model`` on ``points`` with the rescaling potentials and the
    r = 1 densities of the given expressions, and four couplings: lam = 2 or
    1 + 0.1 times the first coordinate, at exponents 3, -2, 0.5 and 1."""
    field = model.scalar_field
    linear = f"1 + 0.1*{model.coord_names[0]}"
    return ModelCase(
        model=model,
        points=tuple(points),
        potentials=tuple(map(field, potentials)),
        densities=tuple(WeightedDensity(field(s), 1.0) for s in densities),
        couplings=tuple(NonlinearCoupling(field(lam), a)
                        for lam, a in (("2", 3.0), (linear, -2.0), ("2", 0.5), (linear, 1.0))),
    )


def default_suite_config():
    """Gaussian and 3-category models on small interior grids, five alphas,
    two rescaling potentials, two densities, and four coupling exponents,
    every check held to the exact-jet tolerance 1e-7."""
    gauss = _case(gaussian_model(),
                  [(mu, sigma) for mu in (-1.0, 0.0, 1.0) for sigma in (0.6, 1.0, 1.8)],
                  ("0.3*mu", "0.1*mu*sigma"), ("1", "1 + 0.1*mu*sigma"))
    multi = _case(multinomial_model(3),
                  [(1 / 3, 1 / 3), (0.2, 0.3), (0.3, 0.2), (0.25, 0.4), (0.4, 0.25)],
                  ("0.3*p1", "0.2*p1*p2"), ("1", "1 + 0.1*p1*p2"))
    return SuiteConfig(cases=(gauss, multi), alphas=DEFAULT_ALPHAS)
