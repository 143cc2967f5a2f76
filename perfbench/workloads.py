"""The benchmark's workloads: seeded inputs, operations, correctness gates.

Every workload is a closed loop with one caller: an operation starts only
after the previous one returned.  Operations come in groups of fixed
composition (a suite pass, a block of queries, a Gaussian-plus-multinomial
estimate round), so a run's mix of work does not depend on the seed or on
how many groups fit in the measuring window.  Only the operation itself is
timed; its correctness gate and any reference computation run afterwards.

Each workload names the host-speed probe of ``calibration.py`` that runs
between its groups (``speed_probe``: kind, reps, and the interval at which
it also interrupts a group, or None) and how many untimed groups warm it
up first.

A gate returns a list of problems; an operation with any problem, or one that
raised where it should not have, is a failed operation.
"""

import contextlib
import hashlib
import io
import json
import math
import time
from collections import namedtuple

import numpy as np

import cupgeo
import cupgeo.cli

# Operations are timed with this clock; a run that samples host speed in the
# middle of an operation swaps in one that leaves the sampling out.
clock = time.perf_counter

# -- suite-default ----------------------------------------------------------

SUITE_ARGV = ["verify", "--default", "--json", "--seed", "42"]

# Identity evaluations per check of ``verify --default`` (3262 in total).
SUITE_EVALS = {
    "metric_compat": 210,
    "codazzi": 210,
    "conn_shift": 140,
    "curv_shift": 140,
    "ricci_shift": 140,
    "hessian_inv": 280,
    "laplacian_inv": 280,
    "nonlinear_inv": 1120,
    "integrability": 42,
    "hessian_inv[k=0]": 280,
    "conn_shift[sym=1/3]": 140,
    "laplacian_inv[s=1]": 280,
}
RESIDUAL_FLOOR = 1e-13
CONTROL_MARGIN = 1e3


def run_cli(argv):
    """``cupgeo.cli.main`` in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cupgeo.cli.main(argv)
    return code, buf.getvalue()


RESIDUAL_KEYS = ("max_abs_residual", "max_rel_residual", "trace_residual", "decomp_residual")


def check_problems(row, control):
    """A negative control must miss by the margin; a check must pass at the floor."""
    cid = row["check_id"]
    if control:
        if row["max_rel_residual"] >= CONTROL_MARGIN * row["tolerance"]:
            return []
        return [f"{cid}: control margin below {CONTROL_MARGIN:g}x"]
    problems = [] if row["passed"] is True else [f"{cid}: failed"]
    for key in RESIDUAL_KEYS:
        if row[key] is not None and not row[key] <= RESIDUAL_FLOOR:
            problems.append(f"{cid}: {key} {row[key]!r} above {RESIDUAL_FLOOR:g}")
    return problems


def suite_gate(code, text):
    """Suite passes, residual floors and control margins hold, counts match."""
    if code != 0:
        return [f"verify exited {code}"]
    try:
        data = json.loads(text)
        checks = data["checks"]
        problems = [] if data["passed"] is True else ["suite did not pass"]
        ids = [c["check_id"] for c in checks]
        if ids != list(SUITE_EVALS):
            problems.append(f"check ids {ids}")
        for c in checks:
            if c["points_evaluated"] != SUITE_EVALS.get(c["check_id"]):
                problems.append(f"{c['check_id']}: {c['points_evaluated']} evals")
            problems += check_problems(c, c["negative_control"])
    except (ValueError, KeyError, TypeError) as e:
        return [f"unreadable verify output: {e!r}"]
    return problems


class SuiteDefault:
    """``cupgeo verify --default --json`` through ``cupgeo.cli.main``.

    The verification grid is fixed; the seed selects nothing here.
    """

    name = "suite-default"
    groups_per_chunk = 1
    min_groups = 3
    warmup_groups = 0
    speed_probe = ("interp", 10, 0.1)
    traced_groups = 1
    verify_evals = sum(SUITE_EVALS.values())
    aliases = {"suite_s.p50": ("op_ms.p50", 1e-3, "s"), "evals_per_s": ("work_per_s", 1.0, "1/s")}
    seed_note = "the default verification grid is deterministic; the seed changes nothing"

    def __init__(self, seed):
        # The models and matrix every pass is built from; built here so that
        # set-up time covers them.
        self.config = cupgeo.default_suite_config()
        self.digest = None

    def next_group(self):
        return [SUITE_ARGV]

    def run(self, argv):
        t0 = clock()
        try:
            code, text = run_cli(argv)
        except Exception as e:  # a crash is a failed operation, not a crashed benchmark
            return clock() - t0, [f"verify raised {e!r}"], 0
        dt = clock() - t0
        self.digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return dt, suite_gate(code, text), self.verify_evals


# -- pointwise --------------------------------------------------------------

# One block of queries; its composition is fixed, only its order and the
# drawn values depend on the seed.  Four of the 40 are invalid inputs.
# The shares put the median inside the multinomial:3 queries and the 99th
# percentile inside the rescaled multinomial:4 ones, not on a boundary
# between two kinds of query, where it would jump from run to run.
BLOCK = (("gaussian",) * 12 + ("multinomial:3",) * 8 + ("gaussian-fd",) * 6
         + ("gaussian~",) * 4 + ("multinomial:4",) * 4 + ("multinomial:3~", "multinomial:4~")
         + ("bad-sigma", "bad-simplex", "bad-dim", "negative-density"))

CLOSED_FORM_TOL = 1e-12
INVARIANCE_TOL = 1e-9
FD_TOL = 1e-6

Query = namedtuple("Query", "kind model alpha point f coupling spec base")
Base = namedtuple("Base", "model f coupling resc")


def closed_forms(model, point):
    """Fisher metric and skewness written out here, independently of cupgeo."""
    if model == "gaussian":
        s = point[1]
        g = np.diag([1.0 / s ** 2, 2.0 / s ** 2])
        t = np.zeros((2, 2, 2))
        t[0, 0, 1] = t[0, 1, 0] = t[1, 0, 0] = 2.0 / s ** 3
        t[1, 1, 1] = 8.0 / s ** 3
        return g, t
    p = np.asarray(point)
    last = 1.0 - p.sum()
    n = p.size
    g = np.diag(1.0 / p) + 1.0 / last
    t = np.full((n, n, n), -1.0 / last ** 2)
    for i in range(n):
        t[i, i, i] += 1.0 / p[i] ** 2
    return g, t


def gaussian_metric(x):
    return closed_forms("gaussian", x)[0]


def gaussian_skewness(x):
    return closed_forms("gaussian", x)[1]


_DENSITIES = {
    "gaussian": ("1 + 0.1*mu*sigma", "sigma + 0.05*mu^2", "exp(0.2*mu)/sigma"),
    "multinomial:3": ("1 + 0.1*p1*p2", "1 + p1^2 - 0.5*p2", "exp(p1 - p2)"),
    "multinomial:4": ("1 + 0.1*p1*p2*p3", "1 + p1 - 0.5*p3", "sqrt(1 + p2)"),
}
_POTENTIAL_TERMS = {
    "gaussian": ("mu", "mu*sigma"),
    "multinomial:3": ("p1", "p1*p2"),
    "multinomial:4": ("p1", "p2*p3"),
}
_POTENTIALS_PER_MODEL = 8


def _rel(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def _finite(*values):
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


class Pointwise:
    """Single-point library queries, each point drawn once from the seed."""

    name = "pointwise"
    groups_per_chunk = 5
    min_groups = 25
    warmup_groups = 1
    speed_probe = ("interp", 10, 0.1)
    traced_groups = 10
    verify_evals = 0
    aliases = {"queries_per_s": ("work_per_s", 1.0, "1/s"),
               "query_ms.p50": ("op_ms.p50", 1.0, "ms"), "query_ms.p99": ("op_ms.p99", 1.0, "ms")}
    seed_note = "the seed draws every point, alpha, density, coupling and rescaling"

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        gauss = cupgeo.gaussian_model()
        self.models = {
            "gaussian": gauss,
            "multinomial:3": cupgeo.multinomial_model(3),
            "multinomial:4": cupgeo.multinomial_model(4),
        }
        self.twin = cupgeo.model_from_callables(
            2, gauss.coord_names, gaussian_metric, gaussian_skewness,
            domain=gauss.domain, name="gaussian-fd")
        self.densities = {}
        self.couplings = {}
        self.potentials = {}
        for key, model in self.models.items():
            c1 = model.coord_names[0]
            self.densities[key] = [cupgeo.WeightedDensity(model.scalar_field(src), 1.0)
                                   for src in _DENSITIES[key]]
            self.couplings[key] = [
                cupgeo.NonlinearCoupling(model.scalar_field(lam), a)
                for lam, a in (("2", 3.0), (f"1 + 0.1*{c1}", -2.0), ("2", 0.5),
                               (f"1 + 0.1*{c1}", 1.0))]
            t1, t2 = _POTENTIAL_TERMS[key]
            self.potentials[key] = [
                model.scalar_field(f"{a:.6g}*{t1} + {b:.6g}*{t2}")
                for a, b in self.rng.uniform(-0.3, 0.3, size=(_POTENTIALS_PER_MODEL, 2))]
        self.negative = gauss.scalar_field("-(1 + 0.1*mu*sigma)")
        self.seen = set()

    # -- query generation ---------------------------------------------------

    def _point(self, key):
        while True:
            if key == "gaussian":
                p = (float(self.rng.uniform(-2.0, 2.0)), float(self.rng.uniform(0.5, 2.5)))
            else:
                k = int(key.split(":")[1])
                full = self.rng.dirichlet([3.0] * k)
                if full.min() < 0.05:
                    continue
                p = tuple(float(x) for x in full[:-1])
            if p not in self.seen:
                self.seen.add(p)
                return p

    def _valid(self, key, rescaled):
        model = self.models[key]
        alpha = float(self.rng.uniform(-1.0, 1.0))
        point = self._point(key)
        density = self.densities[key][self.rng.integers(len(self.densities[key]))]
        coupling = self.couplings[key][self.rng.integers(len(self.couplings[key]))]
        spec = cupgeo.HessianSpec(1.0 / (model.dim - 1))
        if not rescaled:
            return Query(key, model, alpha, point, density.f, coupling, spec, None)
        potential = self.potentials[key][self.rng.integers(_POTENTIALS_PER_MODEL)]
        resc = cupgeo.make_rescaling(alpha, potential)
        return Query(key + "~", cupgeo.rescaled_model(model, resc), alpha, point,
                     cupgeo.transform_density(density, resc).f,
                     cupgeo.transform_coupling(coupling, resc), spec,
                     Base(model, density.f, coupling, resc))

    def _query(self, kind):
        if kind.endswith("~"):
            return self._valid(kind[:-1], True)
        if kind in self.models:
            return self._valid(kind, False)
        gauss = self.models["gaussian"]
        if kind == "gaussian-fd":
            q = self._valid("gaussian", False)
            return q._replace(kind=kind, model=self.twin, base=Base(gauss, q.f, q.coupling, None))
        if kind == "negative-density":
            q = self._valid("gaussian", False)
            return q._replace(kind=kind, f=self.negative,
                              coupling=cupgeo.NonlinearCoupling(gauss.scalar_field("2"), 0.5))
        if kind == "bad-sigma":
            q = self._valid("gaussian", False)
            return q._replace(kind=kind, point=(q.point[0], -float(self.rng.uniform(0.1, 1.0))))
        if kind == "bad-simplex":
            q = self._valid("multinomial:3", False)
            return q._replace(kind=kind, point=(float(self.rng.uniform(0.55, 0.75)),
                                                float(self.rng.uniform(0.5, 0.7))))
        if kind == "bad-dim":
            q = self._valid("multinomial:4", False)
            return q._replace(kind=kind, point=q.point[:2])
        raise ValueError(f"unknown query kind {kind!r}")

    def next_group(self):
        order = self.rng.permutation(len(BLOCK))
        return [self._query(BLOCK[i]) for i in order]

    # -- one query ----------------------------------------------------------

    @staticmethod
    def _call(q):
        curv = cupgeo.curvature(q.model, q.alpha, q.point)
        hess = cupgeo.modified_hessian(q.model, q.alpha, q.spec, q.f, q.point)
        value = cupgeo.nonlinear_cup_operator(q.model, q.alpha, q.f, q.coupling, q.point)
        return curv, hess, value

    def run(self, q):
        error = None
        t0 = clock()
        try:
            out = self._call(q)
        except Exception as e:  # graded below: only CupGeoError on invalid input passes
            error = e
        dt = clock() - t0
        return dt, self.gate(q, out if error is None else None, error), 1

    def gate(self, q, out, error):
        invalid = q.kind.startswith("bad-") or q.kind == "negative-density"
        if invalid:
            if isinstance(error, cupgeo.CupGeoError):
                return []
            if error is None:
                return [f"{q.kind} at {q.point}: no error raised"]
            return [f"{q.kind} at {q.point}: raised {type(error).__name__}, not CupGeoError"]
        if error is not None:
            return [f"{q.kind} at {q.point}: {type(error).__name__}: {error}"]
        curv, hess, value = out
        if not _finite(curv.riemann.components, curv.ricci.components, curv.scalar,
                       hess.components, value):
            return [f"{q.kind} at {q.point}: non-finite result"]
        n = q.model.dim
        problems = []
        if q.kind in ("gaussian", "gaussian-fd"):
            expected = -(1.0 - q.alpha ** 2)
        elif q.kind.startswith("multinomial:") and q.base is None:
            expected = n * (n - 1) * (1.0 - q.alpha ** 2) / 4.0
        else:
            expected = None
        tol = FD_TOL if q.kind == "gaussian-fd" else CLOSED_FORM_TOL
        if expected is not None and not _rel(curv.scalar, expected) <= tol:
            problems.append(f"{q.kind} at {q.point}: scalar curvature {curv.scalar!r}, "
                            f"closed form {expected!r}")
        if q.base is not None:
            ref_curv, ref_hess, ref_value = self._call(
                q._replace(model=q.base.model, f=q.base.f, coupling=q.base.coupling))
            if q.base.resc is None:
                pairs = ((curv.riemann.components, ref_curv.riemann.components, FD_TOL),
                         (hess.components, ref_hess.components, FD_TOL),
                         (value, ref_value, FD_TOL))
            else:
                eta = q.base.resc.eta(q.point)
                pairs = ((hess.components, eta * ref_hess.components, INVARIANCE_TOL),
                         (value, ref_value, INVARIANCE_TOL))
            for got, ref, tol in pairs:
                if not _rel(got, ref) <= tol:
                    problems.append(f"{q.kind} at {q.point}: residual {_rel(got, ref):.3e} "
                                    f"against the reference")
        return problems


# -- estimate-mc ------------------------------------------------------------

MC_SAMPLES = 10 ** 6
MC_SIGMAS = 6.0


class EstimateMC:
    """``cupgeo estimate --json`` on Gaussian and multinomial:3, 10^6 samples.

    The command runs ``estimate_fisher_tensors`` and prints the estimates,
    their standard errors and the model's closed forms.
    """

    name = "estimate-mc"
    groups_per_chunk = 1
    min_groups = 3
    warmup_groups = 1
    speed_probe = ("array", 2, None)
    traced_groups = 2
    verify_evals = 0
    aliases = {"samples_per_s": ("work_per_s", 1.0, "1/s")}
    seed_note = "the seed draws each interior point and each sampler seed"

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def _point(self, model):
        if model == "gaussian":
            return (float(self.rng.uniform(-2.0, 2.0)), float(self.rng.uniform(0.5, 2.5)))
        while True:
            full = self.rng.dirichlet([3.0] * 3)
            if full.min() >= 0.05:
                return tuple(float(x) for x in full[:-1])

    def next_group(self):
        # One round: a Gaussian call and a multinomial:3 call.
        return [[(m, self._point(m), int(self.rng.integers(2 ** 31)))
                 for m in ("gaussian", "multinomial:3")]]

    def run(self, round_):
        outputs = []
        t0 = clock()
        try:
            for model, point, sampler_seed in round_:
                outputs.append(run_cli([
                    "estimate", "--model", model, "--point=" + ",".join(map(repr, point)),
                    "--count", str(MC_SAMPLES), "--seed", str(sampler_seed), "--json"]))
        except Exception as e:  # a crash is a failed operation, not a crashed benchmark
            return clock() - t0, [f"estimate raised {e!r}"], 0
        dt = clock() - t0
        problems = []
        for (model, point, _), (code, text) in zip(round_, outputs):
            problems += self.gate(model, point, code, text)
        return dt, problems, MC_SAMPLES * len(round_)

    @staticmethod
    def gate(model, point, code, text):
        where = f"{model} at {point}"
        if code != 0:
            return [f"{where}: estimate exited {code}"]
        try:
            (row,) = json.loads(text)["results"]
            if row["count"] != MC_SAMPLES or row["se_reliable"] is not True:
                return [f"{where}: count {row['count']}"]
            problems = []
            for what, ref in zip(("metric", "skewness"), closed_forms(model, point)):
                got = np.asarray(row[what], dtype=float)
                se = np.asarray(row[what + "_se"], dtype=float)
                if not _rel(row[what + "_closed_form"], ref) <= CLOSED_FORM_TOL:
                    problems.append(f"{where}: printed {what} closed form is wrong")
                if not _finite(got, se):
                    problems.append(f"{where}: non-finite {what} estimate")
                    continue
                gap = np.abs(got - ref)
                if np.any(np.where(se > 0, gap > MC_SIGMAS * se, gap != 0)):
                    worst = float(np.max(gap / np.where(se > 0, se, math.inf)))
                    problems.append(f"{where}: {what} {worst:.2f} standard errors from the "
                                    f"closed form")
        except (ValueError, KeyError, TypeError) as e:
            return [f"{where}: unreadable estimate output: {e!r}"]
        return problems


WORKLOADS = {w.name: w for w in (SuiteDefault, Pointwise, EstimateMC)}


def build_inputs(name, seed):
    """Set-up of one workload: its models, configs and seeded streams."""
    return WORKLOADS[name](seed)
