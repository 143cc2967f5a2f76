"""Per-layer microbenchmarks: public functions in a warm loop on fixed inputs.

Inputs are the same on every workload and every seed.  Each timing is the
median over several batches of the per-call time within a batch, after one
warm-up call.
"""

import dataclasses
import statistics
import time

import numpy as np

import cupgeo
from cupgeo import expr, jets

from workloads import SUITE_EVALS, check_problems, gaussian_metric

_POINT = (0.25, 0.4)
_ALPHA = 0.5

# (metric name, check id, overrides of the default config) for the nine
# checks and the three negative controls of ``verify --default``.
CHECKS = [(f"verify.check_s.{cid}", cid, {}) for cid in list(SUITE_EVALS)[:9]] + [
    ("verify.check_s.hessian_inv.k0", "hessian_inv", {"hessian_k": 0.0}),
    ("verify.check_s.conn_shift.sym1_3", "conn_shift", {"sym_weight": 1.0 / 3.0}),
    ("verify.check_s.laplacian_inv.s1", "laplacian_inv", {"laplacian_s": 1.0}),
]


def per_call(fn, budget_s=0.25, batches=7):
    """Median over batches of seconds per call of ``fn()``."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    n = max(1, int(budget_s / batches / once))
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def geometry_stages(model, budget_s=0.4):
    """Median microseconds of each PointGeometry stage on a fresh instance.

    The metric and skewness jets are fetched first, untimed, so each stage
    is timed on its own: ginv, then gamma, dgamma and riemann in turn.
    """
    stages = ("ginv", "gamma", "dgamma", "riemann")
    samples = {s: [] for s in stages}
    deadline = time.perf_counter() + budget_s
    while time.perf_counter() < deadline or len(samples["ginv"]) < 50:
        geo = cupgeo.PointGeometry(model, _ALPHA, _POINT)
        geo.d2g, geo.dt
        for stage in stages:
            t0 = time.perf_counter()
            getattr(geo, stage)
            samples[stage].append(time.perf_counter() - t0)
    return {f"geometry.stage_us.{s}": statistics.median(v) * 1e6 for s, v in samples.items()}


def layer_micro():
    """Every per-layer unit cost, in the units the benchmark reports."""
    m3 = cupgeo.multinomial_model(3)
    density = m3.scalar_field("1 + 0.1*p1*p2")
    rescaled = cupgeo.rescaled_model(
        m3, cupgeo.make_rescaling(_ALPHA, m3.scalar_field("0.2*p1*p2")))
    out = geometry_stages(m3)
    us = {
        "geometry.cup_laplacian_us": lambda: cupgeo.cup_laplacian(m3, _ALPHA, density, _POINT),
        "cup_transform.rescaled_metric_jet_us": lambda: rescaled.metric_jet(_POINT, 2),
        "cup_transform.rescaled_skew_jet_us": lambda: rescaled.skewness_jet(_POINT, 1),
        "manifolds.metric_jet_us": lambda: m3.metric_jet(_POINT, 2),
        "manifolds.skew_jet_us": lambda: m3.skewness_jet(_POINT, 1),
    }
    expression = expr.Expression("1/p1 + 1/(1 - p1 - p2)")
    env = dict(zip(("p1", "p2"), jets.seed(_POINT, 2)))
    x, y = jets.seed((0.3, 1.2), 2)
    us.update({
        "expr.parse_us": lambda: expr.Expression("1/p1 + 1/(1 - p1 - p2 - p3)"),
        "expr.eval_us": lambda: expression(env),
        "jets.mul_o2_us": lambda: x * y,
        "jets.fd_jet_us": lambda: jets.finite_difference_jet(gaussian_metric, (0.3, 1.2), 2),
    })
    for name, fn in us.items():
        out[name] = per_call(fn) * 1e6

    gauss = cupgeo.gaussian_model()
    spec = gauss.sample_spec(count=250_000, seed=0)
    rows = spec.sampler(cupgeo.Point((0.3, 1.2)), 250_000, np.random.default_rng(0))
    coord_jets = jets.seed((0.3, 1.2), 1)
    out["jets.batch_ns_per_row"] = per_call(
        lambda: spec.log_likelihood(rows, coord_jets), budget_s=0.5, batches=5) / 250_000 * 1e9
    return out


def check_times():
    """Seconds of ``run_check`` per check and control; gate problems alongside."""
    config = cupgeo.default_suite_config()
    out, problems = {}, []
    for metric, cid, overrides in CHECKS:
        varied = dataclasses.replace(config, **overrides) if overrides else config
        t0 = time.perf_counter()
        report = cupgeo.run_check(cid, varied)
        out[metric] = time.perf_counter() - t0
        problems += check_problems(dataclasses.asdict(report), control=bool(overrides))
    return out, problems
