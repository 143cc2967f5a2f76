"""cupgeo benchmark: run one workload and print its metrics.

Usage, from the root of a cupgeo checkout::

    python3 perfbench/run.py --workload suite-default --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs the workload again under span tracing and reports the
per-layer metrics: self time and call counts per module, the tracing
overhead, per-layer microbenchmarks and per-check times.  Every operation's
output is checked in both modes.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the machine, the run and the workload-specific figures.

See BENCHMARK.md beside this file for the workloads and the metric map.
"""

import os

# One thread for numpy/BLAS, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import calibration  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s",
    "ref_op_ms.p50": "ms",
    "ref_work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Unscaled wall-clock figures, printed in the run record.
UNSCALED = {"op_ms.p50": "ms", "op_ms.p99": "ms", "work_per_s": "1/s"}

# Layers every workload calls.  The self time of the others (cli, verify,
# geometry, cup_transform) is exactly 0 on some workload, so it goes to the
# run record only: the result line holds no time that never changes.
SELF_TIME_LAYERS = ("manifolds", "expr", "jets", "tensor_core")

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    "verify.evals": "count",
    "geometry.builds": "count",
    "geometry.reuse_ratio": "ratio",
    "manifolds.tensor_jets": "count",
    "expr.evals": "count",
    "tensor_core.invert_metric_calls": "count",
    "trace.overhead_pct": "%",
}


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def percentile(values, q):
    """Nearest-rank percentile; ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def probe_setup(workload, seed):
    """Set-up seconds over fresh processes: medians scaled and unscaled, and of the import.

    Each process runs the host-speed probe just after its set-up, and its
    set-up time is scaled by nominal ÷ that probe time.  The probe must run
    in the child: on a shared host the two cores run at different speeds,
    and the child need not run on the parent's core.
    """
    nominal = calibration.NOMINAL_S["interp"]
    setup, scaled, imports = [], [], []
    probe = os.path.join(HERE, "setup_probe.py")
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, probe, workload, str(seed)],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            speed_line = proc.stdout.readline()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"set-up probe for {workload} exited {code}")
        setup.append(ready - t0)
        scaled.append((ready - t0) * nominal / json.loads(speed_line)["probe_s"])
        imports.append(json.loads(line)["import_s"])
    return statistics.median(scaled), statistics.median(setup), statistics.median(imports)


class Tally:
    """Attempted and failed operations, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 10 - len(self.problems))])


def run_groups(wl, groups, tally):
    """Run groups of operations; per group, the op latencies and the work done."""
    out = []
    for group in groups:
        latencies, work = [], 0
        for op in group:
            dt, problems, done = wl.run(op)
            tally.add(problems)
            latencies.append(dt)
            work += done
        out.append((latencies, work))
    return out


def measure(wl, seconds, tally):
    """Closed loop for ``seconds``: latency and throughput over chunks.

    A chunk is a fixed number of whole groups, so every chunk holds the same
    mix of operations, and a median over chunks is not moved by a burst of
    machine noise shorter than half the run.  The workload's host-speed probe
    runs before the first group, after every group and, if the workload asks
    for it, on a timer inside the groups.  Each chunk's figures are also
    scaled by nominal × the mean rate (1 / probe time) of the probes around
    and inside it: host speed flips between fast and slow phases within
    tenths of a second, and the mean rate over probes spread evenly in time
    follows how much work the host got through.  The scaled figures are the
    gated ones; they cancel the slow and fast phases of a shared host that
    outlast a run.
    """
    import workloads

    kind, reps, interval = wl.speed_probe
    nominal = calibration.NOMINAL_S[kind]
    for _ in range(wl.warmup_groups):
        run_groups(wl, [wl.next_group()], tally)
    calibration.timed(kind, reps)
    groups, walls, spans = [], [], []
    ticker = calibration.Ticker(kind, reps, interval) if interval else None
    start = time.perf_counter()
    probes = [calibration.timed(kind, reps)]
    while True:
        t0 = time.perf_counter()
        if ticker:
            workloads.clock = ticker.clock
            try:
                with ticker:
                    groups += run_groups(wl, [wl.next_group()], tally)
            finally:
                workloads.clock = time.perf_counter
        else:
            groups += run_groups(wl, [wl.next_group()], tally)
        spans.append((t0, time.perf_counter()))
        probes.append(calibration.timed(kind, reps))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(groups) >= wl.min_groups and elapsed + statistics.median(walls) > seconds:
            break
    ticks = ticker.samples if ticker else []

    k = wl.groups_per_chunk
    p50s, rates, speeds = [], [], []
    for i in range(0, len(groups) - k + 1, k):
        latencies = [dt for lat, _ in groups[i:i + k] for dt in lat]
        p50s.append(statistics.median(latencies))
        rates.append(sum(work for _, work in groups[i:i + k]) / sum(latencies))
        inside = [per_rep for at, per_rep in ticks if spans[i][0] <= at < spans[i + k - 1][1]]
        speeds.append(nominal * statistics.fmean(1.0 / t for t in probes[i:i + k + 1] + inside))
    latencies = [dt for lat, _ in groups for dt in lat]
    metrics = {
        "ref_op_ms.p50": statistics.median(p * s for p, s in zip(p50s, speeds)) * 1e3,
        "ref_work_per_s": statistics.median(r / s for r, s in zip(rates, speeds)),
        "op_ms.p50": statistics.median(p50s) * 1e3,
        "op_ms.p99": percentile(latencies, 99) * 1e3,
        "work_per_s": statistics.median(rates),
    }
    return metrics, {"ops": len(latencies), "groups": len(groups), "chunks": len(rates),
                     "host_speed": {"probe": kind, "in_group_probes": len(ticks),
                                    "median": statistics.median(speeds),
                                    "min": min(speeds), "max": max(speeds)},
                     "window_s": time.perf_counter() - start}


def traced(wl, tally):
    """Per-layer figures: an untraced and a traced run of fixed groups."""
    import micro
    from tracing import Tracer

    # Untraced and traced groups alternate, so that both see the same phases
    # of machine noise; each group is fresh, so no result is reused.
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    ops = 0
    for _ in range(wl.traced_groups):
        untraced_s += sum(run_groups(wl, [wl.next_group()], tally)[0][0])
        with tracer:
            (lat, _), = run_groups(wl, [wl.next_group()], tally)
        traced_s += sum(lat)
        ops += len(lat)
    summary = tracer.summary()
    paths = tracer.dump(OUT_DIR, f"trace-{wl.name}")
    builds = Tracer.calls(summary, "geometry.PointGeometry.__init__")
    self_s = {layer: s / ops for layer, s in Tracer.layer_self(summary).items()}
    metrics = {f"{layer}.self_s": self_s[layer] for layer in SELF_TIME_LAYERS}
    metrics.update({
        "verify.evals": float(wl.verify_evals),
        "geometry.builds": builds / ops,
        "geometry.reuse_ratio": len(tracer.triples) / builds if builds else 1.0,
        "manifolds.tensor_jets": Tracer.calls(summary, "manifolds.ExprTensorField.jet",
                                              "manifolds.NumericTensorField.jet") / ops,
        "expr.evals": Tracer.calls(summary, "expr.Expression.__call__") / ops,
        "tensor_core.invert_metric_calls": Tracer.calls(summary,
                                                        "tensor_core.invert_metric") / ops,
        "trace.overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
    })
    units = dict(PER_LAYER_UNITS)
    layer = micro.layer_micro()
    for name, value in layer.items():
        units[name] = "ns" if name.endswith("_ns_per_row") else "us"
    metrics.update(layer)
    checks, problems = micro.check_times()
    tally.add(problems)
    metrics.update(checks)
    units.update({name: "s" for name in checks})
    info = {"traced_ops": ops, "untraced_s": untraced_s, "traced_s": traced_s,
            "self_s_per_op": self_s, "spans_per_op": len(tracer.name_id) / ops,
            "missing_entry_points": tracer.missing, "spans_file": os.path.relpath(paths[0], ROOT),
            "summary_file": os.path.relpath(paths[1], ROOT)}
    return metrics, units, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cupgeo", "__init__.py")):
        print(f"error: no cupgeo sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cupgeo
    if not os.path.realpath(cupgeo.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: imported cupgeo from {cupgeo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s, unscaled_setup_s, import_s = probe_setup(args.workload, args.seed)
    wl = workloads.build_inputs(args.workload, args.seed)
    tally = Tally()
    info = {"workload": args.workload, "seed": args.seed, "seed_note": wl.seed_note,
            "trace": args.trace, "machine": machine()}
    if args.trace == 0:
        metrics, run_info = measure(wl, args.seconds, tally)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        info["workload_metrics"] = {alias: (metrics[src] * scale, unit)
                                    for alias, (src, scale, unit) in wl.aliases.items()}
        info["unscaled"] = {name: (metrics[name], unit) for name, unit in UNSCALED.items()}
        info["unscaled"]["setup_s"] = (unscaled_setup_s, "s")
        metrics = {name: metrics[name] for name in END_TO_END}
        units = END_TO_END
    else:
        metrics, units, run_info = traced(wl, tally)
        metrics["cli.import_s"] = import_s
    info.update(run_info)
    info["verify_json_sha256"] = getattr(wl, "digest", None)
    info["attempted"] = tally.attempted
    info["failed_frac"] = tally.failed / tally.attempted
    info.setdefault("workload_metrics", {})["failed_frac"] = (info["failed_frac"], "ratio")
    info["problems"] = tally.problems

    result = {name: {"value": float(metrics[name]), "unit": units[name]}
              for name in sorted(metrics)}
    for name, m in result.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in info["workload_metrics"].items():
        print(f"{args.workload}: {name} {value:.6g} {unit}")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
