"""Command-line front end.

Four subcommands: ``tensors`` prints the geometric data of a model at
points, ``laplacian`` evaluates the trace operator (optionally with the
nonlinear coupling), ``verify`` runs the residual suite, and ``estimate``
runs the Monte-Carlo tensor oracle.

Exit codes: 0 success / suite pass, 1 check failure, 2 usage or config
error.  JSON output prints floats with 17 significant digits, so identical
inputs produce byte-identical output and values round-trip losslessly.
"""

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from itertools import combinations_with_replacement

import numpy as np

from . import geometry
from .cup_transform import (
    WeightedDensity,
    parse_rescaling,
    rescaled_model,
    transform_coupling,
    transform_density,
)
from .errors import ConfigError, CupGeoError
from .manifolds import estimate_fisher_tensors, resolve_model
from .tensor_core import require_integer, require_real
from .verify import (
    CHECK_IDS,
    CONTROL_FACTOR,
    DEFAULT_ALPHAS,
    ModelCase,
    SuiteConfig,
    SuiteResult,
    control_failed_as_expected,
    default_suite_config,
    run_check,
    run_suite,
    standard_couplings,
)

# -- deterministic JSON -----------------------------------------------------


def _format_float(x):
    if math.isnan(x) or math.isinf(x):
        return "null"
    return "%.17g" % x


def render_json(obj, indent=0):
    """Minimal JSON writer with fixed float formatting and key order."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [render_json(item, indent + 1) for item in obj]
        if all("\n" not in it and len(it) < 24 for it in items) and len(items) <= 8:
            return "[" + ", ".join(items) + "]"
        body = ",\n".join(inner + it for it in items)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f'{inner}"{key}": {render_json(val, indent + 1)}' for key, val in obj.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


# -- shared parsing helpers -------------------------------------------------


def _parse_point(text):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"bad point {text!r}: expected comma-separated reals") from None


def _load_model(args):
    model = resolve_model(args.model)
    resc = None
    if args.rescaling:
        try:
            with open(args.rescaling, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read rescaling config: {e}") from None
        resc = parse_rescaling(text, model)
    return model, resc


def _points(args, model):
    if not args.point:
        raise ConfigError("at least one --point is required")
    pts = [_parse_point(p) for p in args.point]
    for p in pts:
        model.require_inside(p)
    return pts


def _fmt(x):
    return "%.10g" % x


# -- human-readable tensor rendering ----------------------------------------


def _label(names, index):
    return ",".join(names[i] for i in index)


def _print_matrix(title, names, mat):
    width = max(len(n) for n in names) + 1
    cell = max(12, width, max(len(_fmt(v)) for row in mat for v in row) + 1)
    print(f"  {title}:")
    print("    " + " " * width + "".join(f"{n:>{cell}}" for n in names))
    for i, row in enumerate(mat):
        print(f"    {names[i]:>{width}}" + "".join(f"{_fmt(v):>{cell}}" for v in row))


def _print_nonzero(title, rows):
    """The nonzero ``(label, value)`` rows under ``title``, in order."""
    print(f"  {title}:")
    shown = [(label, v) for label, v in rows if v != 0.0]
    for label, v in shown:
        print(f"    {label} = {_fmt(v)}")
    if not shown:
        print("    (all components zero)")


def _sym3_rows(names, arr):
    return [(f"[{_label(names, index)}]", arr[index])
            for index in combinations_with_replacement(range(len(names)), 3)]


def _gamma_rows(names, arr):
    n = len(names)
    return [(f"^{names[k]}_[{_label(names, (i, j))}]", arr[k, i, j])
            for k in range(n) for i in range(n) for j in range(i, n)]


def _riemann_rows(names, arr):
    n = len(names)
    return [(f"^{names[i]}_[{_label(names, (j, k, l))}]", arr[i, j, k, l])
            for i in range(n) for j in range(n) for k in range(n) for l in range(k + 1, n)]


# -- subcommands ------------------------------------------------------------


def cmd_tensors(args):
    model, resc = _load_model(args)
    if resc is not None:
        model = rescaled_model(model, resc)
    alpha = args.alpha
    names = model.coord_names
    results = []
    for p in _points(args, model):
        ws = geometry.point_geometry(model, alpha, p)
        results.append({
            "point": list(p),
            "g": ws.g,
            "g_inv": ws.ginv,
            "t": ws.t,
            "gamma0": ws.gamma0,
            "gamma_alpha": ws.gamma,
            "riemann": ws.riemann,
            "ricci": ws.ricci,
            "scalar_curvature": ws.scalar,
        })
    if args.json:
        print(render_json({"model": model.name, "alpha": alpha, "points": results}))
        return 0
    print(f"model {model.name}  (alpha = {_fmt(alpha)})")
    for entry in results:
        coords = ", ".join(f"{n}={_fmt(v)}" for n, v in zip(names, entry["point"]))
        print(f"\npoint ({coords})")
        _print_matrix("metric g", names, entry["g"])
        _print_matrix("inverse metric", names, entry["g_inv"])
        _print_nonzero("skewness t", _sym3_rows(names, entry["t"]))
        _print_nonzero("Gamma (Levi-Civita)", _gamma_rows(names, entry["gamma0"]))
        _print_nonzero(f"Gamma (alpha={_fmt(alpha)})", _gamma_rows(names, entry["gamma_alpha"]))
        _print_nonzero("Riemann", _riemann_rows(names, entry["riemann"]))
        _print_matrix("Ricci", names, entry["ricci"])
        print(f"  scalar curvature: {_fmt(entry['scalar_curvature'])}")
    return 0


def cmd_laplacian(args):
    model, resc = _load_model(args)
    if resc is not None and require_real(args.alpha, "alpha") != resc.alpha:
        raise ConfigError(f"--alpha {_fmt(args.alpha)} differs from the rescaling's alpha "
                          f"{_fmt(resc.alpha)}; the operators are invariant only at the "
                          "rescaling's own alpha")
    if args.density is None:
        raise ConfigError("laplacian needs --density <expression>")
    if (args.lam is None) != (args.a is None):
        raise ConfigError("--lambda and --a must be given together")
    density = WeightedDensity(model.scalar_field(args.density), args.weight)
    coupling = None
    if args.lam is not None:
        coupling = geometry.NonlinearCoupling(model.scalar_field(args.lam), args.a)
    target, f = model, density.f
    if resc is not None:
        target = rescaled_model(model, resc)
        f = transform_density(density, resc).f
        if coupling is not None:
            coupling = transform_coupling(coupling, resc)
    results = []
    for p in _points(args, model):
        entry = {"point": list(p),
                 "laplacian": geometry.cup_laplacian(target, args.alpha, f, p)}
        if coupling is not None:
            entry["nonlinear"] = geometry.nonlinear_cup_operator(
                target, args.alpha, f, coupling, p)
        results.append(entry)
    if args.json:
        print(render_json({
            "model": model.name,
            "alpha": args.alpha,
            "density": args.density,
            "results": results,
        }))
        return 0
    for entry in results:
        coords = ", ".join(f"{n}={_fmt(v)}" for n, v in zip(model.coord_names, entry["point"]))
        line = f"({coords})  laplacian = {_fmt(entry['laplacian'])}"
        if "nonlinear" in entry:
            line += f"  with coupling = {_fmt(entry['nonlinear'])}"
        print(line)
    return 0


def _case_for(model):
    """A verification case with a generic grid and chart-generic inputs."""
    second = 1 % model.dim  # itself on a 1-d model, which the suite's validation rejects
    bounds = model.domain.bounds
    if model.domain.simplex:
        # start at the lower bounds, those left free low enough to leave room
        # under the simplex, and step into it, half way at most to an upper bound
        lows = [lo for lo, _ in bounds if lo is not None]
        free = -sum(lows) / max(model.dim - len(lows), 1)
        start = [min(0, free, math.inf if hi is None else hi - 1) if lo is None else lo
                 for lo, hi in bounds]
        room = (1 - sum(start)) / (model.dim + 1)
        steps = [room if hi is None else min(room, (hi - s) / 2)
                 for s, (_, hi) in zip(start, bounds)]
        centre = [s + step for s, step in zip(start, steps)]
        points = [tuple(centre)]
        for axis in range(min(model.dim, 4)):
            tilted = list(centre)
            tilted[axis] += steps[axis] / 2
            points.append(tuple(tilted))
    else:
        values = []
        for lo, hi in bounds:
            if lo is not None and hi is not None:
                span = hi - lo
                values.append((lo + 0.3 * span, lo + 0.5 * span, lo + 0.7 * span))
            elif lo is not None:
                values.append((lo + 0.6, lo + 1.0, lo + 1.8))
            elif hi is not None:
                values.append((hi - 1.8, hi - 1.0, hi - 0.6))
            else:
                values.append((-1.0, 0.0, 1.0))
        points = [tuple(v[1] for v in values)]
        for a in values[0]:
            for b in values[second]:
                pt = [v[1] for v in values]
                pt[0], pt[second] = a, b
                points.append(tuple(pt))
    points = tuple(dict.fromkeys(points))
    if not np.all(model.domain.contains(points)):
        raise ConfigError(f"the bounds of model {model.name!r} leave no room for a grid inside "
                          "its domain")
    c1, c2 = model.coord_names[0], model.coord_names[second]
    return ModelCase(
        model=model,
        points=points,
        potentials=(model.scalar_field(f"0.3*{c1}"), model.scalar_field(f"0.1*{c1}*{c2}")),
        densities=(
            WeightedDensity(model.scalar_field("1"), 1.0),
            # the quadratic keeps a nonzero laplacian even on a flat chart,
            # so the s=1 negative control cannot pass vacuously
            WeightedDensity(model.scalar_field(f"1 + 0.1*{c1}^2 + 0.1*{c1}*{c2}"), 1.0),
        ),
        couplings=standard_couplings(model),
    )


def cmd_verify(args):
    require_integer(args.seed, "seed", 0)
    if args.model and args.default:
        raise ConfigError("--default and --model cannot be combined")
    if args.model:
        case = _case_for(resolve_model(args.model))
        config = SuiteConfig(
            cases=(case,),
            alphas=DEFAULT_ALPHAS,
            tolerance=args.tol,
        )
    else:
        config = default_suite_config(tolerance=args.tol)
    if args.k is not None:
        config = dataclasses.replace(config, hessian_k=args.k)

    if args.check:
        result = SuiteResult(reports=(run_check(args.check, config),))
    else:
        result = run_suite(config)

    with _output_to_a_reader():  # a closed pipe keeps the verdict's status
        if args.json:
            print(render_json(result.summary(args.seed)))
        else:
            for r in result.reports:
                outcome = "pass" if r.passed else "FAIL"
                if r.negative_control and control_failed_as_expected(r):
                    outcome += " (negative control, expected to fail)"
                elif r.negative_control:
                    outcome += (f" (negative control: {r.max_rel_residual / r.tolerance:.0f}x "
                                f"tol, {CONTROL_FACTOR:.0f}x required)")
                extras = ""
                if r.flat_points:
                    extras += f"  flat={r.flat_points}"
                print(f"{r.check_id:22s} residual {r.max_rel_residual:.3e} "
                      f"(tol {r.tolerance:.0e}, {r.points_evaluated} evals){extras}  {outcome}")
            print("suite: " + ("PASS" if result.passed else "FAIL"))
    return 0 if result.passed else 1


def cmd_estimate(args):
    model = resolve_model(args.model)
    spec = model.sample_spec(count=args.count, seed=args.seed)
    results = []
    for p in _points(args, model):
        est = estimate_fisher_tensors(spec, p)
        closed_g = model.metric_at(p).components
        closed_t = model.skewness_at(p).components
        results.append({
            "point": list(p),
            "count": est.count,
            "se_reliable": est.se_reliable,
            "metric": est.metric.components,
            "metric_se": est.metric_se,
            "metric_closed_form": closed_g,
            "skewness": est.skewness.components,
            "skewness_se": est.skewness_se,
            "skewness_closed_form": closed_t,
        })
    if args.json:
        print(render_json({
            "model": model.name,
            "seed": args.seed,
            "results": results,
        }))
        return 0
    names = model.coord_names
    for entry in results:
        coords = ", ".join(f"{n}={_fmt(v)}" for n, v in zip(names, entry["point"]))
        print(f"point ({coords}), {entry['count']} samples"
              + ("" if entry["se_reliable"] else "  [standard errors unreliable]"))
        for rank, key in ((2, "metric"), (3, "skewness")):
            print(f"  {key}: estimate / closed form / standard error")
            for index in combinations_with_replacement(range(model.dim), rank):
                est = entry[key][index]
                ref = entry[f"{key}_closed_form"][index]
                se = entry[f"{key}_se"][index]
                se_txt = _fmt(se) if math.isfinite(se) else "n/a"
                print(f"    [{_label(names, index)}] {_fmt(est)} / {_fmt(ref)} / {se_txt}")
    return 0


# -- argument wiring --------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cupgeo",
        description="Statistical-manifold geometry: tensors, invariance checks, "
                    "and the conformal-projective operator calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "alpha": dict(type=float, default=0.0),
        "point": dict(action="append", default=[],
                      help="comma-separated coordinates; repeatable"),
        "rescaling": dict(metavar="PATH", help="rescaling config JSON with alpha and potential"),
        "json": dict(action="store_true", help="machine-readable output"),
        "seed": dict(type=int, default=0),
        "tol": dict(type=float, default=None, help="override every tolerance"),
    }

    def common(p, *names, model_required=True):
        """``--model`` plus the shared flags ``names`` that subcommand reads."""
        p.add_argument("--model", required=model_required,
                       help="built-in name (gaussian, multinomial:K, euclidean:N) "
                            "or path to a model config JSON")
        for name in names:
            p.add_argument("--" + name, **flags[name])

    t = sub.add_parser("tensors", help="print g, g^-1, t, connections, curvature")
    common(t, "alpha", "point", "rescaling", "json")
    t.set_defaults(func=cmd_tensors)

    l = sub.add_parser("laplacian", help="evaluate the trace operator on a density")
    common(l, "alpha", "point", "rescaling", "json")
    l.add_argument("--density", help="density expression in model coordinates")
    l.add_argument("--weight", type=float, default=1.0, help="density weight r")
    l.add_argument("--lambda", dest="lam", help="coupling expression")
    l.add_argument("--a", type=float, default=None, help="nonlinearity exponent")
    l.set_defaults(func=cmd_laplacian)

    v = sub.add_parser("verify", help="run the residual check suite")
    common(v, "json", "seed", "tol", model_required=False)
    v.add_argument("--default", action="store_true",
                   help="use the default Gaussian + multinomial matrix")
    v.add_argument("--check", choices=CHECK_IDS, help="run a single check")
    v.add_argument("--k", type=float, default=None,
                   help="override the Ricci coupling (canonical: 1/(n-1))")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("estimate", help="Monte-Carlo estimates of g and t")
    common(e, "point", "json", "seed")
    e.add_argument("--count", type=int, default=100_000, help="sample count")
    e.set_defaults(func=cmd_estimate)

    return parser


@contextlib.contextmanager
def _output_to_a_reader():
    """Flush stdout at the end, and stop printing quietly once its reader has
    closed the pipe (``cupgeo tensors ... | head -1``): stdout then points at
    devnull, so the interpreter's flush at exit cannot fail.  No signal
    handler changes, as ``main`` may run inside another program."""
    try:
        yield
        sys.stdout.flush()
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # a stdout with no file descriptor of its own
            return
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def main(argv=None):
    args = build_parser().parse_args(argv)
    status = 0
    try:
        with _output_to_a_reader():
            status = args.func(args)
    except CupGeoError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
