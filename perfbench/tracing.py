"""Span tracing of cupgeo from the outside, for the benchmark's traced runs.

A :class:`Tracer` wraps the entry points of every cupgeo module (module
functions, selected methods and cached geometry stages) in place and records
one span per call: name, start, end and the index of the enclosing span.
Spans live in flat in-memory arrays while the traced work runs; nothing is
written until :meth:`Tracer.dump`.  Self time of a span is its duration
minus the durations of its direct children, and a layer's self time is the
sum over the spans named ``<module>.*``.

Functions are patched wherever a cupgeo module holds them: the defining
module, every module that imported the name (``verify`` imports
``cup_laplacian``, ``geometry`` imports ``invert_metric``, ...), the package
namespace, and module-level dispatch dicts such as the expression function
table.  Methods are patched on their class, which every importer shares.
Names missing from the program are skipped and listed in ``missing``, so a
refactor that drops an entry point degrades the trace rather than breaking
the benchmark.
"""

import functools
import json
import os
import sys
import time
from array import array

import numpy as np

# Public module functions are found automatically; these hot recursive
# helpers stay unwrapped because a span per AST node would dwarf the work.
_SKIP_FUNCTIONS = {"expr.evaluate", "expr.variables"}

# Methods and private functions that carry a layer's work.  Jet arithmetic is
# spanned so that jets time is separated from the AST walk that drives it.
_METHODS = {
    "jets": ["Jet.__add__", "Jet.__radd__", "Jet.__sub__", "Jet.__rsub__", "Jet.__mul__",
             "Jet.__rmul__", "Jet.__truediv__", "Jet.__rtruediv__", "Jet.__pow__",
             "Jet.__rpow__", "Jet.__neg__", "Jet.partial", "Jet.truncate"],
    "expr": ["Expression.__init__", "Expression.__call__"],
    "tensor_core": ["Point.__init__", "Tensor.__init__", "FuncField.jet", "NumericField.jet",
                    "ConstantField.jet"],
    "manifolds": ["ManifoldModel.metric_jet", "ManifoldModel.skewness_jet",
                  "ManifoldModel.metric_at", "ManifoldModel.skewness_at",
                  "ManifoldModel.require_inside", "ManifoldModel.scalar_field",
                  "ManifoldModel.sample_spec", "ExprTensorField.jet", "NumericTensorField.jet",
                  "ExprScalarField.__init__", "ExprScalarField.jet", "Domain.contains"],
    "geometry": ["PointGeometry.__init__", "PointGeometry.ginv", "PointGeometry.dginv",
                 "PointGeometry.gamma0", "PointGeometry.skew_mixed", "PointGeometry.gamma",
                 "PointGeometry.dgamma", "PointGeometry.riemann", "PointGeometry.ricci",
                 "PointGeometry.scalar"],
    "cup_transform": ["CupRescaling.eta_jet", "CupRescaling.psi_jet", "CupRescaling.eta",
                      "CupRescaling.psi", "_ScaledMetricField.jet",
                      "_ShiftedSkewnessField.jet", "_PoweredScaleField.jet"],
    "verify": ["_check_metric_compat", "_check_codazzi", "_check_conn_shift",
               "_check_curv_shift", "_check_ricci_shift", "_check_hessian_inv",
               "_check_laplacian_inv", "_check_nonlinear_inv", "_check_integrability",
               "SuiteResult.summary"],
    "cli": [],
}

LAYERS = tuple(_METHODS)

BUILD_SPAN = "geometry.PointGeometry.__init__"


def _cupgeo_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cupgeo" or name.startswith("cupgeo."))]


class Tracer:
    """In-memory span recorder that patches cupgeo while it is installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo = []
        self._models = {}
        self.triples = set()
        self.missing = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return wrapper

    def _record_build(self, init):
        # Distinct (model object, alpha, point) triples.  Models are kept
        # alive so that a recycled id() cannot merge two of them.
        triples, models = self.triples, self._models

        @functools.wraps(init)
        def wrapper(geo, *args, **kwargs):
            init(geo, *args, **kwargs)
            model = getattr(geo, "model", None)
            models[id(model)] = model
            point = getattr(geo, "p", None)
            coords = getattr(point, "coords", point)
            triples.add((id(model), repr(getattr(geo, "alpha", None)), repr(coords)))

        return wrapper

    # -- patching -----------------------------------------------------------

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, obj.__dict__[attr] if isinstance(obj, type)
                           else getattr(obj, attr)))
        setattr(obj, attr, value)

    def _patch_function(self, fn, name, modules):
        wrapper = self._wrap(fn, name)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, key, wrapper)
                elif isinstance(val, dict) and not key.startswith("__"):
                    for k, v in list(val.items()):
                        if v is fn:
                            self._undo.append((val, k, v))
                            val[k] = wrapper

    def _patch_method(self, cls, attr, name):
        raw = cls.__dict__[attr]
        if isinstance(raw, functools.cached_property):
            new = functools.cached_property(self._wrap(raw.func, name))
            new.__set_name__(cls, attr)
        elif callable(raw):
            new = self._wrap(raw, name)
            if name == BUILD_SPAN:
                new = self._record_build(new)
        else:
            self.missing.append(name)
            return
        self._set(cls, attr, new)

    def install(self):
        """Wrap every listed entry point; call :meth:`uninstall` to undo.

        Spans accumulate across repeated install/uninstall cycles.
        """
        self.missing = []
        modules = _cupgeo_modules()
        for layer, members in _METHODS.items():
            mod = sys.modules.get(f"cupgeo.{layer}")
            if mod is None:
                self.missing.append(layer)
                continue
            for key, val in list(vars(mod).items()):
                name = f"{layer}.{key}"
                if (not key.startswith("_") and callable(val) and not isinstance(val, type)
                        and getattr(val, "__module__", None) == mod.__name__
                        and name not in _SKIP_FUNCTIONS):
                    self._patch_function(val, name, modules)
            for member in members:
                name = f"{layer}.{member}"
                owner, _, attr = member.rpartition(".")
                if not owner:
                    fn = vars(mod).get(attr)
                    if callable(fn):
                        self._patch_function(fn, name, modules)
                    else:
                        self.missing.append(name)
                    continue
                cls = vars(mod).get(owner)
                if isinstance(cls, type) and attr in cls.__dict__:
                    self._patch_method(cls, attr, name)
                else:
                    self.missing.append(name)
        return self

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            if isinstance(obj, dict):
                obj[attr] = value
            else:
                setattr(obj, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        ids = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        return ids, parent, start, end

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        ids, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        self_s = np.bincount(ids, weights=own, minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    @staticmethod
    def layer_self(summary):
        out = {layer: 0.0 for layer in LAYERS}
        for name, row in summary.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + row["self_s"]
        return out

    @staticmethod
    def calls(summary, *names):
        return sum(summary.get(name, {"calls": 0})["calls"] for name in names)

    def dump(self, directory, stem):
        """Write the raw spans (npz) and the per-name summary (json)."""
        os.makedirs(directory, exist_ok=True)
        ids, parent, start, end = self.arrays()
        base = start.min() if len(start) else 0.0
        spans_path = os.path.join(directory, f"{stem}.spans.npz")
        np.savez(spans_path, names=np.array(self.names), name_id=ids, parent=parent,
                 start=start - base, end=end - base)
        summary_path = os.path.join(directory, f"{stem}.summary.json")
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": len(ids), "missing": self.missing,
                       "distinct_triples": len(self.triples), "names": self.summary()},
                      fh, indent=1, sort_keys=True)
        return spans_path, summary_path
