"""Assertions and helpers shared by several test modules."""

import inspect
import sys
import textwrap
from collections import OrderedDict
from functools import cached_property
from itertools import combinations_with_replacement, permutations

import numpy as np

from cupgeo import expr
from cupgeo.jets import Jet, constant_at, seed


def assert_fully_symmetric(components, lead=0):
    """Every permutation of the component axes after ``lead`` batch axes leaves
    ``components`` bitwise unchanged."""
    rank = np.ndim(components) - lead
    for perm in permutations(range(rank)):
        axes = tuple(range(lead)) + tuple(lead + q for q in perm)
        assert np.array_equal(components, np.transpose(components, axes)), perm


def symmetrize_by_classes(arr, rank):
    """Reference for ``tensor_core._component_symmetrize``: one index class at a
    time, summed as ``0 + a0 + a1 + ...`` over its sorted permutations."""
    if rank < 2:
        return arr
    if rank == 2:
        return 0.5 * (arr + np.swapaxes(arr, 0, 1))
    out = np.empty_like(arr)
    for index in combinations_with_replacement(range(arr.shape[0]), rank):
        perms = set(permutations(index))
        mean = sum(arr[p] for p in sorted(perms)) / len(perms)
        for p in perms:
            out[p] = mean
    return out


class RowByRowResiduals:
    """Reference for ``verify._Residuals``: each row of a batch recorded in turn."""

    def __init__(self):
        self.count = 0
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.worst = None

    def add(self, points, lhs, rhs):
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


def mirrored_tensor_jet(field, coords, order):
    """Reference for ``ExprTensorField.jet``: each entry evaluated as its own
    expression and written into every permutation of its index."""
    env = dict(zip(field.coord_names, seed(coords, order)))
    out = constant_at(np.zeros((field.dim,) * field.rank), coords, order)
    lead = (slice(None),) * (np.ndim(coords) - 1)
    for index, expression in field.entries.items():
        value = expression(env)
        if not isinstance(value, Jet):
            value = constant_at(value, coords, order)
        for perm in set(permutations(index)):
            for k in range(order + 1):
                out.deriv(k)[lead + perm] = value.deriv(k)
    return out


def plant(monkeypatch, owner, name, before, after):
    """Patch ``owner.name`` with its source recompiled with ``before`` changed to ``after``.

    A function is patched in every ``cupgeo`` module that holds it and in
    every module-level table (a dict such as ``expr._OPS``) that holds it; a
    method, which no module holds, on its class.  A plant that patches
    nothing fails.  The unrolled code of ``expr``'s memo starts empty for
    the plant's lifetime, so code generated before the plant neither hides
    the mutant nor outlives it.
    """
    original = inspect.getattr_static(owner, name)
    func = getattr(original, "func", original)  # a cached property's function
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(before) == 1, f"{name} has no single line holding {before!r}"
    module = sys.modules[func.__module__]
    defined = {}
    code = compile(source.replace(before, after), inspect.getsourcefile(func), "exec")
    exec(code, vars(module), defined)
    mutant = defined[name]
    monkeypatch.setattr(expr, "_memo", OrderedDict())
    if isinstance(mutant, cached_property):
        mutant.__set_name__(owner, name)
        monkeypatch.setattr(owner, name, mutant)
        return
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cupgeo"]
    holders = [m for m in modules if vars(m).get(name) is original]
    if not holders and isinstance(owner, type):
        holders = [owner]
    slots = [(table, key) for m in modules for table in vars(m).values()
             if isinstance(table, dict) for key, value in table.items() if value is original]
    assert holders or slots, f"no module and no class holds {name}: the mutant would patch nothing"
    for holder in holders:
        monkeypatch.setattr(holder, name, mutant)
    for table, key in slots:
        monkeypatch.setitem(table, key, mutant)
