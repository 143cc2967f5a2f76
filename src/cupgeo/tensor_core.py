"""Dense chart-local tensor values and the scalar-field evaluation layer.

Everything here is tiny per point: statistical manifolds live in a
handful of dimensions, so tensors are dense ndarrays with an explicit
variance signature, and index gymnastics go through einsum.  Slot 0 is
always the leftmost written component index.

Points are given either one at a time (a coordinate tuple, shape ``(n,)``)
or as a batch (a ``(P, n)`` array); :func:`as_coords` normalizes both.
Values over a batch carry its axis first, ahead of the component axes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import (
    DimensionMismatchError,
    DomainError,
    EvaluationError,
    SingularMetricError,
    UnsupportedOrderError,
    VarianceError,
)

COV = "cov"
CONTRA = "contra"


@dataclass(frozen=True)
class Point:
    """An ordered tuple of chart coordinates."""

    coords: tuple

    def __init__(self, coords):
        coords = tuple(float(c) for c in coords)
        if not all(np.isfinite(c) for c in coords):
            raise DomainError(f"non-finite coordinates: {coords}")
        object.__setattr__(self, "coords", coords)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)


def as_point(p):
    return p if isinstance(p, Point) else Point(p)


def as_coords(p):
    """Coordinates as a float array: shape ``(n,)`` for one point, ``(P, n)`` for a batch.

    Non-finite coordinates raise :class:`DomainError` naming the first
    offending row.
    """
    try:
        x = np.asarray(p.coords if isinstance(p, Point) else p, dtype=float)
    except (TypeError, ValueError):
        raise DimensionMismatchError(
            "points must be a coordinate sequence or a (P, n) array of reals") from None
    if x.ndim not in (1, 2) or x.shape[-1] == 0:
        raise DimensionMismatchError(f"points must have shape (n,) or (P, n), got {x.shape}")
    finite = np.isfinite(x)
    if not finite.all():
        rows = finite.all(axis=-1)
        raise DomainError(f"non-finite coordinates: {point_text(x, first_false(rows))}")
    return x


def first_false(mask):
    """Index of the first False entry of a per-row mask (0 for one point)."""
    return int(np.argmin(mask))


def point_text(x, row=0):
    """One point as a coordinate tuple; a batch row also gives its index."""
    if x.ndim == 1:
        return str(tuple(float(c) for c in x))
    return f"{tuple(float(c) for c in x[row])} (row {row})"


@dataclass(frozen=True)
class Tensor:
    """A dense tensor at a point or a batch: dimension, slot variances, components.

    ``variance`` lists one of ``"cov"`` / ``"contra"`` per slot, leftmost
    written index first.  Components are stored fully, no symmetry packing,
    after any leading batch axes: shape ``batch + (dim,) * rank``.
    """

    dim: int
    variance: tuple
    components: np.ndarray = field(repr=False)

    def __init__(self, dim, variance, components):
        variance = tuple(variance)
        if any(v not in (COV, CONTRA) for v in variance):
            raise VarianceError(f"unknown slot kind in {variance}")
        components = np.asarray(components, dtype=float)
        expected = (dim,) * len(variance)
        if components.shape[components.ndim - len(variance):] != expected:
            raise DimensionMismatchError(
                f"components shape {components.shape} does not end in {expected}"
            )
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "components", components)

    @property
    def rank(self):
        return len(self.variance)

    @property
    def batch_ndim(self):
        return self.components.ndim - self.rank

    def is_fully_symmetric(self, tol=0.0):
        """Componentwise equality under every index permutation."""
        from itertools import permutations

        c = self.components
        b = self.batch_ndim
        for perm in permutations(range(self.rank)):
            axes = tuple(range(b)) + tuple(b + q for q in perm)
            if not np.allclose(c, np.transpose(c, axes), rtol=0.0, atol=tol):
                return False
        return True


def invert_metric(g, at=None):
    """Inverse of a symmetric positive-definite cov-2 tensor, or of a stack of them.

    Raises :class:`SingularMetricError` (reporting the smallest eigenvalue)
    when positive-definiteness fails; ``at``, the coordinates the metric was
    evaluated at, lets the message name the first offending point.
    """
    m = g.components if isinstance(g, Tensor) else np.asarray(g, dtype=float)
    eigs = np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, -1, -2)))
    positive = eigs[..., 0] > 0.0
    if not np.all(positive):
        row = first_false(positive)
        low = float(eigs[..., 0].reshape(-1)[row])
        where = "" if at is None else f" at {point_text(np.asarray(at), row)}"
        raise SingularMetricError(
            f"metric is not positive-definite{where} (min eigenvalue {low:.3e})",
            min_eigenvalue=low,
        )
    inv = np.linalg.inv(m)
    inv = 0.5 * (inv + np.swapaxes(inv, -1, -2))
    if isinstance(g, Tensor):
        return Tensor(g.dim, (CONTRA, CONTRA), inv)
    return inv


# -- scalar fields ----------------------------------------------------------


def _row_all(flags, batch):
    """Per batch row, whether every one of its entries' ``flags`` is set.

    Flags without the batch axes (those of a plain number) hold for every row.
    """
    if flags.shape[:len(batch)] == batch:
        return flags.reshape(batch + (-1,)).all(axis=-1)
    return np.full(batch, flags.all())


def field_jet(source, coords, order, compute, *args):
    """``compute(*args)`` as one field evaluation at ``coords``, checked.

    The arithmetic runs under ``np.errstate``, so batched division by zero
    or overflow yields inf/nan instead of a warning; those values, and the
    ZeroDivisionError/OverflowError of scalar arithmetic, raise an
    :class:`EvaluationError` naming ``source`` and the first offending
    point.  A :class:`DomainError` of the jet arithmetic (``log`` of a
    non-positive value, say) is raised again naming them too.  A
    plain-number result becomes a constant jet over ``coords``.
    """
    x = np.asarray(coords, dtype=float)
    with np.errstate(all="ignore"):
        try:
            jet = compute(*args)
        except (ZeroDivisionError, OverflowError) as e:
            raise EvaluationError(f"{source} failed at {point_text(x)}: {e}") from e
        except DomainError as e:
            if e.mask is None:
                raise
            row = first_false(_row_all(~e.mask, x.shape[:-1]))
            raise DomainError(f"{source} failed at {point_text(x, row)}: {e}") from e
        if not isinstance(jet, jets.Jet):
            jet = jets.constant_at(jet, x, order)
        parts = [jet.deriv(k) for k in range(jet.order + 1)]
        # a finite sum of squares proves every entry finite, so only a
        # non-finite one needs the entry-by-entry check
        total = 0.0
        for part in parts:
            total += np.vdot(part, part)
        if math.isfinite(total):
            return jet
    finite = np.ones(x.shape[:-1], dtype=bool)
    for part in parts:
        finite &= _row_all(np.isfinite(part), x.shape[:-1])
    if np.all(finite):
        return jet
    raise EvaluationError(f"{source} is not finite at {point_text(x, first_false(finite))}")


class ScalarField:
    """A scalar quantity on the chart, evaluable with derivatives.

    Subclasses fix how derivatives are obtained: exact jet arithmetic for
    analytic rules and parsed expressions, fourth-order central differences
    for black-box callables.  Evaluation at a fixed point is deterministic.
    ``jet(coords, order)`` takes one point or a ``(P, n)`` batch and goes
    through :func:`field_jet`.
    """

    mode = "jet"
    domain = None

    def jet(self, coords, order):
        raise NotImplementedError

    def __call__(self, p):
        return self.jet(as_coords(p), 0).value


class FuncField(ScalarField):
    """Analytic rule written over coordinate jets (exact derivatives)."""

    def __init__(self, fn, dim, domain=None):
        self.fn = fn
        self.dim = dim
        self.domain = domain

    def jet(self, coords, order):
        name = getattr(self.fn, "__name__", type(self.fn).__name__)
        return field_jet(f"rule {name!r}", coords, order, self.fn, jets.seed(coords, order))


class NumericField(ScalarField):
    """Black-box float callable; derivatives by finite differences."""

    mode = "fd"

    def __init__(self, fn, dim, domain=None):
        self.fn = fn
        self.dim = dim
        self.domain = domain

    def jet(self, coords, order):
        name = getattr(self.fn, "__name__", type(self.fn).__name__)
        return field_jet(f"callable {name!r}", coords, order,
                         jets.finite_difference_jet, self.fn, coords, order)


class ConstantField(ScalarField):
    def __init__(self, value, dim):
        self.value = float(value)
        self.dim = dim

    def jet(self, coords, order):
        return field_jet(f"constant {self.value!r}", coords, order,
                         jets.constant_at, self.value, coords, order)


def evaluate_jet(field, p, order):
    """Value and all mixed partials of ``field`` at ``p`` up to ``order``.

    ``p`` is one point or a ``(P, n)`` batch.  Orders above
    :data:`jets.MAX_ORDER` (2) are rejected: curvature consumes second
    metric derivatives and the operators second density derivatives.
    """
    if order > jets.MAX_ORDER or order < 0:
        raise UnsupportedOrderError(f"order {order} not supported (max {jets.MAX_ORDER})")
    x = as_coords(p)
    if field.domain is not None:
        inside = field.domain.contains(x)
        if not np.all(inside):
            raise DomainError(f"point {point_text(x, first_false(inside))} "
                              "outside the field's domain")
    return field.jet(x, order)
