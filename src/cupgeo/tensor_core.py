"""Dense chart-local tensor values and the field evaluation layer.

Everything here is tiny per point: statistical manifolds live in a
handful of dimensions, so tensors are dense ndarrays and index gymnastics
go through einsum.  Slot 0 is always the leftmost written component index.

Points are given either one at a time (a coordinate tuple, shape ``(n,)``)
or as a batch (a ``(P, n)`` array); :func:`as_coords` normalizes both.
Values over a batch carry its axis first, ahead of the component axes.

Every field (metric, skewness, density, coupling, rescaling potential) is
a :class:`Field`: it is evaluated as a jet through one checked path,
:func:`field_jet`, so any failure names the field and the point.  Fields
have no domain of their own: they take coordinates already checked against
the model they are evaluated on, and the model's domain is the only one
there is.
"""

import functools
import math
import numbers
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import jets
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    EvaluationError,
    SingularMetricError,
    UndefinedValueError,
)


@dataclass(frozen=True)
class Point:
    """An ordered tuple of chart coordinates, read through :func:`as_coords`."""

    coords: tuple

    def __init__(self, coords):
        x = as_coords(coords)
        if x.ndim != 1:
            raise DimensionMismatchError(f"a point must have shape (n,), got {x.shape}")
        object.__setattr__(self, "coords", tuple(x.tolist()))

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)


def as_coords(p):
    """Coordinates as a float array: shape ``(n,)`` for one point, ``(P, n)`` for a batch.

    A coordinate is a real number: a string or a bool is not one, so a
    sequence or an array holding either is a DimensionMismatchError, as is
    anything else that is not a sequence of reals.  Non-finite coordinates
    raise :class:`DomainError` naming the first offending row.
    """
    try:
        x = _real_array(p.coords if isinstance(p, Point) else p)
    except (TypeError, ValueError):
        raise DimensionMismatchError(
            "points must be a coordinate sequence or a (P, n) array of reals") from None
    if x.ndim not in (1, 2) or x.shape[-1] == 0:
        raise DimensionMismatchError(f"points must have shape (n,) or (P, n), got {x.shape}")
    finite = np.isfinite(x)
    if not finite.all():
        raise DomainError(f"non-finite coordinates: {point_text(x, first_false(finite, x))}")
    return x


def _real_array(p):
    """``p`` as a float array, or a TypeError when an entry is not a real number.

    A sequence is converted once without a dtype, so strings stay strings
    (numpy would read "12" as the number 12); a bool among floats converts
    to a float, so a sequence is also scanned for bools, an array only
    judged by its dtype.
    """
    if type(p) is np.ndarray:
        x = p
    elif isinstance(p, (str, bytes)):
        raise TypeError
    else:
        x = np.asarray(p)
        if x.ndim and x.dtype.kind in "iuf" and not _BOOLS.isdisjoint(
                map(type, p if x.ndim == 1 else chain.from_iterable(p))):
            raise TypeError
    if x.dtype is _FLOAT:
        return x
    kind = x.dtype.kind
    if kind not in "iufO" or kind == "O" and not all(
            isinstance(c, numbers.Real) and type(c) not in _BOOLS for c in x.flat):
        raise TypeError
    return x.astype(float)


_BOOLS = frozenset((bool, np.bool_))
_FLOAT = np.dtype(float)


def _all_of(flags):
    """Whether every one of ``flags`` is set: one bool (numpy's or Python's) at a
    point, an array of them over a batch.  A numpy bool's own ``all`` is a
    reduction, which costs a microsecond more than reading it."""
    return bool(flags.all()) if type(flags) is np.ndarray else bool(flags)


def _any_of(flags):
    """Whether any one of ``flags`` is set, read as :func:`_all_of` reads them."""
    return bool(flags.any()) if type(flags) is np.ndarray else bool(flags)


def first_false(ok, x):
    """The first row of ``x`` (0 for one point) with a False among its entry
    flags: ``ok`` leads with the batch axes of ``x``."""
    return int(np.argmin(np.reshape(ok, np.shape(x)[:-1] + (-1,)).all(axis=-1)))


def point_text(x, row=0):
    """One point as a coordinate tuple; a batch row also gives its index."""
    if x.ndim == 1:
        return str(tuple(float(c) for c in x))
    return f"{tuple(float(c) for c in x[row])} (row {row})"


@dataclass(frozen=True, eq=False)
class Tensor:
    """A dense tensor at a point or a batch: its components, stored fully (no
    symmetry packing) after any leading batch axes, shape ``batch + (n,) * rank``.

    Which slots are upper and which lower is the index placement that the
    function returning the tensor states.
    """

    components: np.ndarray


def invert_metric(g, at=None):
    """Inverse g^ij of a symmetric positive-definite metric g_ij, or of a stack of them.

    ``g`` is an array whose last two axes are the metric's; so is the result.
    Raises :class:`SingularMetricError` (reporting the smallest eigenvalue)
    when positive-definiteness fails; ``at``, the coordinates the metric was
    evaluated at, lets the message name the first offending point.
    """
    m = np.asarray(g, dtype=float)
    eigs = np.linalg.eigvalsh(0.5 * (m + m.swapaxes(-1, -2)))
    positive = eigs[..., 0] > 0.0
    if not _all_of(positive):
        row = first_false(positive, eigs)
        low = float(eigs[..., 0].reshape(-1)[row])
        where = "" if at is None else f" at {point_text(np.asarray(at), row)}"
        raise SingularMetricError(
            f"metric is not positive-definite{where} (min eigenvalue {low:.3e})",
            min_eigenvalue=low,
        )
    inv = np.linalg.inv(m)
    return 0.5 * (inv + inv.swapaxes(-1, -2))


# -- fields -----------------------------------------------------------------


def _readonly(x):
    """A read-only view of an array (a number passes through)."""
    if isinstance(x, np.ndarray):
        x = x.view()
        x.flags.writeable = False
    return x


def _real(x):
    """A float for one point, the per-row array for a batch."""
    return float(x) if np.ndim(x) == 0 else x


class _Misshapen(Exception):
    """A field's own result without the shape of its values at a point: a
    failure :func:`field_jet` names the point of."""


def _parts(jet):
    """The value and derivative arrays of ``jet``, in order."""
    return (jet.value, jet.d1, jet.d2)[:jet.order + 1]


def _checked(compute, x, order):
    """``compute(x, order)`` as ``(jet, None)``, or ``(None, failure)``: the
    ArithmeticError or :class:`_Misshapen` it raised, or, for an entry that
    is not finite, the first row of ``x`` holding one (0 at one point)."""
    try:
        jet = compute(x, order)
    except (ArithmeticError, _Misshapen) as e:
        return None, e
    if not isinstance(jet, jets.Jet):
        jet = jets.constant_at(_float(jet), x, order)
    value, *derivs = parts = _parts(jet)
    # a finite sum of squares proves every entry finite: only a non-finite
    # one needs the entry-by-entry check; a point's value squares as a number
    square = np.vdot(value, value) if type(value) is np.ndarray else value * value
    if math.isfinite(sum(map(np.vdot, derivs, derivs), square)):
        return jet, None
    rows = np.shape(x)[:-1] + (-1,)
    finite = np.concatenate([np.reshape(np.isfinite(part), rows) for part in parts], axis=-1)
    return (jet, None) if finite.all() else (None, first_false(finite, x))


def field_jet(source, coords, order, compute, rerun=True):
    """``compute(coords, order)`` as one field evaluation at ``coords``, checked.

    The arithmetic runs under ``np.errstate``: a zero division or an overflow,
    at a point as in a batch, gives inf/nan, which the check finds.  A batch
    fails as its first failing point fails alone: on an ArithmeticError, a
    :class:`_Misshapen` result or an entry that is not finite, its rows run
    again in order, and the first failing row's own failure names ``source``
    and that point, as a DomainError for an UndefinedValueError (``log`` of a
    non-positive value, say), else as an EvaluationError.  Without ``rerun``
    -- for a rule that computes each row from that row's own inputs --
    nothing runs again: the first row holding an entry that is not finite is
    the failing one, and an error raised names the first row its ``flags``
    set (those of a jets domain check), else the batch.  A nested field's
    error passes through unchanged.  A plain-number result becomes a
    constant jet, an integer too large for a float an infinite one, which
    the check finds.
    """
    x = np.asarray(coords, dtype=float)
    with np.errstate(all="ignore"):
        jet, failure = _checked(compute, x, order)
        if jet is not None:
            return jet
        at = point_text(x) if x.ndim == 1 else f"a batch of {len(x)} points"
        if x.ndim == 2 and not rerun and not isinstance(failure, Exception):
            at = point_text(x, failure)
        flags = getattr(failure, "flags", None)
        if x.ndim == 2 and not rerun and np.shape(flags)[:1] == x.shape[:1]:
            at = point_text(x, first_false(~flags, x))
        for row in range(len(x)) if x.ndim == 2 and rerun else ():
            jet, row_failure = _checked(compute, x[row], order)
            if jet is None:
                at, failure = point_text(x, row), row_failure
                break
    if not isinstance(failure, Exception):
        raise EvaluationError(f"{source} is not finite at {at}")
    kind = DomainError if isinstance(failure, UndefinedValueError) else EvaluationError
    raise kind(f"{source} failed at {at}: {failure}") from failure


class Field:
    """A quantity on the chart, evaluated as a jet: value and derivatives.

    A field has a dimension ``dim``, a tensor ``rank`` (0 for a scalar), a
    ``mode`` ("jet" for exact jet arithmetic, "fd" for finite differences),
    the ``coord_names`` of the chart it is written in (None when it names
    none) and a ``label`` that names it in error messages.  A subclass gives
    ``label`` and ``_jet(coords, order)``; :meth:`jet` is the one checked
    evaluation.  It keeps the parts of its last jet (a tuple of the value and
    derivative arrays, each read-only, keyed by the shape and bytes of the
    coordinates) and answers the same coordinates at the same or a lower order
    from them, by truncation, which is exact; so evaluation must be pure.
    Each answer is a new :class:`~cupgeo.jets.Jet` around the kept parts, so a
    caller that rebinds a part of it changes no later answer.
    A failing batch runs its rows again alone unless ``_rerun`` is false
    (see :func:`field_jet`).
    """

    rank = 0
    mode = "jet"
    coord_names = None
    _kept = (None, None)
    _rerun = True

    def jet(self, coords, order):
        """The jet at one point or a ``(P, n)`` batch, through :func:`field_jet`.

        ``coords`` are already checked against the model's domain (the
        operators check each grid once, when
        :func:`cupgeo.geometry.point_geometry` builds its geometry).
        """
        x = np.asarray(coords, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"{self.label} takes {self.dim} coordinates, got {x.shape[-1]}")
        key, parts = (x.shape, x.tobytes()), self._kept[1]
        if self._kept[0] != key or len(parts) <= order:
            jet = field_jet(self.label, x, order, self._jet, self._rerun)
            value, *derivs = _parts(jet)
            if type(value) is not np.ndarray or not value.ndim:  # one point's value, a
                value = np.float64(value)  # rule's float too, follows a batch row's rules
            parts = tuple(map(_readonly, (value, *derivs)))
            self._kept = (key, parts)
        return jets.Jet(self.dim, order, *parts[:order + 1])

    def _jet(self, coords, order):
        raise NotImplementedError

    def __call__(self, p):
        return _real(self.jet(as_coords(p), 0).value)


def require_scalar(f, what):
    """Raise ConfigError unless ``f`` is a scalar (rank-0) :class:`Field`."""
    if not isinstance(f, Field) or f.rank != 0:
        kind = f"a rank-{f.rank} field" if isinstance(f, Field) else type(f).__name__
        raise ConfigError(f"{what} must be a scalar field, got {kind}")


def require_real(value, what):
    """``value`` as a float; a ConfigError naming ``what`` unless it is a finite real
    number: a bool is not one, nor a string, and any other :class:`numbers.Real` is,
    numpy scalars included; an integer too large for a float is not finite."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{what} must be a real number, got {value!r}")
        value = _float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value}")
    return value


def _float(value):
    """``float(value)`` of a real number; an integer too large for a float is +-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def require_integer(value, what, low, high=None):
    """``value`` as an int; a ConfigError naming ``what`` unless it is an integer
    (a bool is not one, nor 2.0 the number 2, and numpy integers are) of at
    least ``low`` and, when ``high`` is given, at most ``high``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if value < low or high is not None and value > high:
        bound = f">= {low}" if high is None else f"from {low} to {high}"
        raise ConfigError(f"{what} must be {bound}, got {value}")
    return value


def _callable_name(fn):
    return getattr(fn, "__name__", type(fn).__name__)


class FuncField(Field):
    """Analytic rule written over coordinate jets (exact derivatives).

    The rule returns a plain number or a jet whose value has the batch shape
    of the coordinates; anything else is an :class:`EvaluationError` naming
    the point (and its row in a batch).  A batch is also checked by its first
    row alone, to which a component array cannot broadcast.
    """

    def __init__(self, fn, dim):
        self.fn = fn
        self.dim = dim
        self.label = f"rule {_callable_name(fn)!r}"

    def _jet(self, coords, order):
        if np.ndim(coords) == 2:
            self._result(coords[0], order)
        return self._result(coords, order)

    def _result(self, x, order):
        out, batch = self.fn(jets.seed(x, order)), np.shape(x)[:-1]
        if isinstance(out, jets.Jet):
            if np.shape(out.value) == batch:
                return out
            got = f"a jet of shape {np.shape(out.value)}"
        elif isinstance(out, numbers.Real):
            return out
        else:
            got = f"{type(out).__name__} of shape {np.shape(out)}"
        raise _Misshapen(f"returned {got}, expected a number or a jet of shape {batch}")


@functools.lru_cache(maxsize=128)
def _sorted_index(n, rank):
    """Per component axis, the read-only ``(n,) * rank`` array of the sorted
    index of each entry's class: built once per ``(n, rank)``.  The bound
    holds every model dimension (up to 32) at ranks 2 and 3 and keeps a
    bare field of any other dimension from growing the memo without end."""
    index = np.sort(np.indices((n,) * rank), axis=0)
    index.flags.writeable = False
    return tuple(index)


def _mirror_sorted(arr, rank=None, lead=0):
    """Copy each entry with sorted indices into every permutation of them.

    The indices are those of the ``rank`` axes (default: all) after ``lead``
    batch axes; any axes after them (a jet part's derivative axes) are
    carried along.  This is the one rule for a symmetric tensor's
    components: the entry of a sorted index class fixes the whole class.
    The gather reads one memoised index per ``(n, rank)``, whatever the
    batch axes.
    """
    index = _sorted_index(arr.shape[lead], rank or arr.ndim - lead)
    return arr[(slice(None),) * lead + index]


class NumericField(Field):
    """Black-box float callable; derivatives by finite differences.

    ``fn(x)`` returns the ``(dim,) * rank`` components at one point; another
    shape is an :class:`EvaluationError` naming the point.  The stencil
    (:func:`cupgeo.jets.finite_difference_jet`) takes one step per axis, and
    the first and second partials along an axis share its four values, so an
    order-2 jet calls ``fn`` 1 + 8n^2 - 4n times.  It runs on the components
    as returned, and each part of the jet then
    has the entry of each sorted index class copied into every permutation of
    it (:func:`_mirror_sorted`, over the component axes alone): the jet is
    bitwise symmetric, and an asymmetric callable reads as its sorted entries.
    A ``domain`` (a :class:`cupgeo.manifolds.Domain`) caps each step by its
    ``max_steps``, so the stencil stays well inside it near a face.
    """

    mode = "fd"

    def __init__(self, fn, dim, rank=0, domain=None):
        self.fn = fn
        self.dim = dim
        self.rank = rank
        self.domain = domain
        self.label = f"{'tensor ' if rank else ''}callable {_callable_name(fn)!r}"

    def _value(self, x):
        arr = np.asarray(self.fn(x), dtype=float)
        if arr.shape != (self.dim,) * self.rank:
            raise _Misshapen(f"returned shape {arr.shape}, expected {(self.dim,) * self.rank}")
        return arr

    def _jet(self, coords, order):
        max_steps = None if self.domain is None else self.domain.max_steps
        jet = jets.finite_difference_jet(self._value, coords, order, max_steps)
        lead = np.ndim(coords) - 1
        return jet if self.rank < 2 else jet.map(lambda a: _mirror_sorted(a, self.rank, lead))
