"""Forward-mode jets: values together with mixed partial derivatives.

A :class:`Jet` carries the value of a scalar quantity and all of its mixed
partial derivatives with respect to ``dim`` chart coordinates, up to a
truncation ``order`` of at most 2.  Arithmetic on jets propagates the
derivative arrays exactly (Leibniz rule for products, the chain rule for
the elementary functions), so derivatives of any analytic expression built
from seeded coordinate jets are exact to roundoff.  Second order is the
deepest anything downstream needs: curvature consumes second metric
derivatives and first skewness derivatives, and the operators second
derivatives of their density.

Derivative axes trail the value axes: ``d1[..., i]`` is the first partial
with respect to coordinate ``i``, ``d2[..., i, j]`` the second.
The value may be a scalar or any ndarray, which lets a single evaluation
carry a whole batch through the same arithmetic.  The value axes start
with the batch axes: :func:`seed` of one point (shape ``(n,)``) gives
float64 scalar values and batch shape ``()``, so a point follows the IEEE
rules of its batch row (a zero divisor gives inf), while a ``(P, n)`` array
of points gives values of shape ``(P,)``.  Component axes of a tensor-valued
jet follow the batch axes, and the derivative axes trail both, so the jet
of a rank-2 field over P points has ``value`` of shape ``(P, n, n)`` and
``d1`` of shape ``(P, n, n, n)``.  Monte-Carlo samples ride the same axis.

Memory layout follows one rule, and the logical axes above do not change
with it.  Where a derivative part is broadcast against an operand with more
axes than the part -- a point-level part meeting a sample batch -- the
result is formed batch-innermost (``order="F"``), so numpy's inner loops
run along the samples, not along the n derivative slots.  Everywhere else
numpy's default ``order="K"`` carries the operands' layout on, so a whole
log-likelihood over a batch stays batch-innermost, and parts whose values
share their batch axes (one point, or a grid of points) stay C-contiguous.
The layout never changes an element: the arithmetic on parts is
elementwise.

The arithmetic is also the generator of :mod:`cupgeo.expr`'s unrolled code,
which runs it on jets whose value is a traced code name and whose partials
are object arrays of names and numbers: every value-level function goes
through :func:`_elem`, which hands a traced value its call to record.  So
each formula is written here and only here.

For black-box callables that only map coordinates to floats,
:func:`finite_difference_jet` fills the same structure with fourth-order
central differences, one step per axis: the first and second partials along
an axis share its four stencil values, so an order-2 jet in n dimensions
calls the function 1 + 8n^2 - 4n times.
"""

import numpy as np

from .errors import UndefinedValueError, UnsupportedOrderError

MAX_ORDER = 2

_EPS = float(np.finfo(float).eps)


def _bc(value, k):
    """Append ``k`` singleton axes so a value broadcasts against a rank-k derivative."""
    if k == 0 or not isinstance(value, np.ndarray) or value.ndim == 0:
        return value
    return value.reshape(value.shape + (1,) * k)


def _formed(ufunc, a, b):
    """``ufunc(a, b)`` for the derivative part ``b`` and an operand ``a``,
    batch-innermost where one has more axes than the other and ``a`` is an
    array with axes of its own.

    That is a point-level part meeting a sample batch (or the reverse), which
    numpy would lay out in C order, with an inner loop of length n.
    """
    na = getattr(a, "ndim", 0)  # np.ndim of a float costs a microsecond
    if na and na != b.ndim:
        return ufunc(a, b, order="F")
    return ufunc(a, b)


def _elem(value, fn, *args):
    """``fn(value, *args)`` of a value-level function, on an array or a number.

    A number gives a float64 scalar.  numpy rounds a number exactly as it
    rounds the same array element, where the ``math`` functions may differ
    from it in the last bit; so one point and a batch containing it evaluate
    alike.  A traced value, the code name of :mod:`cupgeo.expr`'s code
    generator, records the call through its ``trace_call`` instead.
    """
    trace_call = getattr(value, "trace_call", None)
    if trace_call is not None:
        return trace_call(fn, *args)
    return fn(value, *args)


def _power(v, p):
    """``v ** p``, rounded alike for a number and for an array element.

    Integer exponents square and multiply; others go through ``np.power``.
    """
    if not float(p).is_integer():
        return _elem(v, np.power, p)
    k = abs(int(p))
    if k == 0:
        return np.ones_like(v) if isinstance(v, np.ndarray) else np.float64(1.0)
    out = None
    while True:
        if k & 1:
            out = v if out is None else out * v
        k >>= 1
        if not k:
            return 1.0 / out if p < 0 else out
        v = v * v


def _require(bad, message):
    """Raise an UndefinedValueError, holding the per-entry flags ``bad`` as its
    ``flags``, if any of them is set."""
    if bad.any():
        error = UndefinedValueError(message)
        error.flags = bad
        raise error


def _require_power_base(v, e):
    """``v``, if it may be raised to ``e``: a fractional power needs a positive
    base, an integer one takes any."""
    if not float(e).is_integer():
        bad = np.asarray(v)
        _require(bad < 0.0, f"negative base raised to fractional exponent {e}")
        _require(bad == 0.0, f"zero base raised to fractional exponent {e}")
    return v


def _log(v):
    _require(np.asarray(v) <= 0.0, "log of a non-positive value")
    return np.log(v)


def _sqrt(v):
    _require(np.asarray(v) < 0.0, "sqrt of a negative value")
    return np.sqrt(v)


class Jet:
    """Value plus mixed partials up to ``order`` with respect to ``dim`` coordinates."""

    __slots__ = ("dim", "order", "value", "d1", "d2")

    # Keep numpy from broadcasting elementwise over a Jet operand; binary ops
    # with ndarrays then fall back to the reflected Jet methods.
    __array_ufunc__ = None

    def __init__(self, dim, order, value, d1=None, d2=None):
        if not 0 <= order <= MAX_ORDER:
            raise UnsupportedOrderError(f"jet order must be in [0, {MAX_ORDER}], got {order}")
        self.dim = dim
        self.order = order
        self.value = value
        self.d1 = d1
        self.d2 = d2

    # -- construction -----------------------------------------------------

    @classmethod
    def constant(cls, value, dim, order):
        shape = np.shape(value)
        d1 = d2 = None
        if order >= 1:
            d1 = np.zeros(shape + (dim,))
        if order >= 2:
            d2 = np.zeros(shape + (dim, dim))
        return cls(dim, order, value, d1, d2)

    def _check(self, other):
        """Raise unless the jet ``other`` has this jet's dimension and order."""
        if other.dim != self.dim:
            raise ValueError(f"jet dims differ: {self.dim} vs {other.dim}")
        if other.order != self.order:
            raise ValueError(f"jet orders differ: {self.order} vs {other.order}")

    # -- accessors --------------------------------------------------------

    def deriv(self, k):
        """The order-``k`` derivative array (``k = 0`` gives the value)."""
        return (self.value, self.d1, self.d2)[k]

    def expand(self, k):
        """This jet with ``k`` singleton axes appended to its value axes.

        Each part is a ``reshape`` view (a number value becomes an array).
        A scalar jet expanded by the rank of a tensor-valued jet multiplies
        it componentwise, batch row by batch row.
        """
        nv, ones = np.ndim(self.value), (1,) * k

        def grown(a):
            a = np.asarray(a)
            return a.reshape(a.shape[:nv] + ones + a.shape[nv:])

        return self.map(grown)

    def map(self, fn):
        """This jet with ``fn``, which must keep the trailing derivative axes, on every part."""
        return Jet(self.dim, self.order, *[fn(self.deriv(k)) for k in range(self.order + 1)])

    # -- ring operations --------------------------------------------------
    #
    # A number or an array operand is a constant: it shifts the value or
    # scales every part, and no zero-derivative jet is built for it.

    def __add__(self, other):
        if not isinstance(other, Jet):
            value = self.value + other
            parts = [self.deriv(k) for k in range(1, self.order + 1)]
            if isinstance(other, np.ndarray) and np.shape(value) != np.shape(self.value):
                # an array operand added batch axes: the parts gain them too,
                # batch-innermost as in _formed
                lead = np.shape(value)
                parts = [np.asarray(np.broadcast_to(d, lead + d.shape[d.ndim - k:]), order="F")
                         for k, d in enumerate(parts, 1)]
            return Jet(self.dim, self.order, value, *parts)
        self._check(other)
        parts = [_formed(np.add, self.deriv(k), other.deriv(k))
                 for k in range(1, self.order + 1)]
        return Jet(self.dim, self.order, self.value + other.value, *parts)

    __radd__ = __add__

    def __neg__(self):
        parts = [-self.deriv(k) for k in range(1, self.order + 1)]
        return Jet(self.dim, self.order, -self.value, *parts)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            parts = [_formed(np.multiply, _bc(other, k), self.deriv(k))
                     for k in range(1, self.order + 1)]
            return Jet(self.dim, self.order, self.value * other, *parts)
        self._check(other)
        f, g = self, other
        n, m = f.dim, f.order
        value = f.value * g.value
        # each sum is formed in place, in its first term's buffer: one temporary fewer
        parts = []
        if m >= 1:
            d1 = _formed(np.multiply, _bc(f.value, 1), g.d1)
            d1 += _formed(np.multiply, _bc(g.value, 1), f.d1)
            parts.append(d1)
        if m >= 2:
            cross = _formed(np.multiply, f.d1[..., :, None], g.d1[..., None, :])
            d2 = _formed(np.multiply, _bc(f.value, 2), g.d2)
            d2 += _formed(np.multiply, _bc(g.value, 2), f.d2)
            d2 += cross + np.swapaxes(cross, -1, -2)
            parts.append(d2)
        return Jet(n, m, value, *parts)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / other)
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        inv = 1.0 / self.value
        return self._compose(inv, lambda: -(inv * inv), lambda: 2.0 * _power(inv, 3))

    def __pow__(self, exponent):
        if isinstance(exponent, Jet):
            return exp(exponent * log(self))
        e = float(exponent)
        if e == 0.0:
            return Jet.constant(_power(self.value, 0), self.dim, self.order)
        if e == 1.0:
            return self
        v = self.value
        if not e.is_integer():  # an integer power checks nothing: no call to trace
            _elem(v, _require_power_base, e)
        return self._compose(_power(v, e), lambda: e * _power(v, e - 1),
                             lambda: e * (e - 1) * _power(v, e - 2))

    def __rpow__(self, base):
        return exp(self * _elem(base, np.log))

    # -- composition with a smooth univariate function --------------------

    def _compose(self, c0, c1, c2):
        """Chain rule through phi given phi(v) and the functions giving phi'(v)
        and phi''(v), each called only at an order that uses it: an unused
        coefficient may fail (1/v at v = 0) where the jet itself does not."""
        m = self.order
        parts = []
        if m >= 1:
            c1 = c1()
            parts.append(_formed(np.multiply, _bc(c1, 1), self.d1))
        if m >= 2:
            outer11 = self.d1[..., :, None] * self.d1[..., None, :]
            parts.append(_formed(np.multiply, _bc(c2(), 2), outer11)
                         + _formed(np.multiply, _bc(c1, 2), self.d2))
        return Jet(self.dim, m, c0, *parts)

    def __repr__(self):
        return f"Jet(dim={self.dim}, order={self.order}, value={self.value!r})"


# -- elementary functions (accept Jet or plain number) ---------------------


def exp(x):
    if not isinstance(x, Jet):
        return _elem(x, np.exp)
    v = _elem(x.value, np.exp)
    return x._compose(v, lambda: v, lambda: v)


def log(x):
    if not isinstance(x, Jet):
        return _elem(x, _log)
    inv = lambda: 1.0 / x.value
    return x._compose(_elem(x.value, _log), inv, lambda: -(inv() * inv()))


def sqrt(x):
    if not isinstance(x, Jet):
        return _elem(x, _sqrt)
    r = _elem(x.value, _sqrt)
    inv = lambda: 1.0 / x.value
    return x._compose(r, lambda: 0.5 * r * inv(), lambda: -0.25 * r * inv() * inv())


def power(base, exponent):
    """``base ** exponent`` for jets and plain numbers alike.

    Plain numbers follow the domain rule and the rounding of :meth:`Jet.__pow__`,
    so a negative base under a fractional exponent raises UndefinedValueError
    instead of giving a complex number, and a number rounds as a jet's value does.
    """
    if not isinstance(base, Jet) and not isinstance(exponent, Jet):
        return _power(_require_power_base(base, exponent), exponent)
    return base ** exponent


def sin(x):
    if not isinstance(x, Jet):
        return _elem(x, np.sin)
    s = _elem(x.value, np.sin)
    return x._compose(s, lambda: _elem(x.value, np.cos), lambda: -s)


def cos(x):
    if not isinstance(x, Jet):
        return _elem(x, np.cos)
    c = _elem(x.value, np.cos)
    return x._compose(c, lambda: -_elem(x.value, np.sin), lambda: -c)


def seed(coords, order):
    """Variable jets, one per chart coordinate, at one point or a batch.

    ``coords`` of shape ``(n,)`` gives float64 scalar values (batch shape
    ``()``); shape ``(P, n)`` gives values of shape ``(P,)``, one row per point.
    The derivative parts are read-only: variable ``i`` has row ``i`` of one
    identity block as its first derivative, and all share one zero block;
    both blocks are repeated over the batch axes.
    """
    x = np.asarray(coords, dtype=float)
    n = x.shape[-1]
    batch = x.shape[:-1]
    eye = np.zeros((n,) + batch + (n,))
    for i in range(n):
        eye[i, ..., i] = 1.0
    zeros = np.zeros(batch + (n, n))
    eye.flags.writeable = zeros.flags.writeable = False
    return [Jet(n, order, c, *(eye[i], zeros)[:order]) for i, c in enumerate(x.T)]


def constant_at(value, coords, order):
    """The constant jet of ``value`` (a number or a component array) at ``coords``.

    Its value axes are the batch axes of ``coords`` followed by the axes of
    ``value``; one point with a plain number gives a float64 scalar value.
    """
    value = np.full(np.shape(coords)[:-1] + np.shape(value), value, dtype=float)
    return Jet.constant(value[()], np.shape(coords)[-1], order)


# -- finite-difference jets for black-box callables ------------------------


def finite_difference_jet(fn, coords, order, max_steps=None):
    """Jet of a black-box callable, via fourth-order central differences.

    ``fn`` may return a float or an ndarray; array values give a jet whose
    derivative axes trail the value axes, i.e. the jet of a whole tensor
    field in one pass.  Each axis takes one step, h_i = eps^(1/4) max(1, |x_i|),
    or ``max_steps(x)[i]`` where that is smaller (a domain keeps the stencil
    off its faces so):
    the first and the diagonal second partial along i share the values at
    x +- h_i e_i and x +- 2 h_i e_i, and a mixed partial differences along j
    at those four points, so an order-2 jet makes 1 + 8n^2 - 4n calls.  Each
    symmetric pair of values is differenced before it is weighted, so a
    constant gives exactly zero derivatives however large it is, and every
    mixed partial is mirrored across index permutations.

    ``fn`` takes one point, so a ``(P, n)`` batch of ``coords`` is
    differenced row by row and the row jets are stacked on a leading axis.
    """
    if not 0 <= order <= MAX_ORDER:
        raise UnsupportedOrderError(f"finite-difference order must be in [0, {MAX_ORDER}]")
    x = np.asarray(coords, dtype=float)
    if x.ndim == 2:
        rows = [finite_difference_jet(fn, row, order, max_steps) for row in x]
        parts = [np.stack([j.deriv(k) for j in rows]) for k in range(order + 1)]
        return Jet(x.shape[1], order, *parts)
    n = x.size
    f0 = np.asarray(fn(x.copy()), dtype=float)
    jet = Jet.constant(f0[()], n, order)
    steps = [_EPS ** 0.25 * max(1.0, abs(c)) for c in x]
    if max_steps is not None:
        steps = [min(h, float(cap)) for h, cap in zip(steps, max_steps(x))]

    def pairs(g, point, i):
        """g at point +- k h_i e_i for k = 1, 2, as two symmetric pairs."""
        def moved(d):
            p = point.copy()
            p[i] += d
            return g(p)
        return [(moved(k * steps[i]), moved(-k * steps[i])) for k in (1, 2)]

    def slope(values):
        """The first-derivative stencil on two symmetric pairs, times 12 h; the
        leading 0.0, here and in a second partial, keeps a zero from being -0.0."""
        (up1, down1), (up2, down2) = values
        return 0.0 + 8.0 * (up1 - down1) - (up2 - down2)

    for i in range(n) if order else ():
        (up1, down1), (up2, down2) = values = pairs(fn, x, i)
        h = steps[i]
        jet.d1[..., i] = slope(values) / (12.0 * h)
        if order == 2:
            jet.d2[..., i, i] = 1.0 / (12.0 * h ** 2) * (
                0.0 + 16.0 * ((up1 - f0) + (down1 - f0)) - ((up2 - f0) + (down2 - f0)))
        for j in range(i + 1, n) if order == 2 else ():
            mixed = slope(pairs(lambda point: slope(pairs(fn, point, j)), x, i))
            jet.d2[..., i, j] = jet.d2[..., j, i] = 1.0 / (12.0 * h) / (12.0 * steps[j]) * mixed
    return jet
