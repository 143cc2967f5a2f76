"""Connections, curvature, and the scalar operators built from them.

Index conventions, fixed once: Christoffel components are stored as
Gamma[k, i, j] = Gamma^k_ij (upper slot first); metric jets carry their
derivative axes trailing, dg[i, j, k] = d_k g_ij; the curvature tensor is
R[i, j, k, l] = R^i_jkl with

    R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj
              + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj

and the Ricci tensor contracts the first against the third slot,
Ric_jl = R^k_jkl.  Derivatives of Gamma are assembled by the product rule
from metric and skewness jets, so the same code path serves exact-jet and
finite-difference models.

All functions are pure.  Each takes one point or a ``(P, n)`` batch of
points: a batch adds one leading axis to every array and every returned
tensor (component axes follow it, derivative axes trail as above), and a
scalar result becomes an array of shape ``(P,)``.  One point keeps batch
shape ``()`` and returns plain floats.  ``alpha`` is a float, or for a
batch a ``(P,)`` array of one alpha per row (see :func:`require_alpha`):
alpha is then a batch axis like the points, and each row comes out bit for
bit as a call at its own float alpha would give it, so one call can carry
a grid tiled under several alphas.  A :class:`PointGeometry` instance
caches the intermediate arrays for one (model, alpha, points) triple, and
:func:`point_geometry` shares one instance between every call with the same
triple: each model keeps the geometry of its last request, keyed by the
shape and bytes of the alpha (a float or an array alike) and of the
coordinates, as each field keeps its last jet.  Sharing is sound because
models are immutable and their fields pure; the shared arrays are
read-only, so a caller cannot alter what a later call returns.  A grid is
checked once, when its geometry is built: a model keeps only a geometry
that passed, so a hit needs no check.  Each operator evaluates
its density and coupling at the coordinates of its geometry.

A connection, curvature or operator value that is not finite (an overflow
at a huge alpha, coupling k or exponent a) raises :class:`EvaluationError`
naming the quantity, its parameters and the first offending point; an
alpha array is named by that point's alpha.
"""

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DimensionMismatchError, DomainError, EvaluationError
from .jets import _bc, constant_at
from .tensor_core import (
    Field,
    Tensor,
    _all_of,
    _any_of,
    _readonly,
    _real,
    as_coords,
    first_false,
    invert_metric,
    point_text,
    require_real,
    require_scalar,
)


def require_alpha(alpha, x=None):
    """``alpha`` as a float (see :func:`require_real`), or a ``(P,)`` ndarray as a
    read-only float array of finite entries, one per row of the batch ``x`` if given.

    Anything else is a ConfigError naming the first offending entry; rows that
    do not match ``x`` are a DimensionMismatchError.
    """
    if type(alpha) is not np.ndarray:
        return require_real(alpha, "alpha")
    if alpha.ndim != 1 or alpha.dtype.kind not in "iuf":
        raise ConfigError(f"alpha must be a real number or a (P,) array of them, "
                          f"got an array of shape {alpha.shape} and dtype {alpha.dtype}")
    alpha = alpha.astype(float)
    finite = np.isfinite(alpha)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ConfigError(f"alpha must be finite, got {alpha[row]} (row {row})")
    if x is not None:
        _per_row(alpha, x)
    return _readonly(alpha)


def _per_row(alpha, x):
    """Raise DimensionMismatchError unless a checked ``alpha`` is a float or has one
    entry per row of the batch ``x``."""
    if type(alpha) is not float and alpha.shape != np.shape(x)[:-1]:
        raise DimensionMismatchError(f"alpha has shape {alpha.shape}, one entry per row "
                                     f"of points of shape {np.shape(x)} needs {np.shape(x)[:-1]}")


def _finite(value, quantity, x, **params):
    """``value`` if it is finite, else an EvaluationError naming ``quantity``,
    ``params`` and the first offending point of ``x``; a per-row parameter (an
    alpha array) is named by its entry at that point.

    Callers compute ``value`` under ``np.errstate(all="ignore")``: an
    overflow arrives here as inf or nan, not as a numpy warning.
    """
    finite = np.isfinite(value)
    if _all_of(finite):
        return value
    row = first_false(finite, x)
    at = ", ".join(f"{name} = {v[row] if np.ndim(v) else v:g}" for name, v in params.items())
    raise EvaluationError(f"{quantity} is not finite at {point_text(x, row)}; {at}")


def _transposed(a, *axes):
    """A view of ``a`` with its trailing axes reordered as ``axes`` (negative,
    counted from the end) and its batch axes left in front: the single-operand
    ``np.einsum("...ijm->...mij", a)`` is ``_transposed(a, -1, -3, -2)``."""
    return a.transpose(*range(a.ndim - len(axes)), *axes)


def _shifted(base, alpha, term):
    """``base - (alpha/2) * term()``, row by row for an alpha array.

    A row at alpha = 0 keeps ``base``, not a product with zero: its term (a
    skewness product that overflowed to inf, say) cannot make it nan, and a
    -0.0 in ``base`` keeps its sign.  A float alpha holds for every row, so
    its shift is one product; an array selects row by row.  When no row has
    a nonzero alpha, ``term`` is not called.
    """
    if type(alpha) is float:
        return base if alpha == 0.0 else base - 0.5 * alpha * term()
    if not np.count_nonzero(alpha):
        return base
    alpha = _bc(alpha, np.ndim(base) - 1)
    return np.where(alpha == 0.0, base, base - 0.5 * alpha * term())


@dataclass(frozen=True)
class CurvaturePack:
    """Riemann R^i_jkl, Ricci Ric_jl and scalar curvature, as :func:`curvature` gives them."""

    riemann: Tensor
    ricci: Tensor
    scalar: float


@dataclass(frozen=True)
class HessianSpec:
    """Coupling of the Ricci term added to the second covariant derivative."""

    k: float

    def __post_init__(self):
        object.__setattr__(self, "k", require_real(self.k, "Ricci coupling k"))


@dataclass(frozen=True)
class NonlinearCoupling:
    """Zeroth-order coupling lam * f^a; the exponent must be nonzero.

    ``lam`` is a scalar :class:`~cupgeo.tensor_core.Field` or a finite number.
    """

    lam: Field
    a: float

    def __post_init__(self):
        object.__setattr__(self, "a", require_real(self.a, "nonlinearity exponent a"))
        if self.a == 0:
            raise ConfigError("nonlinearity exponent a must be nonzero")


class _stage(cached_property):
    """A geometry stage: a :class:`functools.cached_property` whose first access
    computes and stores the value without the lock that Python 3.11's takes
    on every first access.  Two threads reading one new stage at once may
    both compute it; the stages are pure, so both store the same value."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class PointGeometry:
    """Lazily computed geometric data of one model at one point or a batch.

    Construction is the one place where points are checked: every point
    against the model domain, then ``alpha`` (a float, or one per row of a
    batch) for finiteness.  It keeps a read-only copy of the coordinates as
    ``p`` (shape ``(n,)`` or ``(P, n)``), the checked ``alpha``, and each
    stage it has computed: the metric and skewness jets its fields hand out,
    then every array below, each computed at most once per instance, on
    first access, and read-only.  One point runs the same stage code as a
    batch, and gives bit for bit row 0 of its one-row batch; at a float alpha
    the skewness shift is one product, not a select by alpha.  Each
    construction is a fresh instance: the operators share instances through
    :func:`point_geometry` instead.

    The instance holds the model's metric and skewness fields, not the
    model, so the geometry a model keeps forms no reference cycle.
    """

    def __init__(self, model, alpha, p):
        self._metric = model.metric
        self._skewness = model.skewness
        self.p = _readonly(np.array(model.require_inside(p)))
        self.alpha = require_alpha(alpha, self.p)

    @_stage
    def _gjet(self):
        return self._metric.jet(self.p, 2)  # its parts are read-only

    @_stage
    def _tjet(self):
        return self._skewness.jet(self.p, 1)

    @property
    def g(self):
        return self._gjet.value

    @property
    def dg(self):
        return self._gjet.d1

    @property
    def d2g(self):
        return self._gjet.d2

    @property
    def t(self):
        return self._tjet.value

    @property
    def dt(self):
        return self._tjet.d1

    @_stage
    def ginv(self):
        return _readonly(invert_metric(self.g, at=self.p))

    @_stage
    def dginv(self):
        # d_l g^{ab} = -g^{am} (d_l g_{mq}) g^{qb}
        return _readonly(-np.einsum("...am,...mql,...qb->...abl", self.ginv, self.dg, self.ginv))

    @_stage
    def _lowered(self):
        # A[m, i, j] = (1/2)(d_i g_{jm} + d_j g_{im} - d_m g_{ij})
        dg = self.dg
        return _readonly(0.5 * (
            _transposed(dg, -2, -1, -3) + _transposed(dg, -2, -3, -1)
            - _transposed(dg, -1, -3, -2)
        ))

    @_stage
    def gamma0(self):
        return _readonly(np.einsum("...km,...mij->...kij", self.ginv, self._lowered))

    @_stage
    def skew_mixed(self):
        # (t . g^{-1})^k_{ij} = t_{ijm} g^{mk}
        return _readonly(np.einsum("...ijm,...mk->...kij", self.t, self.ginv))

    @_stage
    @np.errstate(all="ignore")
    def gamma(self):
        gamma = _shifted(self.gamma0, self.alpha, lambda: self.skew_mixed)
        return _readonly(_finite(gamma, "alpha-connection", self.p, alpha=self.alpha))

    @_stage
    @np.errstate(all="ignore")
    def dgamma(self):
        # d_l of gamma, by the product rule on g^{-1}, the lowered symbol,
        # and the skewness correction
        d2g = self.d2g
        dA = 0.5 * (
            _transposed(d2g, -3, -2, -4, -1) + _transposed(d2g, -3, -4, -2, -1)
            - _transposed(d2g, -2, -4, -3, -1)
        )
        out = np.einsum("...kml,...mij->...kijl", self.dginv, self._lowered)
        out += np.einsum("...km,...mijl->...kijl", self.ginv, dA)

        def dskew():
            dskew = np.einsum("...ijml,...mk->...kijl", self.dt, self.ginv)
            dskew += np.einsum("...ijm,...mkl->...kijl", self.t, self.dginv)
            return dskew

        return _readonly(_shifted(out, self.alpha, dskew))

    @_stage
    @np.errstate(all="ignore")
    def riemann(self):
        dG = self.dgamma
        curl = _transposed(dG, -4, -2, -1, -3) - _transposed(dG, -4, -2, -3, -1)
        quad = np.einsum("...ikm,...mlj->...ijkl", self.gamma, self.gamma)
        quad = quad - np.swapaxes(quad, -1, -2)
        return _readonly(_finite(curl + quad, "curvature", self.p, alpha=self.alpha))

    @_stage
    def ricci(self):
        ricci = np.einsum("...kjkl->...jl", self.riemann)
        return _readonly(_finite(ricci, "Ricci curvature", self.p, alpha=self.alpha))

    @_stage
    def scalar(self):
        scalar = _real(np.einsum("...jl,...jl->...", self.ginv, self.ricci))
        return _readonly(_finite(scalar, "scalar curvature", self.p, alpha=self.alpha))


def point_geometry(model, alpha, p):
    """The shared :class:`PointGeometry` of ``model`` at ``alpha`` and ``p``.

    The model keeps the instance of its last request and returns it when the
    same ``alpha`` and coordinates (the shape and bytes of each) are asked
    for again; any other request builds a new instance, which checks the
    points and ``alpha``, and keeps it in place of the old one.  A float64
    array is looked up as it is, points and alphas alike: only a checked
    request is kept, so equal shapes and bytes are the same valid values,
    and an invalid array misses, fails its build and leaves the kept
    geometry in place.  Other points go through :func:`as_coords`; any other
    ``alpha`` is checked by :func:`require_alpha` after the points.
    """
    if type(p) is not np.ndarray or p.dtype != np.float64:
        p = as_coords(p)
    if type(alpha) is not float and (type(alpha) is not np.ndarray
                                     or alpha.dtype != np.float64):
        model.require_inside(p)
        alpha = require_alpha(alpha, p)
    key = (np.shape(alpha), np.asarray(alpha).tobytes(), p.shape, p.tobytes())
    if model._kept_geometry[0] != key:
        model._kept_geometry = (key, PointGeometry(model, alpha, p))
    return model._kept_geometry[1]


# -- connections ------------------------------------------------------------


def alpha_connection(model, alpha, p):
    """The skewness-shifted connection: Gamma^0 - (alpha/2) t . g^{-1}, with
    components Gamma[..., k, i, j] = Gamma^k_ij."""
    return Tensor(point_geometry(model, alpha, p).gamma)


def covariant_derivative_metric(model, alpha, p):
    """(nabla g)_{kij} = d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il.

    All three slots are lower; slot 0 is the differentiation direction.
    Equals alpha times the skewness tensor for every model that honors the
    metric/skewness pairing.
    """
    ws = point_geometry(model, alpha, p)
    comps = _transposed(ws.dg, -1, -3, -2)
    comps = comps - np.einsum("...lki,...lj->...kij", ws.gamma, ws.g)
    comps = comps - np.einsum("...lkj,...il->...kij", ws.gamma, ws.g)
    return Tensor(comps)


# -- curvature --------------------------------------------------------------


def riemann(model, alpha, p):
    """The curvature of the alpha-connection, components R[..., i, j, k, l] = R^i_jkl."""
    return Tensor(point_geometry(model, alpha, p).riemann)


def ricci(model, alpha, p):
    """The Ricci tensor Ric_jl = R^k_jkl, both slots lower: components Ric[..., j, l]."""
    return Tensor(point_geometry(model, alpha, p).ricci)


def scalar_curvature(model, alpha, p):
    return point_geometry(model, alpha, p).scalar


def curvature(model, alpha, p):
    """Riemann, Ricci, and scalar curvature in one evaluation: R^i_jkl and Ric_jl,
    placed as :func:`riemann` and :func:`ricci` place them."""
    ws = point_geometry(model, alpha, p)
    return CurvaturePack(riemann=Tensor(ws.riemann), ricci=Tensor(ws.ricci), scalar=ws.scalar)


# -- scalar operators -------------------------------------------------------


def _require_chart(field, model, what):
    """Raise ConfigError unless ``field`` is a scalar field with ``model``'s dimension
    and coordinate names."""
    require_scalar(field, what)
    names = field.coord_names
    if field.dim != model.dim or (names is not None and tuple(names) != model.coord_names):
        chart = f"{field.dim} coordinates" if names is None else list(names)
        raise ConfigError(f"chart mismatch: {what} is written in {chart}, "
                          f"model {model.name!r} uses {list(model.coord_names)}")


def _constant(f, what):
    """A number ``f`` (not a bool) as a float, a ConfigError unless finite; else None."""
    if isinstance(f, bool) or not isinstance(f, numbers.Real):
        return None
    return require_real(f, what)


def _field_jet(f, model, x, order, what="density"):
    """The jet of a density or coupling ``f`` at ``x``, coordinates checked against ``model``.

    A finite number is the constant field of that value; anything else must
    be a scalar :class:`~cupgeo.tensor_core.Field` written in the model's chart.
    """
    value = _constant(f, what)
    if value is not None:
        return constant_at(value, x, order)
    _require_chart(f, model, what)
    return f.jet(x, order)


def _hessian(ws, fj):
    """Second covariant derivative d_i d_j f - Gamma^k_ij d_k f of the order-2 jet ``fj``."""
    return fj.d2 - np.einsum("...kij,...k->...ij", ws.gamma, fj.d1)


def _laplacian(ws, fj):
    """Divergence-form Laplacian d_i(g^{ij} d_j f) + Gamma^i_im g^{mj} d_j f of ``fj``."""
    out = np.einsum("...ij,...ij->...", ws.ginv, fj.d2)
    out = out + np.einsum("...iji,...j->...", ws.dginv, fj.d1)
    return out + np.einsum("...iim,...mj,...j->...", ws.gamma, ws.ginv, fj.d1)


def _ricci_coupling(dim):
    if dim < 2:
        raise DimensionMismatchError(
            "the Ricci coupling 1/(n-1) is undefined on a 1-dimensional model"
        )
    return 1.0 / (dim - 1)


def modified_hessian(model, alpha, spec, f, p):
    """The Hessian with its curvature correction: (nabla d)f + k Ric f, both slots lower.

    The Ricci term multiplies the evaluated density: this operator action is
    the one whose rescaling behavior is exactly conformal of weight one.
    """
    k = spec.k if isinstance(spec, HessianSpec) else require_real(spec, "Ricci coupling k")
    ws = point_geometry(model, alpha, p)
    fj = _field_jet(f, model, ws.p, 2)
    with np.errstate(all="ignore"):
        comps = _hessian(ws, fj)
        if k != 0.0:
            comps = comps + k * ws.ricci * _bc(fj.value, 2)
    return Tensor(_finite(comps, "Ricci-coupled Hessian", ws.p, alpha=ws.alpha, k=k))


def _cup_trace(ws, k, fj):
    """The trace operator at coupling ``k`` on ``fj``, the order-2 density jet."""
    return np.einsum("...ij,...ij->...", ws.ginv, _hessian(ws, fj)) + k * ws.scalar * fj.value


def cup_laplacian(model, alpha, f, p):
    """Metric trace of the curvature-corrected Hessian at k = 1/(n-1)."""
    k = _ricci_coupling(model.dim)
    ws = point_geometry(model, alpha, p)
    fj = _field_jet(f, model, ws.p, 2)
    with np.errstate(all="ignore"):
        out = _cup_trace(ws, k, fj)
    return _real(_finite(out, "trace operator", ws.p, alpha=ws.alpha))


def cup_laplacian_decomposed(model, alpha, f, p):
    """The trace operator reassembled from its three advertised pieces.

    Divergence-form Laplacian, plus alpha times the skewness drift
    t_{abm} g^{ab} g^{mk} d_k f, plus the scalar-curvature term.  Agreement
    with :func:`cup_laplacian` is a structural consistency check: the two
    routes share no intermediate beyond the metric jets.
    """
    k = _ricci_coupling(model.dim)
    ws = point_geometry(model, alpha, p)
    fj = _field_jet(f, model, ws.p, 2)
    with np.errstate(all="ignore"):
        out = _laplacian(ws, fj)
        out = out + ws.alpha * np.einsum("...abm,...ab,...mk,...k->...",
                                         ws.t, ws.ginv, ws.ginv, fj.d1)
        out = out + k * ws.scalar * fj.value
    return _real(_finite(out, "decomposed trace operator", ws.p, alpha=ws.alpha))


def nonlinear_cup_operator(model, alpha, f, coupling, p):
    """cup_laplacian(f) plus the zeroth-order term lam(p) * f(p)^a."""
    k = _ricci_coupling(model.dim)
    ws = point_geometry(model, alpha, p)
    x = ws.p
    fj = _field_jet(f, model, x, 2)
    fval = fj.value
    lam = _field_jet(coupling.lam, model, x, 0, "coupling").value
    a = coupling.a
    if not a.is_integer() and _any_of(fval < 0.0):
        row = first_false(np.greater_equal(fval, 0.0), x)
        raise DomainError(
            f"density value {np.reshape(fval, -1)[row]} is negative at {point_text(x, row)}; "
            f"exponent {a} needs a positive base"
        )
    if a < 0.0 and _any_of(fval == 0.0):
        row = first_false(np.not_equal(fval, 0.0), x)
        raise DomainError(f"density vanishes at {point_text(x, row)}; exponent {a} is negative")
    with np.errstate(all="ignore"):
        out = _cup_trace(ws, k, fj) + lam * fval ** a
    return _real(_finite(out, "nonlinear operator", x, alpha=ws.alpha, a=a))


def ricci_reconstruction(ric, k):
    """The curvature a Ricci tensor predicts: k (delta^i_k Ric_jl - delta^i_l Ric_jk).

    ``ric`` holds Ric_jl components with any leading batch axes, and ``k`` is
    a number or one per batch row; the result has components R[..., i, j, k, l].
    """
    eye = np.eye(np.shape(ric)[-1])
    return _bc(k, 4) * (np.einsum("ik,...jl->...ijkl", eye, ric)
                        - np.einsum("il,...jk->...ijkl", eye, ric))
