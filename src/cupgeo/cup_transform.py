"""Conformal-projective rescalings of a model and their predicted effects.

A rescaling is generated by a scalar potential: the conformal factor is
eta = exp(-alpha * potential) and the covector field psi is the potential's
exact differential.  Parameterizing by the potential (rather than by eta
directly) makes the defining constraint d(log eta) = -alpha * psi and the
exactness of psi hold by construction, which removes every invalid-input
case except a chart mismatch.

Applying a rescaling scales the metric by eta and shifts the skewness by
the symmetrized metric/psi product before the same scaling.  At alpha = 0
the factor degenerates to eta = 1 while psi still deforms the skewness;
all shift predictions carry an alpha prefactor, so they vanish there
consistently.

The three closed-form shift predictions (connection, curvature, Ricci) are
the module's substance: each one is checked elsewhere against direct
recomputation on the rescaled model.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import ConfigError, UnsupportedOrderError
from .manifolds import ManifoldModel, _mirror_sorted
from .tensor_core import CONTRA, COV, ScalarField, Tensor, as_coords, field_jet
from .geometry import NonlinearCoupling, _hessian, _real, point_geometry, ricci_reconstruction


@dataclass(frozen=True)
class WeightedDensity:
    """A scalar field tagged with its rescaling weight r."""

    f: ScalarField
    r: float


def _source(field):
    return getattr(field, "source", type(field).__name__)


class CupRescaling:
    """alpha, the generating potential, and the derived eta and psi."""

    def __init__(self, alpha, potential):
        if not isinstance(potential, ScalarField):
            raise ConfigError(
                f"rescaling potential must be a scalar field, got {type(potential).__name__}"
            )
        self.alpha = float(alpha)
        if not np.isfinite(self.alpha):
            raise ConfigError(f"alpha must be finite, got {alpha}")
        self.potential = potential
        self.dim = potential.dim
        self._last = None

    def _jets(self, coords, order):
        """The potential's jet and eta's jet at ``coords``, to ``order`` or higher.

        Both are kept for the most recently asked coordinates, at the highest
        order computed there so far: the fields of a rescaled model evaluate
        the potential once per grid.
        """
        key = (np.shape(coords), np.asarray(coords, dtype=float).tobytes())
        if self._last is None or self._last[0] != key or self._last[1].order < order:
            phi = self.potential.jet(coords, order)
            eta = field_jet(f"conformal factor of potential {_source(self.potential)!r}",
                            coords, order, lambda: jets.exp((-self.alpha) * phi))
            self._last = (key, phi, eta)
        return self._last[1:]

    def eta_jet(self, coords, order):
        eta = self._jets(coords, order)[1]
        if eta.order == order:
            return eta
        # truncation is exact: a jet's lower parts never read its higher ones
        return jets.Jet(eta.dim, order, *(eta.deriv(k) for k in range(order + 1)))

    def eta(self, p):
        """eta at one point (a float) or at each row of a batch (an array)."""
        return _real(self.eta_jet(as_coords(p), 0).value)

    def psi_jet(self, coords, order):
        """Array jet of psi = d(potential); order m consumes potential order m+1."""
        if order + 1 > jets.MAX_ORDER:
            raise UnsupportedOrderError(
                f"psi jets available to order {jets.MAX_ORDER - 1}, requested {order}"
            )
        phi = self._jets(coords, order + 1)[0]  # any higher order goes unread
        parts = [phi.deriv(k) for k in range(2, order + 2)]
        return jets.Jet(phi.dim, order, phi.d1, *parts)

    def psi(self, p):
        return Tensor(self.dim, (COV,), self.psi_jet(as_coords(p), 0).value)


def make_rescaling(alpha, potential):
    return CupRescaling(alpha, potential)


def parse_rescaling(config_text, model):
    """Rescaling from JSON: {"alpha": number, "potential": expression}."""
    try:
        data = json.loads(config_text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"rescaling config is not valid JSON: {e}") from None
    if not isinstance(data, dict) or "alpha" not in data or "potential" not in data:
        raise ConfigError('rescaling config needs "alpha" and "potential" fields')
    try:
        alpha = float(data["alpha"])
    except (TypeError, ValueError):
        raise ConfigError(f"alpha must be a number, got {data['alpha']!r}") from None
    if not isinstance(data["potential"], str):
        raise ConfigError("potential must be an expression string")
    return CupRescaling(alpha, model.scalar_field(data["potential"]))


# -- transformed fields -----------------------------------------------------


class _ScaledMetricField:
    mode = "jet"

    def __init__(self, base, resc):
        self.base = base
        self.resc = resc
        self.dim = base.dim

    def jet(self, coords, order):
        return field_jet(f"rescaled metric of potential {_source(self.resc.potential)!r}",
                         coords, order, self._jet, coords, order)

    def _jet(self, coords, order):
        return self.resc.eta_jet(coords, order).expand(2) * self.base.jet(coords, order)


class _ShiftedSkewnessField:
    """eta * (t + weight * sym(g (x) psi)), assembled at the jet level.

    ``weight`` exists only to let the verification suite run its
    wrong-normalization negative control; the defining transformation has
    weight 1.
    """

    mode = "jet"

    def __init__(self, model, resc, weight):
        self.model = model
        self.resc = resc
        self.weight = weight
        self.dim = model.dim

    def jet(self, coords, order):
        return field_jet(f"rescaled skewness of potential {_source(self.resc.potential)!r}",
                         coords, order, self._jet, coords, order)

    def _jet(self, coords, order):
        gj = self.model.metric.jet(coords, order)
        tj = self.model.skewness.jet(coords, order)
        sym = symmetric_g_psi(gj, self.resc.psi_jet(coords, order))
        if self.weight != 1.0:
            sym = self.weight * sym
        return self.resc.eta_jet(coords, order).expand(3) * (tj + sym)


def symmetric_g_psi(gj, psi):
    """Jet of the symmetric 3-tensor g_ij psi_k + g_jk psi_i + g_ki psi_j.

    ``gj`` and ``psi`` are array-valued jets of a metric and a covector over
    the same batch axes.  The product g_ij psi_k is formed for every index
    at once and summed over the three cyclic permutations of its component
    axes; the entry of each sorted index class (i <= j <= k) is then copied
    into every permutation of it, so the result is bitwise symmetric.

    The three-term cyclic sum is deliberately unnormalized: it is the unique
    weight for which the conformal change of the Levi-Civita connection and
    the skewness correction cancel their g_ij-proportional parts, making the
    predicted connection shift hold identically.
    """
    b = np.ndim(gj.value) - 2
    prod = gj.map(lambda a: np.expand_dims(a, b + 2)) * psi.map(
        lambda a: np.expand_dims(a, (b, b + 1)))
    # (g psi)_jki and (g psi)_kij at [i, j, k]
    total = (prod + prod.map(lambda a: np.moveaxis(a, b + 2, b))
             + prod.map(lambda a: np.moveaxis(a, b, b + 2)))
    return total.map(lambda a: _mirror_sorted(a, rank=3, lead=b))


class _PoweredScaleField(ScalarField):
    """eta^power * base, the transformation rule shared by densities
    (power = r) and couplings (power = -a)."""

    def __init__(self, base, resc, power):
        self.base = base
        self.resc = resc
        self.power = float(power)
        self.dim = base.dim
        self.domain = base.domain
        self.mode = base.mode

    def jet(self, coords, order):
        return field_jet(f"eta^{self.power:g} times field {_source(self.base)!r}",
                         coords, order, self._jet, coords, order)

    def _jet(self, coords, order):
        factor = self.resc.eta_jet(coords, order) ** self.power
        return factor * self.base.jet(coords, order)


def _check_chart(model, resc):
    if resc.dim != model.dim:
        raise ConfigError(
            f"chart mismatch: rescaling potential has {resc.dim} coordinates, "
            f"model {model.name!r} has {model.dim}"
        )
    pot_names = getattr(resc.potential, "coord_names", None)
    if pot_names is not None and tuple(pot_names) != model.coord_names:
        raise ConfigError(
            f"chart mismatch: potential is written in {list(pot_names)}, "
            f"model uses {list(model.coord_names)}"
        )


def rescaled_model(model, resc, sym_weight=1.0):
    """The model carrying g-tilde = eta g and the shifted, rescaled skewness."""
    _check_chart(model, resc)
    mode = "fd" if (model.mode == "fd" or getattr(resc.potential, "mode", "jet") == "fd") else "jet"
    return ManifoldModel(
        dim=model.dim,
        coord_names=model.coord_names,
        metric=_ScaledMetricField(model.metric, resc),
        skewness=_ShiftedSkewnessField(model, resc, sym_weight),
        domain=model.domain,
        name=f"{model.name}~rescaled",
        mode=mode,
    )


def transform_density(d, resc):
    """f-tilde = eta^r f, keeping the weight tag."""
    return WeightedDensity(_PoweredScaleField(d.f, resc, d.r), d.r)


def transform_coupling(c, resc):
    """lam-tilde = lam / eta^a, keeping the exponent."""
    return NonlinearCoupling(_PoweredScaleField(c.lam, resc, -c.a), c.a)


# -- closed-form shift predictions ------------------------------------------


def connection_shift_prediction(resc, p):
    """Predicted Gamma-tilde minus Gamma: -alpha (delta^k_i psi_j + delta^k_j psi_i).

    Independent of the model: the metric-derivative and skewness-shift
    contributions to the rescaled connection cancel except for these two
    soldering terms.
    """
    psi = resc.psi(p).components
    n = resc.dim
    eye = np.eye(n)
    comps = -resc.alpha * (
        np.einsum("ki,...j->...kij", eye, psi) + np.einsum("kj,...i->...kij", eye, psi)
    )
    return Tensor(n, (CONTRA, COV, COV), comps)


def _psi_shift_core(model, resc, p):
    """M_ij = (nabla^alpha psi)_ij + alpha psi_i psi_j on the base model."""
    _check_chart(model, resc)
    ws = point_geometry(model, resc.alpha, p)
    # psi = d(potential), so nabla psi is the Hessian of the potential
    phi = resc._jets(ws.p, 2)[0]
    return _hessian(ws, phi) + resc.alpha * np.einsum("...i,...j->...ij", phi.d1, phi.d1)


def ricci_shift_prediction(model, resc, p):
    """Predicted Ric-tilde minus Ric: (n-1) alpha (nabla psi + alpha psi psi)."""
    m = _psi_shift_core(model, resc, p)
    return Tensor(model.dim, (COV, COV), (model.dim - 1) * resc.alpha * m)


def curvature_shift_prediction(model, resc, p):
    """Predicted Riem-tilde minus Riem: alpha (delta^i_k M_lj - delta^i_l M_kj).

    The delta-slot insertions of the psi-shift core M, i.e. the Ricci
    reconstruction of M transposed; its first/third-slot trace is the
    Ricci prediction.
    """
    m = _psi_shift_core(model, resc, p)
    comps = ricci_reconstruction(np.swapaxes(m, -1, -2), resc.alpha)
    return Tensor(model.dim, (CONTRA, COV, COV, COV), comps)
