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

A rescaling's alpha is a float or a ``(P,)`` array of one alpha per batch
row.  Everything here is row-wise in alpha (eta, the transformed fields, the
rescaled model, the predictions), so one rescaling can carry a grid tiled
under several alphas, each row computed as at its own float alpha; such a
rescaling takes only batches of P points.

The three closed-form shift predictions (connection, curvature, Ricci) are
the module's substance: each one is checked elsewhere against direct
recomputation on the rescaled model.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import ConfigError, UnsupportedOrderError
from .manifolds import ManifoldModel
from .jets import _bc
from .tensor_core import (Field, Tensor, _mirror_sorted, _real, as_coords, require_real,
                          require_scalar)
from .geometry import (NonlinearCoupling, _constant, _hessian, _per_row, _require_chart,
                       point_geometry, require_alpha, ricci_reconstruction)


@dataclass(frozen=True)
class WeightedDensity:
    """A scalar field tagged with its rescaling weight r, a finite number."""

    f: Field
    r: float

    def __post_init__(self):
        object.__setattr__(self, "r", require_real(self.r, "density weight r"))


class _RuleField(Field):
    """A field of rank ``rank`` whose jet is ``rule(coords, order)``, computed from the
    fields ``reads``: written on the chart (dimension, coordinate names) of the
    first, and "fd" when any of them is.  The rule computes each row of a batch
    from that row's own inputs (its alpha and its potential block included), so
    a failing batch is not run again: its first row holding an entry that is
    not finite is the failing one."""

    _rerun = False

    def __init__(self, label, rank, rule, *reads):
        self.label, self.rank, self.rule = label, rank, rule
        self.dim, self.coord_names = reads[0].dim, reads[0].coord_names
        self.mode = "fd" if any(f.mode == "fd" for f in reads) else "jet"

    def _jet(self, coords, order):
        return self.rule(coords, order)


class CupRescaling:
    """alpha, the generating potential, and the derived eta and psi.

    ``alpha`` is a float, or a ``(P,)`` array of one alpha per row: such a
    rescaling, and every field and model it drives, is evaluated only on
    batches of P points, and each row gets eta = exp(-alpha * potential) at
    its own alpha.
    """

    def __init__(self, alpha, potential):
        require_scalar(potential, "rescaling potential")
        self.alpha = require_alpha(alpha)
        self.potential = potential
        self.dim = potential.dim
        rate = -self.alpha
        self._eta = _RuleField(f"conformal factor of potential {potential.label}", 0,
                               lambda coords, order: jets.exp(rate * potential.jet(coords, order)),
                               potential)

    def eta_jet(self, coords, order):
        _per_row(self.alpha, coords)
        return self._eta.jet(coords, order)

    def eta(self, p):
        """eta at one point (a float) or at each row of a batch (an array)."""
        return _real(self.eta_jet(as_coords(p), 0).value)

    def psi_jet(self, coords, order):
        """Array jet of psi = d(potential); order m consumes potential order m+1."""
        if order + 1 > jets.MAX_ORDER:
            raise UnsupportedOrderError(
                f"psi jets available to order {jets.MAX_ORDER - 1}, requested {order}"
            )
        phi = self.potential.jet(coords, order + 1)
        parts = [phi.deriv(k) for k in range(2, order + 2)]
        return jets.Jet(phi.dim, order, phi.d1, *parts)

    def psi(self, p):
        """The covector psi_i = d_i(potential), one lower slot: components psi[..., i]."""
        return Tensor(self.psi_jet(as_coords(p), 0).value)


def make_rescaling(alpha, potential):
    return CupRescaling(alpha, potential)


def parse_rescaling(config_text, model):
    """Rescaling from JSON: {"alpha": number, "potential": expression}."""
    try:
        data = json.loads(config_text)
    except ValueError as e:  # a JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"rescaling config is not valid JSON: {e}") from None
    if not isinstance(data, dict) or "alpha" not in data or "potential" not in data:
        raise ConfigError('rescaling config needs "alpha" and "potential" fields')
    alpha = require_real(data["alpha"], "alpha")
    if not isinstance(data["potential"], str):
        raise ConfigError("potential must be an expression string")
    return CupRescaling(alpha, model.scalar_field(data["potential"]))


# -- transformed fields -----------------------------------------------------


def symmetric_g_psi(gj, psi):
    """Jet of the symmetric 3-tensor g_ij psi_k + g_jk psi_i + g_ki psi_j.

    ``gj`` and ``psi`` are array-valued jets of a metric and a covector over
    the same batch axes.  The product g_ij psi_k is formed for every index
    at once, from ``reshape`` views of both parts, and summed over the three
    cyclic permutations of its component axes, taken as ``transpose`` views;
    the entry of each sorted index class (i <= j <= k) is then copied into
    every permutation of it through the one memoised index per (n, 3) of
    :func:`~cupgeo.tensor_core._mirror_sorted`, so the result is bitwise
    symmetric.

    The three-term cyclic sum is deliberately unnormalized: it is the unique
    weight for which the conformal change of the Levi-Civita connection and
    the skewness correction cancel their g_ij-proportional parts, making the
    predicted connection shift hold identically.
    """
    b = np.ndim(gj.value) - 2
    prod = (gj.map(lambda a: a.reshape(a.shape[:b + 2] + (1,) + a.shape[b + 2:]))
            * psi.map(lambda a: a.reshape(a.shape[:b] + (1, 1) + a.shape[b:])))
    lead = tuple(range(b))

    def turned(*axes):  # the component axes in the order ``axes``, the others kept
        return lambda a: a.transpose(lead + axes + tuple(range(b + 3, a.ndim)))

    # (g psi)_jki and (g psi)_kij at [i, j, k]
    total = prod + prod.map(turned(b + 2, b, b + 1)) + prod.map(turned(b + 1, b + 2, b))
    return total.map(lambda a: _mirror_sorted(a, rank=3, lead=b))


def rescaled_model(model, resc, sym_weight=1.0):
    """The model carrying g-tilde = eta g and the shifted, rescaled skewness
    eta * (t + sym_weight * sym(g (x) psi)).  A ``sym_weight`` other than 1
    exists only for the verification suite's wrong-normalization control."""
    _require_chart(resc.potential, model, "rescaling potential")
    sym_weight = require_real(sym_weight, "sym_weight")

    def skewness(coords, order):
        gj = model.metric.jet(coords, order)
        tj = model.skewness.jet(coords, order)
        sym = symmetric_g_psi(gj, resc.psi_jet(coords, order))
        if sym_weight != 1.0:  # a product by 1.0 is bitwise the identity
            sym = sym_weight * sym
        return resc.eta_jet(coords, order).expand(3) * (tj + sym)

    of = f"of potential {resc.potential.label}"
    return ManifoldModel(
        coord_names=model.coord_names,
        metric=_RuleField(f"rescaled metric {of}", 2,
                          lambda c, o: resc.eta_jet(c, o).expand(2) * model.metric.jet(c, o),
                          model.metric, resc.potential),
        skewness=_RuleField(f"rescaled skewness {of}", 3, skewness,
                            model.skewness, model.metric, resc.potential),
        domain=model.domain,
        name=f"{model.name}~rescaled",
    )


def _powered(base, resc, power, what):
    """eta^power * base, the rule shared by densities (power = r) and couplings
    (power = -a); a finite number ``base`` is the constant field of its value."""
    value = _constant(base, what)
    if value is None:
        require_scalar(base, what)
        reads, label, base_jet = (base, resc.potential), base.label, base.jet
    else:
        reads, label = (resc.potential,), value
        base_jet = lambda c, o: jets.constant_at(value, c, o)
    return _RuleField(f"eta^{power:g} times {label}", 0,
                      lambda c, o: resc.eta_jet(c, o) ** power * base_jet(c, o), *reads)


def transform_density(d, resc):
    """f-tilde = eta^r f, keeping the weight tag; f may be a finite number."""
    return WeightedDensity(_powered(d.f, resc, d.r, "density"), d.r)


def transform_coupling(c, resc):
    """lam-tilde = lam / eta^a, keeping the exponent; lam may be a finite number."""
    return NonlinearCoupling(_powered(c.lam, resc, -c.a, "coupling"), c.a)


# -- closed-form shift predictions ------------------------------------------


def connection_shift_prediction(resc, p):
    """Predicted Gamma-tilde minus Gamma: -alpha (delta^k_i psi_j + delta^k_j psi_i),
    placed as the connection is, components [..., k, i, j].

    Independent of the model: the metric-derivative and skewness-shift
    contributions to the rescaled connection cancel except for these two
    soldering terms.
    """
    x = as_coords(p)
    _per_row(resc.alpha, x)
    psi = resc.psi(x).components
    eye = np.eye(resc.dim)
    return Tensor(_bc(-resc.alpha, 3) * (
        np.einsum("ki,...j->...kij", eye, psi) + np.einsum("kj,...i->...kij", eye, psi)
    ))


def _psi_shift_core(model, resc, p):
    """M_ij = (nabla^alpha psi)_ij + alpha psi_i psi_j on the base model."""
    _require_chart(resc.potential, model, "rescaling potential")
    ws = point_geometry(model, resc.alpha, p)
    # psi = d(potential), so nabla psi is the Hessian of the potential
    phi = resc.potential.jet(ws.p, 2)
    return _hessian(ws, phi) + _bc(resc.alpha, 2) * np.einsum("...i,...j->...ij", phi.d1, phi.d1)


def ricci_shift_prediction(model, resc, p):
    """Predicted Ric-tilde minus Ric: (n-1) alpha (nabla psi + alpha psi psi), both slots lower."""
    m = _psi_shift_core(model, resc, p)
    return Tensor(_bc((model.dim - 1) * resc.alpha, 2) * m)


def curvature_shift_prediction(model, resc, p):
    """Predicted Riem-tilde minus Riem: alpha (delta^i_k M_lj - delta^i_l M_kj),
    placed as the curvature is, components [..., i, j, k, l].

    The delta-slot insertions of the psi-shift core M, i.e. the Ricci
    reconstruction of M transposed; its first/third-slot trace is the
    Ricci prediction.
    """
    m = _psi_shift_core(model, resc, p)
    return Tensor(ricci_reconstruction(np.swapaxes(m, -1, -2), resc.alpha))
