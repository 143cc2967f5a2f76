"""Statistical-manifold models: metric and skewness fields on a chart.

A model bundles the Fisher metric g, the third-moment skewness tensor t,
coordinate names, and a domain predicate.  Three sources are supported:

* built-in closed forms (Gaussian location-scale, multinomial simplex,
  flat Euclidean test chart), shipped as parsed expressions so that they
  differentiate exactly as a user config does;
* user configs in JSON, one expression per independent tensor component;
* black-box callables, differentiated by finite differences.

Every field here is a :class:`~cupgeo.tensor_core.Field`, evaluated and
checked through its one ``jet``.  An expression field compiles to one
program, whose jets come from its unrolled straight-line code
(:meth:`cupgeo.expr.Program.jet_parts`); a tensor field's jet is
array-valued: ``.value`` has the batch axes of the points (none for one
point) followed by the component axes, and each derivative axis trails
them, ready for the geometry layer's contractions.  Component symmetry
holds bitwise: the program has one output per distinct entry and one for
zero, and every component is gathered from its class's output through one
index table.  A failing tensor field names its first failing component.

The Monte-Carlo oracle (:func:`estimate_fisher_tensors`) derives g and t
from score moments of a sampled log-likelihood, independently of the closed
forms, with componentwise standard errors.
"""

import json
import math
import re
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import expr, jets
from .errors import ConfigError, CupGeoError, DomainError, EvaluationError
from .tensor_core import (
    Field,
    NumericField,
    Point,
    Tensor,
    _mirror_sorted,
    as_coords,
    field_jet,
    first_false,
    point_text,
    require_integer,
)

DOMAIN_MARGIN = 1e-6
FD_FACE_DIVISOR = 40  # a finite-difference step is at most 1/40 of the distance to the nearest face
MAX_DIM = 32  # the cost of building and evaluating a model grows steeply with its dimension
MC_BATCH_SIZE = 16_384  # continuous-family samples drawn and reduced at a time by the MC oracle

_MAX_COUNT = int(np.iinfo(np.int64).max)
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Domain:
    """Open box bounds per coordinate, optionally cut by the unit simplex.

    Points closer than :data:`DOMAIN_MARGIN` to any face are rejected:
    curvature quantities blow up at the boundary, so extrapolation there is
    refused rather than attempted.
    """

    bounds: tuple
    simplex: bool = False

    def __post_init__(self):
        # the faces, and the faces pulled in by the margin that every row is compared against
        lo = np.array([-np.inf if lo is None else lo for lo, _ in self.bounds], dtype=float)
        hi = np.array([np.inf if hi is None else hi for _, hi in self.bounds], dtype=float)
        object.__setattr__(self, "_faces", (lo, hi))
        object.__setattr__(self, "_lo", lo + DOMAIN_MARGIN)
        object.__setattr__(self, "_hi", hi - DOMAIN_MARGIN)

    def contains(self, p):
        """Whether one point lies inside; for a ``(P, n)`` batch, one bool per row."""
        x = np.asarray(p, dtype=float)
        if x.shape[-1] != len(self.bounds):
            inside = np.zeros(x.shape[:-1], dtype=bool)
        else:
            inside = ((x >= self._lo) & (x <= self._hi)).all(axis=-1)
            if self.simplex:
                inside &= x.sum(axis=-1) <= 1.0 - DOMAIN_MARGIN
        return inside if inside.ndim else bool(inside)

    def max_steps(self, x):
        """The largest finite-difference step along each axis at the point ``x``
        inside: 1/:data:`FD_FACE_DIVISOR` of the distance to the nearest face
        along that axis (a box bound, or for a simplex the face where the
        coordinates sum to 1), so the stencil, which reaches two steps along
        an axis, stays well inside.  Unbounded axes give inf."""
        lo, hi = self._faces
        distance = np.minimum(x - lo, hi - x)
        if self.simplex:
            distance = np.minimum(distance, 1.0 - x.sum())
        return distance / FD_FACE_DIVISOR


def unbounded_domain(dim):
    return Domain(((None, None),) * dim)


# -- fields -----------------------------------------------------------------


def _chart_expression(source, coord_names):
    """``source`` parsed; a ConfigError unless it is a string naming only chart coordinates."""
    if not isinstance(source, str):
        raise ConfigError(f"expression source must be a string, got {source!r}")
    parsed = expr.Expression(source)
    unknown = parsed.variables - set(coord_names)
    if unknown:
        raise ConfigError(
            f"unknown identifier(s) {sorted(unknown)} in {source!r}; "
            f"chart coordinates are {list(coord_names)}"
        )
    return parsed


class ExprTensorField(Field):
    """Fully covariant, index-symmetric components given as expressions.

    ``entries`` maps a sorted index tuple (one representative per symmetry
    class, 0-based) to a parsed :class:`~cupgeo.expr.Expression` over the
    chart coordinates; unlisted components are zero.  The entries share one
    :class:`~cupgeo.expr.Program`, with one output per distinct ``Expression``,
    so a common subtree is computed once.
    """

    def __init__(self, rank, coord_names, entries):
        self.rank = rank
        self.coord_names = tuple(coord_names)
        self.dim = len(self.coord_names)
        self.label = f"rank-{rank} tensor field"
        self.entries = dict(entries)
        # one output per distinct expression and a last one, zero, for the unlisted components
        output = {e: r for r, e in enumerate(dict.fromkeys(self.entries.values()))}
        self.program = expr.Program([e.ast for e in output] + [expr.parse("0")])
        # each sorted index holds its entry's output, mirrored into its permutations
        rows = np.full((self.dim,) * rank, len(output))
        for index, e in self.entries.items():
            rows[index] = output[e]
        self._rows = _mirror_sorted(rows)

    def jet(self, coords, order):
        try:
            return super().jet(coords, order)
        except (EvaluationError, DomainError):
            # checked once as a whole; on failure, name the first failing component
            for index, expression in self.entries.items():
                field_jet(f"component {index} ({expression.source!r})", coords, order,
                          lambda c, o: expression(dict(zip(self.coord_names, jets.seed(c, o)))))
            raise

    def _jet(self, coords, order):
        parts = self.program.jet_parts(self.coord_names, coords, order)
        axis = np.ndim(coords) - 1
        return jets.Jet(self.dim, order, *(p.take(self._rows, axis=axis) for p in parts))


class ExprScalarField(Field):
    """A scalar field parsed from an expression over named coordinates."""

    def __init__(self, source, coord_names):
        self.expression = _chart_expression(source, coord_names)
        self.coord_names = tuple(coord_names)
        self.dim = len(self.coord_names)
        self.label = f"field {source!r}"

    def _jet(self, coords, order):
        parts = self.expression.program.jet_parts(self.coord_names, coords, order)
        axis = np.ndim(coords) - 1
        return jets.Jet(self.dim, order, *(p.take(0, axis=axis) for p in parts))


# -- models -----------------------------------------------------------------


@dataclass(frozen=True)
class SampleSpec:
    """Inputs for the Monte-Carlo tensor oracle.

    ``support`` is None for a family of continuous samples, whose
    ``sampler(point, size, rng)`` draws ``size`` samples along a leading
    axis.  For a finite family it is the category count k, and the sampler
    returns how often each category 0 to k-1 occurs in ``size`` draws: an
    integer array of shape ``(k,)`` summing to ``size``.
    ``log_likelihood(samples, coord_jets)`` must broadcast over a leading
    sample axis and be differentiable in the coordinate jets; a finite
    family's takes integer category indices, and the oracle calls it once,
    on the categories drawn.  ``count`` is at most the largest int64, the
    most draws one count can hold.
    """

    log_likelihood: object
    sampler: object
    count: int
    seed: int = 0
    support: object = None

    def __post_init__(self):
        object.__setattr__(self, "count",
                           require_integer(self.count, "sample count", 1, _MAX_COUNT))
        object.__setattr__(self, "seed", require_integer(self.seed, "sample seed", 0))
        if self.support is not None:
            object.__setattr__(self, "support",
                               require_integer(self.support, "sample support", 1))


class ManifoldModel:
    """Coordinates, metric field, skewness field, domain; ``dim`` counts the coordinates.

    Immutable after construction; evaluations are pure.  ``mode`` records
    how derivatives are obtained ("jet" exact, "fd" finite differences, when
    either field is "fd"), which downstream tolerance defaults key off.
    ``sampling`` is None or the ``(log_likelihood, sampler, support)`` of its
    sample specs (see :class:`SampleSpec`).

    Purity is a contract, not only a property of the built-in models: the
    model keeps the geometry of its last (alpha, points) request to
    :func:`cupgeo.geometry.point_geometry`, and each field keeps its last
    jet, so a repeated request returns what the first computed.  Replacing
    a field of a model, or giving a ``NumericField`` or ``FuncField`` (as
    :func:`model_from_callables` does) a callable whose output changes
    between calls, would make those answers stale.
    """

    _kept_geometry = (None, None)

    def __init__(self, coord_names, metric, skewness, domain, name="model", sampling=None):
        self.coord_names = tuple(coord_names)
        self.dim = require_integer(len(self.coord_names), "model dimension", 1, MAX_DIM)
        self.metric = metric
        self.skewness = skewness
        self.domain = domain
        self.name = name
        self.mode = "fd" if "fd" in (metric.mode, skewness.mode) else "jet"
        self.sampling = sampling

    def require_inside(self, p):
        """Validated coordinates of one point, or of every row of a ``(P, n)`` batch.

        The first row outside the domain is named in the DomainError.
        """
        x = as_coords(p)
        if x.shape[-1] != self.dim:
            raise DomainError(
                f"point {point_text(x)} has {x.shape[-1]} coordinates, "
                f"model {self.name!r} has {self.dim}"
            )
        inside = self.domain.contains(x)
        if inside is not True and not np.all(inside):
            raise DomainError(f"point {point_text(x, first_false(inside, x))} "
                              f"outside the domain of model {self.name!r}")
        return x

    def metric_jet(self, p, order):
        return self.metric.jet(self.require_inside(p), order)

    def skewness_jet(self, p, order):
        return self.skewness.jet(self.require_inside(p), order)

    def metric_at(self, p):
        """The metric g_ij, both slots lower: components g[..., i, j]."""
        return Tensor(self.metric_jet(p, 0).value)

    def skewness_at(self, p):
        """The skewness tensor t_ijk, all three slots lower: components t[..., i, j, k]."""
        return Tensor(self.skewness_jet(p, 0).value)

    def scalar_field(self, source):
        """Parse an expression in this model's coordinates."""
        return ExprScalarField(source, self.coord_names)

    def sample_spec(self, count, seed=0):
        """A :class:`SampleSpec` whose sampler first checks the point against this model."""
        if self.sampling is None:
            raise ConfigError(f"model {self.name!r} has no sampling rule attached")
        log_likelihood, sampler, support = self.sampling

        def sample_inside(point, size, rng):
            self.require_inside(point)
            return sampler(point, size, rng)

        return SampleSpec(log_likelihood, sample_inside, count, seed, support)


# -- built-in families ------------------------------------------------------


def _expr_entries(raw, rank, coord_names, what):
    """Parse {"ij": source} into {sorted 0-based tuple: Expression}.

    Keys are 1-based index strings, one digit per slot (comma-separated for
    dimensions above 9).  A listed component propagates to all permutations;
    two keys landing in the same symmetry class with different expressions
    conflict.  Each distinct source text is parsed once, and its entries
    share the one ``Expression``.
    """
    dim = len(coord_names)
    entries, parsed = {}, {}
    for key, source in raw.items():
        digits = key.split(",") if "," in key else list(key)
        if len(digits) != rank:
            raise ConfigError(f"{what} key {key!r} must have {rank} indices")
        try:
            index = tuple(int(d) - 1 for d in digits)
        except ValueError:
            raise ConfigError(f"{what} key {key!r} is not an index tuple") from None
        if not all(0 <= i < dim for i in index):
            raise ConfigError(f"{what} key {key!r} out of range for dimension {dim}")
        rep = tuple(sorted(index))
        if not isinstance(source, str):
            raise ConfigError(f"{what} entry {key!r} must be an expression string")
        if rep in entries:
            if entries[rep].source != source:
                raise ConfigError(
                    f"conflicting {what} entries for symmetry class {rep}: "
                    f"{entries[rep].source!r} vs {source!r}"
                )
            continue
        if source not in parsed:
            try:
                parsed[source] = _chart_expression(source, coord_names)
            except CupGeoError as e:
                raise ConfigError(f"{what} entry {key!r}: {e}") from e
        entries[rep] = parsed[source]
    return entries


def _canonical_key(index):
    if any(i > 8 for i in index):
        return ",".join(str(i + 1) for i in index)
    return "".join(str(i + 1) for i in index)


def _expr_model(name, coord_names, metric_raw, skewness_raw, domain, sampling=None):
    metric = _expr_entries(metric_raw, 2, coord_names, "metric")
    skewness = _expr_entries(skewness_raw, 3, coord_names, "skewness")
    return ManifoldModel(
        coord_names=coord_names,
        metric=ExprTensorField(2, coord_names, metric),
        skewness=ExprTensorField(3, coord_names, skewness),
        domain=domain,
        name=name,
        sampling=sampling,
    )


_LOG_2PI = math.log(2.0 * math.pi)


def _gaussian_sampler(point, size, rng):
    """Deviations ``sigma * z`` from the mean: a sample ``mu + sigma * z`` would
    round to the precision of mu, and lose its deviation where |mu| >> sigma."""
    d = rng.standard_normal(size)
    with np.errstate(over="ignore"):  # reported as a non-finite score
        d *= point[1]
    return d


def _gaussian_log_likelihood(d, coord_jets):
    mu, sigma = coord_jets
    # the point-level terms are combined before they meet the batch, and z
    # is squared in one chain-rule pass, not by the product rule's three
    z = (d + (mu.value - mu)) * (1.0 / sigma)
    return -0.5 * z ** 2 - (jets.log(sigma) + 0.5 * _LOG_2PI)


def gaussian_model():
    """The two-parameter Gaussian family in (mean, scale) coordinates.

    Closed forms are the classical score moments: g = diag(1/s^2, 2/s^2)
    and the only nonzero skewness classes t_(mean,mean,scale) = 2/s^3,
    t_(scale,scale,scale) = 8/s^3.
    """
    return _expr_model(
        "gaussian",
        ("mu", "sigma"),
        {"11": "1/sigma^2", "22": "2/sigma^2"},
        {"112": "2/sigma^3", "222": "8/sigma^3"},
        Domain(((None, None), (0.0, None))),
        sampling=(_gaussian_log_likelihood, _gaussian_sampler, None),
    )


def multinomial_model(k):
    """The k-category discrete family on the open probability simplex.

    Coordinates are the first k-1 cell probabilities; the score moments give
    g_ij = kron_ij/p_i + 1/p_last and t_ijk = kron_ijk/p_i^2 - 1/p_last^2
    with p_last = 1 - sum of the others.  Its sampler returns the k category
    counts of ``size`` draws, one Multinomial(size, p) draw; its
    log-likelihood takes category indices.
    """
    k = require_integer(k, "multinomial category count k", -math.inf)  # bounded by its dimension
    n = require_integer(k - 1, f"the dimension of multinomial:{k}", 1, MAX_DIM)
    coords = tuple(f"p{i + 1}" for i in range(n))
    rest = "(1 - " + " - ".join(coords) + ")"
    metric = {}
    for i in range(n):
        for j in range(i, n):
            key = _canonical_key((i, j))
            metric[key] = f"1/{coords[i]} + 1/{rest}" if i == j else f"1/{rest}"
    skewness = {}
    for index in combinations_with_replacement(range(n), 3):
        key = _canonical_key(index)
        if index[0] == index[2]:
            skewness[key] = f"1/{coords[index[0]]}^2 - 1/{rest}^2"
        else:
            skewness[key] = f"-1/{rest}^2"

    def sampler(point, size, rng):
        return rng.multinomial(size, list(point.coords) + [1.0 - sum(point.coords)])

    def log_likelihood(cat, coord_jets):
        # each part of the k log-jets, stacked on a trailing axis, is gathered
        # there by category and that axis moved to the front: batch-innermost
        p_last = 1.0 - sum(coord_jets[1:], coord_jets[0])
        logs = [jets.log(p) for p in (*coord_jets, p_last)]
        order = p_last.order
        return jets.Jet(n, order, *(
            np.moveaxis(np.take(np.stack([log.deriv(d) for log in logs], -1), cat, -1), -1, 0)
            for d in range(order + 1)))

    return _expr_model(
        f"multinomial:{k}",
        coords,
        metric,
        skewness,
        Domain(((0.0, 1.0),) * n, simplex=True),
        sampling=(log_likelihood, sampler, k),
    )


_EUCLIDEAN_NAMES = ("x", "y", "z", "w")


def euclidean_model(dim=2):
    """Flat test chart: identity metric, zero skewness, no boundary."""
    dim = require_integer(dim, "euclidean dimension", 1, MAX_DIM)
    if dim <= len(_EUCLIDEAN_NAMES):
        coords = _EUCLIDEAN_NAMES[:dim]
    else:
        coords = tuple(f"x{i + 1}" for i in range(dim))
    metric = {_canonical_key((i, i)): "1" for i in range(dim)}
    return _expr_model(f"euclidean:{dim}", coords, metric, {}, unbounded_domain(dim))


# -- Monte-Carlo oracle -----------------------------------------------------


@dataclass(frozen=True)
class FisherEstimate:
    """Score-moment estimates with componentwise standard errors.

    ``metric`` estimates g_ij and ``skewness`` t_ijk, every slot lower, placed
    as :meth:`ManifoldModel.metric_at` and :meth:`ManifoldModel.skewness_at`
    place them; ``metric_se`` and ``skewness_se`` match their components.
    """

    metric: Tensor
    skewness: Tensor
    metric_se: np.ndarray
    skewness_se: np.ndarray
    count: int

    @property
    def se_reliable(self):
        """False for one sample, whose variance is undefined (the error arrays are NaN)."""
        return self.count >= 2


def _score(spec, point, coord_jets, samples, size):
    """The score of ``size`` samples at ``point``, transposed to ``(n, size)``.

    The jets lay a batch's score out sample-innermost, so the transpose is
    a C-contiguous view and each of its rows one run of memory.
    """
    n = len(point)
    with np.errstate(all="ignore"):  # a non-finite score is reported below
        try:
            ll = spec.log_likelihood(samples, coord_jets)
        except ValueError as e:  # jets whose shapes do not broadcast, say
            raise EvaluationError(f"log-likelihood failed on a sample batch: {e}") from None
    if not isinstance(ll, jets.Jet):
        raise EvaluationError("log-likelihood did not propagate coordinate jets")
    score = np.asarray(ll.d1, dtype=float)
    if score.shape != (size, n):
        raise EvaluationError(
            f"score batch has shape {score.shape}, expected {(size, n)}"
        )
    if not np.all(np.isfinite(score)):
        raise EvaluationError(f"non-finite log-likelihood derivatives at {point.coords}")
    return score.T


def _category_counts(counts, support, size):
    """A finite family's sampler output, checked to count ``size`` draws of the
    ``support`` categories."""
    counts = np.asarray(counts)
    if counts.shape != (support,) or counts.dtype.kind not in "iu":
        got = f"an array of {counts.dtype} with shape {counts.shape}"
    elif counts.min() < 0:
        got = f"a count of {counts.min()}"
    elif (total := sum(counts.tolist())) != size:  # Python ints: a wrapped sum cannot pass
        got = f"counts summing to {total}"
    else:
        return counts
    raise EvaluationError(f"sampler returned {got}, not the counts of {size} draws "
                          f"of the support 0 to {support - 1}")


def _moment_sums(s, weights=None):
    """Score-product sums over the columns of the score ``s``, shaped ``(n, size)``.

    Returns the sums of s_i s_j, (s_i s_j)^2, s_i s_j s_k and
    (s_i s_j s_k)^2 as ``(n, n)``, ``(n, n)``, ``(n, n, n)`` and
    ``(n, n, n)`` arrays, each column counted ``weights[c]`` times (once
    each for ``weights=None``).  Every sum forms only the sorted index
    classes, i <= j and i <= j <= k: for each leading index i, rows ``i:``
    scaled by the weighted row i are written into a slice of one reused
    ``(n, size)`` buffer.  Its row sums fill the pair sums ``[i, i:]``, and
    the buffer times rows ``i:`` fills the triple sums ``[i, i:, i:]``, so
    BLAS does that summing, reading one run of memory per row.  No array is
    multiplied by its own transpose: numpy sends such a product to BLAS's
    symmetric rank-k update (syrk), which at n = 2 and 16 384 columns takes
    about five times as long as a general product.  With no weights the
    score itself stands for the weighted one, so weighted and unweighted
    sums take one path, and unit weights give their bits.  The other
    entries stay zero;
    :func:`~cupgeo.tensor_core._mirror_sorted` reads only the sorted ones.
    """
    n, size = s.shape
    sq = s * s
    ws, wsq = (s, sq) if weights is None else (s * weights, sq * weights)
    buffer = np.empty((n, size))
    pair, pair_sq = np.zeros((n, n)), np.zeros((n, n))
    triple, triple_sq = np.zeros((n, n, n)), np.zeros((n, n, n))
    for i in range(n):
        scaled = buffer[:n - i]
        np.multiply(s[i:], ws[i], out=scaled)
        pair[i, i:] = scaled.sum(axis=1)
        triple[i, i:, i:] = scaled @ s[i:].T
        np.multiply(sq[i:], wsq[i], out=scaled)
        pair_sq[i, i:] = scaled.sum(axis=1)
        triple_sq[i, i:, i:] = scaled @ sq[i:].T
    return pair, pair_sq, triple, triple_sq


def estimate_fisher_tensors(spec, p):
    """Sample-mean estimates of the score-moment tensors at ``p``.

    g is estimated by the mean of score outer products, t by the mean of
    score triple products; both converge at the usual count^(-1/2) rate.
    A continuous family (``spec.support`` None) draws its samples
    :data:`MC_BATCH_SIZE` at a time, so peak memory scales with the batch
    size times the dimension, not with the count, and reduces each batch as
    it is drawn: the batch adds its sums of score products and of their
    squares, formed by :func:`_moment_sums` (the pair sums as row sums of
    the products the triple sums already form, not as a product of the
    score with its own transpose, which numpy hands to a slower BLAS
    routine), and its jets and score are freed before the next one is
    drawn.  The block is cache-sized: a jet
    part of a batch takes 128 KiB per derivative slot, so the jet
    arithmetic and the products reread it from the processor's cache, not
    from main memory.  The Gaussian sampler draws the same stream in blocks
    as in one call, so the block size moves its estimates only in the last
    bits, by the order of summation.  A finite family's sampler is called
    once, with ``size`` the whole count, and returns the count of each
    category (see :class:`SampleSpec`): the multinomial's costs O(support),
    not O(count).  The sums over the samples are the sums over the drawn
    categories, each weighted by its count, so the log-likelihood and
    :func:`_moment_sums` run once, on at most ``support`` rows, and the
    block size does not enter.  The triple sums are formed only for the
    sorted index classes (i <= j <= k), about a third of the n^3 products at
    high dimension; every total keeps that one representative per class,
    mirrored into every permutation, so the estimates and both
    standard-error arrays are bitwise symmetric.  Fixed seed implies
    identical estimates.
    """
    point = Point(p)
    n = len(point)
    rng = np.random.default_rng(spec.seed)
    coord_jets = jets.seed(point.coords, 1)
    # pair sum, pair squares, triple sum, triple squares
    sums = [np.zeros((n,) * rank) for rank in (2, 2, 3, 3)]

    def add(samples, size, weights=None):
        score = _score(spec, point, coord_jets, samples, size)
        for total, part in zip(sums, _moment_sums(score, weights)):
            total += part

    count = spec.count
    if spec.support is None:
        for start in range(0, count, MC_BATCH_SIZE):
            size = min(MC_BATCH_SIZE, count - start)
            add(spec.sampler(point, size, rng), size)
    else:
        counts = _category_counts(spec.sampler(point, count, rng), spec.support, count)
        drawn = np.flatnonzero(counts)
        add(drawn, drawn.size, counts[drawn])

    def finish(total, total_sq):
        total, total_sq = _mirror_sorted(total), _mirror_sorted(total_sq)
        mean = total / count
        if count < 2:
            return mean, np.full_like(mean, np.nan)
        var = np.maximum(total_sq - count * mean * mean, 0.0) / (count - 1)
        return mean, np.sqrt(var / count)

    g_est, g_se = finish(*sums[:2])
    t_est, t_se = finish(*sums[2:])
    return FisherEstimate(
        metric=Tensor(g_est),
        skewness=Tensor(t_est),
        metric_se=g_se,
        skewness_se=t_se,
        count=count,
    )


# -- model configs ----------------------------------------------------------


def parse_model(config_text):
    """Build a model from a JSON config.

    Schema: ``dim`` (an integer from 1 to :data:`MAX_DIM`), ``coords`` (list
    of identifiers), ``metric`` (map "ij" -> expression), ``skewness`` (map
    "ijk" -> expression, optional), ``domain`` (map coordinate -> [low, high]
    of finite numbers, low < high, with null for unbounded, plus an optional
    boolean "simplex" flag).  Unlisted tensor components are zero; listed
    ones propagate to all index permutations.
    """
    try:
        data = json.loads(config_text)
    except ValueError as e:  # a JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"model config is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError("model config must be a JSON object")
    try:
        dim = data["dim"]
        coords = data["coords"]
        metric_raw = data["metric"]
    except KeyError as e:
        raise ConfigError(f"model config missing field {e.args[0]!r}") from None
    dim = require_integer(dim, "dim", 1, MAX_DIM)
    if (not isinstance(coords, list) or len(coords) != dim
            or not all(isinstance(c, str) and _IDENT.match(c) for c in coords)):
        raise ConfigError(f"coords must be {dim} identifier strings")
    if len(set(coords)) != dim:
        raise ConfigError("coordinate names must be distinct")
    if "simplex" in coords:
        raise ConfigError('"simplex" is reserved and cannot name a coordinate')
    if not isinstance(metric_raw, dict):
        raise ConfigError("metric must be a map of index keys to expressions")
    skewness_raw = data.get("skewness", {})
    if not isinstance(skewness_raw, dict):
        raise ConfigError("skewness must be a map of index keys to expressions")

    bounds = [(None, None)] * dim
    simplex = False
    domain_raw = data.get("domain", {})
    if not isinstance(domain_raw, dict):
        raise ConfigError("domain must be a map of coordinate names to bounds")
    for key, val in domain_raw.items():
        if key == "simplex":
            if not isinstance(val, bool):
                raise ConfigError(f'domain "simplex" must be true or false, got {val!r}')
            simplex = val
            continue
        if key not in coords:
            raise ConfigError(f"domain mentions unknown coordinate {key!r}")
        if (not isinstance(val, list) or len(val) != 2
                or not all(b is None or type(b) in (int, float) and abs(b) <= sys.float_info.max
                           for b in val)
                or None not in val and not val[0] < val[1]):
            raise ConfigError(f"domain bounds for {key!r} must be a [low, high] pair of "
                              f"null or finite numbers with low < high, got {val!r}")
        bounds[coords.index(key)] = tuple(None if b is None else float(b) for b in val)

    return _expr_model(
        str(data.get("name", "custom")),
        tuple(coords),
        metric_raw,
        skewness_raw,
        Domain(tuple(bounds), simplex=simplex),
    )


def model_from_callables(dim, coord_names, metric_fn, skewness_fn, domain=None, name="callable"):
    """Wrap black-box component callables as a finite-difference model.

    The callables must be pure: the same point always gives the same
    components, since the model's geometry is computed once per point.
    Both fields keep their stencils inside ``domain`` (see
    :meth:`Domain.max_steps`).
    """
    dim = require_integer(dim, "model dimension", 1, MAX_DIM)
    if len(coord_names) != dim:
        raise ConfigError(f"{dim} coordinates expected, got {len(coord_names)}")
    domain = domain if domain is not None else unbounded_domain(dim)
    return ManifoldModel(
        coord_names=coord_names,
        metric=NumericField(metric_fn, dim, rank=2, domain=domain),
        skewness=NumericField(skewness_fn, dim, rank=3, domain=domain),
        domain=domain,
        name=name,
    )


_BUILTINS = {
    "gaussian": gaussian_model,
    "euclidean": euclidean_model,
}


def resolve_model(source):
    """A model from a built-in name ("gaussian", "multinomial:3",
    "euclidean:3") or a JSON config file path."""
    base, _, arg = source.partition(":")
    if base == "multinomial":
        try:
            return multinomial_model(int(arg) if arg else 3)
        except ValueError:
            raise ConfigError(f"bad multinomial category count {arg!r}") from None
    if base in _BUILTINS:
        if arg:
            try:
                return _BUILTINS[base](int(arg))
            except (TypeError, ValueError):
                raise ConfigError(f"bad model argument {arg!r} for {base!r}") from None
        return _BUILTINS[base]()
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return parse_model(fh.read())
    except OSError:
        raise ConfigError(
            f"unknown model {source!r}: not a built-in name and not a readable config file"
        ) from None
