"""Model families: closed-form tensors, domains, configs, sampling oracle."""

import functools
import json
import math
import re
from itertools import combinations_with_replacement, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cupgeo import expr, jets, manifolds
from cupgeo.errors import ConfigError, DimensionMismatchError, DomainError, EvaluationError
from cupgeo.manifolds import (
    Domain,
    SampleSpec,
    estimate_fisher_tensors,
    euclidean_model,
    gaussian_model,
    model_from_callables,
    multinomial_model,
    parse_model,
    resolve_model,
)
from cupgeo.tensor_core import Point, _mirror_sorted

from helpers import (
    assert_fully_symmetric,
    gaussian_metric,
    gaussian_skewness,
    mirrored_tensor_jet,
)


def readme_gaussian_config():
    """The Gaussian model config the README shows under "Config files"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return next(block for block in re.findall(r"```json\n(.*?)```", readme, re.S)
                if '"name": "gaussian"' in block)


class TestGaussianFamily:
    def test_metric_at_unit_scale(self):
        g = gaussian_model().metric_at((0.0, 1.0))
        assert np.allclose(g.components, np.diag([1.0, 2.0]), rtol=1e-15)

    def test_metric_ignores_location(self):
        g = gaussian_model().metric_at((5.0, 1.0))
        assert np.allclose(g.components, [[1.0, 0.0], [0.0, 2.0]], rtol=1e-15)

    def test_metric_scale_dependence(self):
        g = gaussian_model().metric_at((0.0, 2.0))
        assert np.allclose(g.components, np.diag([0.25, 0.5]), rtol=1e-15)

    def test_skewness_components(self):
        t = gaussian_model().skewness_at((0.0, 1.0)).components
        assert t[0, 0, 1] == t[0, 1, 0] == t[1, 0, 0] == 2.0
        assert t[1, 1, 1] == 8.0
        assert t[0, 0, 0] == 0.0
        assert t[0, 1, 1] == 0.0

    def test_skewness_scales_as_inverse_cube(self):
        t = gaussian_model().skewness_at((1.0, 0.5)).components
        assert t[0, 0, 1] == pytest.approx(16.0, rel=1e-14)
        assert t[1, 1, 1] == pytest.approx(64.0, rel=1e-14)

    def test_scale_must_be_positive(self):
        m = gaussian_model()
        with pytest.raises(DomainError):
            m.metric_at((0.0, 0.0))
        with pytest.raises(DomainError):
            m.require_inside((0.0, -1.0))

    def test_positive_definite_and_symmetric_on_grid(self):
        m = gaussian_model()
        for mu in np.linspace(-2.0, 2.0, 5):
            for sigma in np.linspace(0.3, 3.0, 5):
                g = m.metric_at((mu, sigma))
                assert np.linalg.eigvalsh(g.components)[0] > 0.0
                assert_fully_symmetric(m.skewness_at((mu, sigma)).components)


class TestMultinomialFamily:
    def test_metric_at_barycenter(self):
        g = multinomial_model(3).metric_at((1 / 3, 1 / 3))
        assert np.allclose(g.components, [[6.0, 3.0], [3.0, 6.0]], rtol=1e-12)

    def test_metric_off_center(self):
        g = multinomial_model(3).metric_at((0.2, 0.3)).components
        assert g[0, 0] == pytest.approx(7.0, rel=1e-14)
        assert g[0, 1] == pytest.approx(2.0, rel=1e-14)
        assert g[1, 1] == pytest.approx(1 / 0.3 + 2.0, rel=1e-14)

    def test_skewness_off_center(self):
        t = multinomial_model(3).skewness_at((0.2, 0.3)).components
        assert t[0, 0, 0] == pytest.approx(1 / 0.04 - 1 / 0.25, rel=1e-13)
        assert t[1, 1, 1] == pytest.approx(1 / 0.09 - 1 / 0.25, rel=1e-13)
        assert t[0, 0, 1] == pytest.approx(-4.0, rel=1e-13)
        assert t[0, 1, 1] == pytest.approx(-4.0, rel=1e-13)

    def test_skewness_vanishes_on_diagonal_at_barycenter(self):
        t = multinomial_model(3).skewness_at((1 / 3, 1 / 3)).components
        assert t[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
        assert t[1, 1, 1] == pytest.approx(0.0, abs=1e-12)
        assert t[0, 0, 1] == pytest.approx(-9.0, rel=1e-12)

    def test_two_categories_reduce_to_bernoulli(self):
        g = multinomial_model(2).metric_at((0.5,))
        assert g.components[0, 0] == pytest.approx(4.0, rel=1e-14)
        g = multinomial_model(2).metric_at((0.2,))
        assert g.components[0, 0] == pytest.approx(1 / 0.2 + 1 / 0.8, rel=1e-14)

    def test_simplex_domain(self):
        m = multinomial_model(3)
        m.require_inside((0.2, 0.3))
        with pytest.raises(DomainError):
            m.require_inside((0.7, 0.4))
        with pytest.raises(DomainError):
            m.require_inside((-0.1, 0.5))
        with pytest.raises(DomainError):
            m.require_inside((0.0, 0.5))

    def test_category_count_validated(self):
        with pytest.raises(ConfigError):
            multinomial_model(1)


class TestEuclideanFamily:
    def test_identity_metric_everywhere(self):
        m = euclidean_model(3)
        assert m.coord_names == ("x", "y", "z")
        g = m.metric_at((4.0, -7.0, 0.1))
        assert np.array_equal(g.components, np.eye(3))
        assert np.array_equal(m.skewness_at((0.0, 0.0, 0.0)).components, np.zeros((3, 3, 3)))


SHARED_SUBTREES = json.dumps({
    "dim": 2, "coords": ["x", "y"],
    "metric": {"11": "exp(x*y) + 1/(1 + y^2)", "12": "0.1*exp(x*y)", "22": "2 + sin(x*y)^2"},
    "skewness": {"111": "x/(1 + y^2)", "112": "sqrt(1 + y^2) - exp(x*y)",
                 "122": "-exp(x*y)", "222": "log(2 + x^2)/(1 + y^2)^3"},
})
COMPILED_MODELS = {
    "gaussian": (gaussian_model(), [(0.3, 1.2), (-1.0, 0.7)]),
    "multinomial:3": (multinomial_model(3), [(0.2, 0.3), (0.5, 0.1)]),
    "multinomial:4": (multinomial_model(4), [(0.2, 0.3, 0.1), (0.1, 0.1, 0.1)]),
    "euclidean:3": (euclidean_model(3), [(0.1, 0.2, 0.3), (-1.0, 0.0, 5.0)]),
    "multinomial:9": (multinomial_model(9), [(0.05,) * 8, (0.1, 0.05) * 4]),
    "shared-subtrees": (parse_model(SHARED_SUBTREES), [(0.3, 0.4), (1.0, -0.5)]),
}


class TestCompiledTensorFields:
    """One shared program per field gives what its entries give one at a time."""

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("name", list(COMPILED_MODELS))
    def test_field_jet_matches_its_entries_mirrored_bitwise(self, name, order):
        model, points = COMPILED_MODELS[name]
        for coords in [np.array(p) for p in points] + [np.array(points)]:
            for field in (model.metric, model.skewness):
                jet = field.jet(coords, order)
                ref = mirrored_tensor_jet(field, coords, order)
                for k in range(order + 1):
                    # the field's unrolled code drops structural zeros that the
                    # jets compute as -0.0: + 0.0 makes every zero positive
                    a, b = jet.deriv(k) + 0.0, ref.deriv(k) + 0.0
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (field.rank, k)

    def test_statement_budget_leaves_dense_programs_to_the_jets(self):
        small = multinomial_model(3).metric
        assert expr._unroll(small.program, small.coord_names, 2) is not None
        # every entry has 528 distinct second partials, through one shared
        # product of all 32 coordinates
        names = [f"x{i + 1}" for i in range(32)]
        chain = "*".join(names)
        dense = parse_model(json.dumps({
            "dim": 32, "coords": names,
            "metric": {f"{i},{i}": f"{i} + sin({chain} + {i})" for i in range(1, 33)}}))
        field = dense.metric
        assert expr._unroll(field.program, field.coord_names, 2) is None
        coords = np.linspace(0.9, 1.1, 32)
        jet, ref = field.jet(coords, 2), mirrored_tensor_jet(field, coords, 2)
        for k in range(3):
            assert jet.deriv(k).tobytes() == ref.deriv(k).tobytes()

    def test_rebuilt_models_share_their_unrolled_code(self):
        first, second = multinomial_model(4).skewness, multinomial_model(4).skewness
        assert first.program is not second.program
        code = expr._unrolled(first.program, first.coord_names, 1)
        assert code is not None
        assert expr._unrolled(second.program, second.coord_names, 1) is code

    def test_entries_share_their_subtrees(self):
        field = multinomial_model(4).skewness
        alone = sum(len(e.program.code) for e in field.entries.values())
        assert len(field.program.code) < alone / 2

    def test_entries_of_one_source_share_one_expression_and_one_output(self):
        model = multinomial_model(33)
        for field, entries in ((model.metric, 528), (model.skewness, 5984)):
            assert len(field.entries) == entries
            assert len(set(map(id, field.entries.values()))) == 33
            assert len(field.program.outputs) == 34  # and one for the unlisted zeros

    def test_a_source_repeated_in_a_config_is_parsed_once(self, monkeypatch):
        sources = []
        parse = expr.parse
        monkeypatch.setattr(expr, "parse", lambda source: sources.append(source) or parse(source))
        field = parse_model(json.dumps({
            "dim": 2, "coords": ["x", "y"],
            "metric": {"11": "1/x", "12": "x*y", "21": "x*y", "22": "1/x"}})).metric
        assert sources.count("1/x") == 1 and sources.count("x*y") == 1
        assert field.entries[(0, 0)] is field.entries[(1, 1)]


class TestDomain:
    def test_margin_keeps_points_off_the_boundary(self):
        d = Domain(((0.0, 1.0),))
        assert d.contains((0.5,))
        assert not d.contains((0.0,))
        assert not d.contains((1.0,))

    def test_unbounded_sides(self):
        d = Domain(((None, 0.0), (None, None)))
        assert d.contains((-5.0, 100.0))
        assert not d.contains((0.5, 0.0))


def _estimate_arrays(est):
    return (est.metric.components, est.metric_se, est.skewness.components, est.skewness_se)


@functools.cache
def _fsum_reference(name, point, count, seed, block):
    """Exactly rounded means and standard errors of the score products.

    The same draws as ``estimate_fisher_tensors``, one row per sample (a
    finite family's counts expanded into as many category indices; ``block``
    is the continuous sampler's block size, None for a finite family), reduced
    with math.fsum for each sorted index tuple and mirrored into its
    permutations, as the estimator mirrors its sums; the symmetry test pins
    that mirror. Maps the rank, 2 or 3, to read-only ``(mean, se)`` arrays.
    """
    spec = resolve_model(name).sample_spec(count=count, seed=seed)
    pt = Point(point)
    rng = np.random.default_rng(seed)
    if block is not None:
        samples = np.concatenate([spec.sampler(pt, min(block, count - start), rng)
                                  for start in range(0, count, block)])
    else:
        samples = np.repeat(np.arange(spec.support), spec.sampler(pt, count, rng))
    assert samples.shape == (count,)
    score = spec.log_likelihood(samples, jets.seed(pt.coords, 1)).d1
    n = len(point)
    refs = {}
    for rank in (2, 3):
        ref_mean = np.zeros((n,) * rank)
        ref_se = np.zeros((n,) * rank)
        for index in combinations_with_replacement(range(n), rank):
            terms = np.prod(score[:, list(index)], axis=1)
            m = math.fsum(terms) / count
            var = (math.fsum(terms * terms) - count * m * m) / (count - 1)
            ref_mean[index] = m
            ref_se[index] = math.sqrt(var / count)
        refs[rank] = tuple(_mirror_sorted(a) for a in (ref_mean, ref_se))
        for a in refs[rank]:
            a.flags.writeable = False
    return refs


def _bernoulli_with_a_bad_category(cat, coord_jets):
    """A Bernoulli log-likelihood in p on categories 0 and 1, with a score of
    inf at category 2."""
    p = coord_jets[0].value
    score = np.array([[1 / p], [-1 / (1 - p)], [np.inf]])[cat]
    return jets.Jet(1, 1, np.zeros(len(cat)), score)


class TestMonteCarloOracle:
    def test_gaussian_estimates_within_three_standard_errors(self):
        m = gaussian_model()
        for point in ((0.0, 1.0), (1.0, 2.0), (-0.5, 0.7)):
            spec = m.sample_spec(count=200_000, seed=31)
            est = estimate_fisher_tensors(spec, point)
            g_ref = m.metric_at(point).components
            t_ref = m.skewness_at(point).components
            assert np.all(np.abs(est.metric.components - g_ref) <= 3 * est.metric_se + 1e-12)
            assert np.all(np.abs(est.skewness.components - t_ref) <= 3 * est.skewness_se + 1e-12)

    @pytest.mark.parametrize("point", [(1e16, 1.0), (1e308, 1.0), (-3e12, 1e-3)])
    def test_gaussian_estimates_hold_where_the_mean_dwarfs_the_scale(self, point):
        # a sample mu + sigma*z used to round to mu, so x - mu lost the deviation
        m = gaussian_model()
        est = estimate_fisher_tensors(m.sample_spec(count=100_000, seed=3), point)
        g_ref = m.metric_at(point).components
        t_ref = m.skewness_at(point).components
        assert np.all(est.metric_se > 0)
        assert np.all(np.abs(est.metric.components - g_ref) <= 5 * est.metric_se)
        assert np.all(np.abs(est.skewness.components - t_ref) <= 5 * est.skewness_se)

    def test_bernoulli_estimates(self):
        m = multinomial_model(2)
        spec = m.sample_spec(count=50_000, seed=3)
        est = estimate_fisher_tensors(spec, (0.5,))
        # squared score is constant at p=1/2, so the metric estimate is exact
        assert est.metric.components[0, 0] == pytest.approx(4.0, abs=1e-12)
        assert est.metric_se[0, 0] == pytest.approx(0.0, abs=1e-12)
        t_ref = m.skewness_at((0.5,)).components
        assert abs(est.skewness.components[0, 0, 0] - t_ref[0, 0, 0]) <= 3 * est.skewness_se[0, 0, 0]

    def test_trinomial_estimates(self):
        m = multinomial_model(3)
        spec = m.sample_spec(count=150_000, seed=12)
        est = estimate_fisher_tensors(spec, (0.3, 0.3))
        g_ref = m.metric_at((0.3, 0.3)).components
        t_ref = m.skewness_at((0.3, 0.3)).components
        assert np.all(np.abs(est.metric.components - g_ref) <= 3 * est.metric_se + 1e-12)
        assert np.all(np.abs(est.skewness.components - t_ref) <= 3 * est.skewness_se + 1e-12)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("k", [3, 9])
    def test_category_samples_match_a_one_hot_sum_bitwise(self, k, order):
        # the sampler returns the count of each category; the log-likelihood
        # gathers each category index's log-jet, which has the bits of a sum
        # over one-hot weights
        spec = multinomial_model(k).sample_spec(count=5000, seed=3)
        point = Point(np.linspace(0.5, 1.5, k - 1) / k)
        counts = spec.sampler(point, 5000, np.random.default_rng(3))
        assert counts.shape == (k,) and counts.dtype.kind == "i"
        assert counts.sum() == 5000 and np.all(counts > 0)
        cat = np.repeat(np.arange(k), counts)
        coord_jets = jets.seed(point.coords, order)
        ll = spec.log_likelihood(cat, coord_jets)
        onehot = np.eye(k)[cat]
        p_last = 1.0 - sum(coord_jets[1:], coord_jets[0])
        ref = onehot[:, k - 1] * jets.log(p_last)
        for c in range(k - 1):
            ref = ref + onehot[:, c] * jets.log(coord_jets[c])
        for d in range(order + 1):
            assert ll.deriv(d).shape == ref.deriv(d).shape
            assert ll.deriv(d).tobytes() == ref.deriv(d).tobytes()
        assert ll.d1.T.flags.c_contiguous  # batch-innermost

    def test_same_seed_reproduces_bitwise(self):
        m = gaussian_model()
        a = estimate_fisher_tensors(m.sample_spec(count=10_000, seed=99), (0.0, 1.0))
        b = estimate_fisher_tensors(m.sample_spec(count=10_000, seed=99), (0.0, 1.0))
        assert np.array_equal(a.metric.components, b.metric.components)
        assert np.array_equal(a.skewness.components, b.skewness.components)
        c = estimate_fisher_tensors(m.sample_spec(count=10_000, seed=100), (0.0, 1.0))
        assert not np.array_equal(a.metric.components, c.metric.components)

    @pytest.mark.parametrize("name, point, message", [
        ("multinomial:3", (0.7, 0.6), "point (0.7, 0.6) outside the domain of model "
                                      "'multinomial:3'"),
        ("gaussian", (0.0, -1.0), "point (0.0, -1.0) outside the domain of model 'gaussian'"),
        ("gaussian", (0.0, 1.0, 3.0), "point (0.0, 1.0, 3.0) has 3 coordinates, "
                                      "model 'gaussian' has 2"),
    ])
    def test_a_point_off_the_model_is_a_domain_error(self, name, point, message):
        # the same words as `cupgeo estimate` prints for that point
        spec = resolve_model(name).sample_spec(10)
        with pytest.raises(DomainError) as info:
            estimate_fisher_tensors(spec, point)
        assert str(info.value) == message

    @pytest.mark.parametrize("point", ["01", [[0, 1], [1, 1]], 5.0],
                             ids=["string", "batch", "number"])
    def test_what_is_not_one_point_is_a_dimension_mismatch(self, point):
        with pytest.raises(DimensionMismatchError):
            estimate_fisher_tensors(gaussian_model().sample_spec(10, seed=1), point)

    def test_batching_does_not_change_the_estimate(self, monkeypatch):
        # the order of summation moves a continuous family's estimate in the last bits
        spec = gaussian_model().sample_spec(count=30_000, seed=7)
        monkeypatch.setattr(manifolds, "MC_BATCH_SIZE", 100_000)
        whole = estimate_fisher_tensors(spec, (0.5, 1.5))
        monkeypatch.setattr(manifolds, "MC_BATCH_SIZE", 7_000)
        split = estimate_fisher_tensors(spec, (0.5, 1.5))
        for a, b in zip(_estimate_arrays(whole), _estimate_arrays(split)):
            assert np.allclose(a, b, rtol=1e-12, atol=0.0)

    def test_a_finite_family_estimate_is_bitwise_independent_of_the_batch_size(self,
                                                                              monkeypatch):
        spec = multinomial_model(4).sample_spec(count=30_000, seed=7)
        estimates = []
        for batch_size in (100_000, 7_000, 1):
            monkeypatch.setattr(manifolds, "MC_BATCH_SIZE", batch_size)
            estimates.append(_estimate_arrays(estimate_fisher_tensors(spec, (0.2, 0.3, 0.25))))
        for other in estimates[1:]:
            for a, b in zip(estimates[0], other):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("count", [1, 5, 30_000, 10**9])
    def test_a_finite_family_sampler_is_called_once_for_the_whole_count(self, count):
        calls = []
        base = multinomial_model(3).sample_spec(count=count, seed=2)

        def sampler(point, size, rng):
            calls.append(size)
            return base.sampler(point, size, rng)

        spec = SampleSpec(base.log_likelihood, sampler, count, 2, base.support)
        est = estimate_fisher_tensors(spec, (0.3, 0.3))
        assert calls == [count] and est.count == count

    @pytest.mark.parametrize("count", [10**9, 2**63 - 1], ids=["1e9", "int64 max"])
    def test_a_huge_multinomial_estimate_lies_within_six_standard_errors(self, count):
        # one Multinomial(count, p) draw: the cost does not grow with the count
        m = multinomial_model(3)
        est = estimate_fisher_tensors(m.sample_spec(count=count, seed=1), (0.3, 0.3))
        assert est.count == count and est.se_reliable
        for arr, ref, se in ((est.metric.components, m.metric_at((0.3, 0.3)), est.metric_se),
                             (est.skewness.components, m.skewness_at((0.3, 0.3)),
                              est.skewness_se)):
            assert np.all(se > 0)
            assert np.all(np.abs(arr - ref.components) <= 6 * se)

    @pytest.mark.parametrize("name, point", [
        ("gaussian", (0.3, 1.7)),
        ("multinomial:3", (0.3, 0.3)),
        ("multinomial:4", (0.2, 0.3, 0.25)),
        ("multinomial:9", (0.1,) * 8),
    ])
    def test_estimates_are_bitwise_symmetric(self, name, point):
        est = estimate_fisher_tensors(
            resolve_model(name).sample_spec(count=300_000, seed=5), point)
        for arr in _estimate_arrays(est):
            for perm in permutations(range(arr.ndim)):
                assert np.array_equal(arr, np.transpose(arr, perm))

    @pytest.mark.parametrize("batch_size", [None, 700], ids=["one batch", "split"])
    @pytest.mark.parametrize("name, point", [
        ("gaussian", (0.3, 1.7)),
        ("multinomial:3", (0.3, 0.3)),
        ("multinomial:4", (0.2, 0.3, 0.25)),
        # dimension 8: eight leading indices, each with its own block of sorted classes
        ("multinomial:9", (0.05, 0.1, 0.15, 0.05, 0.1, 0.15, 0.05, 0.1)),
        # dimensions 16 and 32: the counted categories of a finite family, weighted
        ("multinomial:17", (0.03, 0.05, 0.07, 0.04) * 4),
        ("multinomial:33", (0.02, 0.03, 0.025, 0.015) * 8),
    ])
    def test_sums_match_an_exactly_rounded_reference(self, name, point, batch_size,
                                                      monkeypatch):
        count = 2000
        if batch_size is not None:
            monkeypatch.setattr(manifolds, "MC_BATCH_SIZE", batch_size)
        spec = resolve_model(name).sample_spec(count=count, seed=11)
        est = estimate_fisher_tensors(spec, point)
        # a finite family draws its counts once, so both batch sizes share one
        # reference; the Gaussian's reference draws in the same blocks
        block = manifolds.MC_BATCH_SIZE if spec.support is None else None
        for rank, mean, se in ((2, est.metric.components, est.metric_se),
                               (3, est.skewness.components, est.skewness_se)):
            ref_mean, ref_se = _fsum_reference(name, point, count, spec.seed, block)[rank]
            assert np.allclose(mean, ref_mean, rtol=1e-13, atol=0.0)
            assert np.allclose(se, ref_se, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("log_likelihood, message", [
        (lambda x, cj: x, "did not propagate"),
        (lambda x, cj: cj[0] * x[:1], "score batch has shape"),
        (lambda x, cj: jets.Jet(2, 1, x, np.full((x.size, 2), np.inf)), "non-finite"),
        # a jet whose value has batch axes its parts lack does not broadcast
        (lambda x, cj: cj[0] * jets.Jet(2, 1, np.ones(x.size), np.array([1.0, 0.0])),
         "log-likelihood failed on a sample batch: non-broadcastable output operand"),
    ])
    def test_malformed_log_likelihood_rejected(self, log_likelihood, message):
        spec = SampleSpec(log_likelihood, lambda point, size, rng: np.zeros(size), count=10)
        with pytest.raises(EvaluationError, match=message):
            estimate_fisher_tensors(spec, (0.5, 1.0))

    def test_a_category_never_drawn_is_never_scored(self):
        # the score is non-finite only at category 2, which the sampler never draws
        spec = SampleSpec(_bernoulli_with_a_bad_category,
                          lambda point, size, rng: np.bincount(
                              (rng.random(size) >= point[0]).astype(int), minlength=3),
                          count=20_000, seed=4, support=3)
        est = estimate_fisher_tensors(spec, (0.3,))
        m = multinomial_model(2)
        for arr, ref, se in ((est.metric.components, m.metric_at((0.3,)), est.metric_se),
                             (est.skewness.components, m.skewness_at((0.3,)), est.skewness_se)):
            assert np.all(np.abs(arr - ref.components) <= 5 * se)

    def test_a_drawn_non_finite_score_is_an_evaluation_error(self):
        spec = SampleSpec(_bernoulli_with_a_bad_category,
                          lambda point, size, rng: np.bincount(rng.integers(0, 3, size),
                                                               minlength=3),
                          count=1000, seed=4, support=3)
        with pytest.raises(EvaluationError,
                           match=re.escape("non-finite log-likelihood derivatives at (0.3,)")):
            estimate_fisher_tensors(spec, (0.3,))

    @pytest.mark.parametrize("counts, got", [
        (np.array([4, 6], dtype=np.int64), "an array of int64 with shape (2,)"),
        (np.zeros(10, dtype=np.int64), "an array of int64 with shape (10,)"),
        (np.zeros((10, 3), dtype=np.int64), "an array of int64 with shape (10, 3)"),
        (np.array([3.0, 3.0, 4.0]), "an array of float64 with shape (3,)"),
        (np.array([True, False, True]), "an array of bool with shape (3,)"),
        (np.array([12, -2, 0]), "a count of -2"),
        (np.array([5, 3, 1]), "counts summing to 9"),
        (np.array([2**63 - 1, 2**63 - 1, 12], dtype=np.uint64),
         f"counts summing to {2**64 + 10}"),
    ], ids=["short", "category indices", "one-hot rows", "floats", "bools", "negative",
            "sum short", "sum wraps round"])
    def test_a_draw_off_the_support_is_an_evaluation_error(self, counts, got):
        spec = SampleSpec(_bernoulli_with_a_bad_category, lambda point, size, rng: counts,
                          count=10, support=3)
        with pytest.raises(EvaluationError) as info:
            estimate_fisher_tensors(spec, (0.3,))
        assert str(info.value) == (f"sampler returned {got}, not the counts of 10 draws "
                                   "of the support 0 to 2")

    @pytest.mark.parametrize("support", [0, True, 2.5])
    def test_support_validated(self, support):
        with pytest.raises(ConfigError, match="sample support"):
            SampleSpec(_bernoulli_with_a_bad_category, None, count=10, support=support)

    def test_single_sample_marks_errors_unreliable(self):
        m = gaussian_model()
        est = estimate_fisher_tensors(m.sample_spec(count=1, seed=0), (0.0, 1.0))
        assert not est.se_reliable
        assert np.isnan(est.metric_se).all()
        assert np.isnan(est.skewness_se).all()

    @pytest.mark.parametrize("count", [0, 2**63])
    def test_count_validated(self, count):
        with pytest.raises(ConfigError, match="sample count must be from 1 to "
                                              "9223372036854775807"):
            gaussian_model().sample_spec(count=count, seed=0)

    def test_model_without_sampler_refuses(self):
        with pytest.raises(ConfigError):
            euclidean_model(2).sample_spec(count=10, seed=0)


class TestConfigRoundTrip:
    def test_readme_config_parses_to_gaussian_model(self):
        m = gaussian_model()
        back = parse_model(readme_gaussian_config())
        assert (back.name, back.coord_names, back.domain) == (m.name, m.coord_names, m.domain)
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = (float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 3.0)))
            assert np.abs(back.metric_at(p).components - m.metric_at(p).components).max() <= 1e-12
            assert np.abs(back.skewness_at(p).components - m.skewness_at(p).components).max() <= 1e-12

    def test_component_keys_propagate_to_permutations(self):
        cfg = {
            "dim": 2,
            "coords": ["x", "y"],
            "metric": {"11": "1", "22": "1 + x^2"},
            "skewness": {"112": "x*y"},
        }
        m = parse_model(json.dumps(cfg))
        t = m.skewness_at((2.0, 3.0)).components
        assert t[0, 0, 1] == t[0, 1, 0] == t[1, 0, 0] == 6.0
        assert t[1, 1, 1] == 0.0
        g = m.metric_at((2.0, 0.0)).components
        assert g[0, 1] == 0.0  # unlisted components default to zero
        assert g[1, 1] == 5.0

    def test_comma_separated_keys_allowed(self):
        cfg = {
            "dim": 2,
            "coords": ["x", "y"],
            "metric": {"1,1": "1", "2,2": "2"},
        }
        g = parse_model(json.dumps(cfg)).metric_at((0.0, 0.0)).components
        assert np.allclose(g, np.diag([1.0, 2.0]))

    def test_domain_bounds_honored(self):
        cfg = {
            "dim": 1,
            "coords": ["s"],
            "metric": {"11": "1/s"},
            "domain": {"s": [0.0, None]},
        }
        m = parse_model(json.dumps(cfg))
        m.require_inside((1.0,))
        with pytest.raises(DomainError):
            m.require_inside((-1.0,))


# what a JSON config may hold where a number, null or a flag is expected
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(),
                          st.floats(), st.just(float("nan")))


class TestConfigErrors:
    def base(self):
        return {"dim": 2, "coords": ["x", "y"], "metric": {"11": "1", "22": "1"}}

    def check(self, cfg, fragment):
        with pytest.raises(ConfigError) as err:
            parse_model(json.dumps(cfg))
        assert fragment in str(err.value)

    def test_not_json(self):
        with pytest.raises(ConfigError):
            parse_model("{not json")

    def test_missing_fields(self):
        self.check({"dim": 2, "coords": ["x", "y"]}, "metric")

    def test_coord_count_mismatch(self):
        cfg = self.base()
        cfg["coords"] = ["x"]
        self.check(cfg, "identifier")

    def test_duplicate_coords(self):
        cfg = self.base()
        cfg["coords"] = ["x", "x"]
        self.check(cfg, "distinct")

    def test_reserved_simplex_name(self):
        cfg = self.base()
        cfg["coords"] = ["x", "simplex"]
        self.check(cfg, "reserved")

    def test_index_out_of_range(self):
        cfg = self.base()
        cfg["metric"]["13"] = "1"
        self.check(cfg, "out of range")

    def test_wrong_index_count(self):
        cfg = self.base()
        cfg["metric"]["111"] = "1"
        self.check(cfg, "indices")

    def test_unknown_identifier_in_expression(self):
        cfg = self.base()
        cfg["metric"]["12"] = "z + 1"
        self.check(cfg, "z")

    def test_a_bad_expression_names_its_entry(self):
        cfg = self.base()
        cfg["metric"]["11"] = "1 +"
        self.check(cfg, "metric entry '11': ")

    def test_an_internal_error_is_not_read_as_a_bad_config(self, monkeypatch):
        def broken_parse(source):
            raise RuntimeError("parser bug")

        monkeypatch.setattr(expr, "parse", broken_parse)
        with pytest.raises(RuntimeError, match="parser bug"):
            parse_model(json.dumps(self.base()))

    def test_conflicting_duplicate_entries(self):
        cfg = self.base()
        cfg["skewness"] = {"112": "1", "121": "2"}
        self.check(cfg, "conflict")

    def test_consistent_duplicates_accepted(self):
        cfg = self.base()
        cfg["skewness"] = {"112": "x", "121": "x"}
        m = parse_model(json.dumps(cfg))
        assert m.skewness_at((3.0, 0.0)).components[1, 0, 0] == 3.0

    def test_unknown_domain_coordinate(self):
        cfg = self.base()
        cfg["domain"] = {"q": [0, 1]}
        self.check(cfg, "unknown coordinate")

    @settings(max_examples=200, deadline=None)
    @given(dim=st.just(2) | _JSON_SCALARS, low=_JSON_SCALARS, high=_JSON_SCALARS,
           simplex=st.booleans() | _JSON_SCALARS)
    def test_a_scalar_field_is_taken_only_when_valid(self, dim, low, high, simplex):
        cfg = self.base()
        cfg.update(dim=dim, domain={"x": [low, high], "simplex": simplex})
        try:
            m = parse_model(json.dumps(cfg))
        except ConfigError:
            return
        assert type(dim) is int and m.dim == dim
        assert type(simplex) is bool and m.domain.simplex is simplex
        assert all(b is None or type(b) in (int, float) and math.isfinite(b) for b in (low, high))
        assert None in (low, high) or low < high
        assert m.domain.bounds[0] == tuple(b if b is None else float(b) for b in (low, high))

    def test_syntax_error_carries_through(self):
        cfg = self.base()
        cfg["metric"]["12"] = "1 +"
        with pytest.raises(ConfigError):
            parse_model(json.dumps(cfg))


class TestResolveModel:
    def test_builtin_names(self):
        assert resolve_model("gaussian").name == "gaussian"
        assert resolve_model("multinomial:4").dim == 3
        assert resolve_model("euclidean:3").dim == 3
        assert resolve_model("multinomial").dim == 2

    def test_config_file_path(self, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(readme_gaussian_config())
        m = resolve_model(str(cfg))
        assert m.dim == 2
        assert np.allclose(m.metric_at((0.0, 1.0)).components, np.diag([1.0, 2.0]))

    def test_unknown_source(self):
        with pytest.raises(ConfigError):
            resolve_model("nosuch")
        with pytest.raises(ConfigError):
            resolve_model("multinomial:abc")


@pytest.mark.parametrize("call, message", [
    (lambda: gaussian_model().sample_spec(2.5), "sample count must be an integer, got 2.5"),
    (lambda: gaussian_model().sample_spec(True), "sample count must be an integer, got True"),
    (lambda: gaussian_model().sample_spec(10, seed=1.5),
     "sample seed must be an integer, got 1.5"),
    (lambda: euclidean_model(2.5), "euclidean dimension must be an integer, got 2.5"),
    (lambda: multinomial_model(3.5),
     "multinomial category count k must be an integer, got 3.5"),
    (lambda: multinomial_model(True),
     "multinomial category count k must be an integer, got True"),
    (lambda: gaussian_model().scalar_field(3), "expression source must be a string, got 3"),
    (lambda: model_from_callables(2, ("x",), None, None), "2 coordinates expected, got 1"),
    (lambda: model_from_callables(2.0, ("x", "y"), None, None),
     "model dimension must be an integer, got 2.0"),
], ids=["count-float", "count-bool", "seed-float", "euclidean-float", "multinomial-float",
        "multinomial-bool", "source-int", "callables-coords", "callables-dim-float"])
def test_a_parameter_of_the_wrong_kind_is_a_config_error_naming_it(call, message):
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value) == message


class TestCallableModels:
    def test_finite_difference_model_matches_expressions(self):
        ref = gaussian_model()
        m = model_from_callables(2, ("mu", "sigma"), gaussian_metric, gaussian_skewness)
        assert m.mode == "fd"
        p = (0.3, 1.4)
        assert np.abs(m.metric_at(p).components - ref.metric_at(p).components).max() <= 1e-12
        assert np.abs(m.skewness_at(p).components - ref.skewness_at(p).components).max() <= 1e-12

    def test_asymmetric_callable_output_reads_its_sorted_entries(self):
        def lopsided_metric(v):
            return np.array([[1.0, 0.5], [0.0, 1.0]])

        m = model_from_callables(2, ("x", "y"), lopsided_metric, lambda v: np.zeros((2, 2, 2)))
        g = m.metric_at((0.0, 0.0)).components
        # as a config's "12" key gives it: the sorted entry, not the mean 0.25
        assert g.tolist() == [[1.0, 0.5], [0.5, 1.0]]

    def test_the_fd_gaussian_twin_equals_its_callables_bitwise(self):
        twin = model_from_callables(2, ("mu", "sigma"), gaussian_metric, gaussian_skewness,
                                    domain=gaussian_model().domain)
        rng = np.random.default_rng(7)
        points = np.column_stack([rng.uniform(-2.0, 2.0, 200), rng.uniform(0.3, 3.0, 200)])
        for p in points:
            assert twin.metric_at(p).components.tobytes() == gaussian_metric(p).tobytes()
            assert twin.skewness_at(p).components.tobytes() == gaussian_skewness(p).tobytes()
        batch = twin.skewness.jet(points, 0).value
        assert batch.tobytes() == np.array([gaussian_skewness(p) for p in points]).tobytes()

    def test_mirroring_a_batched_fd_jet_touches_only_its_component_axes(self):
        def lopsided(v):
            return np.einsum("i,j,k->ijk", np.sin(v), np.cos(v), v * v) + v[0] * v[1] * v[2]

        coords = np.array([(0.3, 1.2, -0.4), (0.9, 0.5, 2.0)])
        raw = jets.finite_difference_jet(lopsided, coords, 2)
        for k in range(3):
            part = raw.deriv(k)
            assert not np.array_equal(part, np.swapaxes(part, 1, 2))
            out = _mirror_sorted(part, rank=3, lead=1)
            assert out.shape == part.shape
            # each entry is its sorted class's entry, for every batch row and derivative slot
            for index in np.ndindex((3,) * 3):
                at, sorted_at = (slice(None),) + index, (slice(None),) + tuple(sorted(index))
                assert out[at].tobytes() == part[sorted_at].tobytes()
            moved = np.moveaxis(out, (1, 2, 3), (-3, -2, -1))
            assert_fully_symmetric(moved, lead=moved.ndim - 3)

    def test_wrong_shape_callable_rejected(self):
        m = model_from_callables(2, ("x", "y"), lambda v: np.eye(3), lambda v: np.zeros((2, 2, 2)))
        with pytest.raises(EvaluationError):
            m.metric_at((0.0, 0.0))


sigma_range = st.floats(min_value=0.3, max_value=3.0, allow_nan=False, allow_infinity=False)


@given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), sigma_range)
@settings(max_examples=100, deadline=None)
def test_gaussian_closed_forms_scale_correctly(mu, sigma):
    m = gaussian_model()
    g = m.metric_at((mu, sigma)).components
    t = m.skewness_at((mu, sigma)).components
    assert g[0, 0] == pytest.approx(sigma ** -2, rel=1e-13)
    assert g[1, 1] == pytest.approx(2 * sigma ** -2, rel=1e-13)
    assert g[0, 1] == 0.0
    assert t[0, 0, 1] == pytest.approx(2 * sigma ** -3, rel=1e-13)
    assert t[1, 1, 1] == pytest.approx(8 * sigma ** -3, rel=1e-13)
