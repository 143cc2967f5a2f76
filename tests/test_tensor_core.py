"""Dense tensor operations and scalar-field jet evaluation.

Each test class covers one operation; the expected numbers are either
forced by the defining formula or cross-checked by brute-force index loops
and the finite-difference mode.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cupgeo import jets
from cupgeo.cup_transform import symmetric_g_psi
from cupgeo.errors import (
    DimensionMismatchError,
    DomainError,
    SingularMetricError,
    UnsupportedOrderError,
)
from cupgeo.manifolds import gaussian_model
from cupgeo.tensor_core import (
    FuncField,
    NumericField,
    Point,
    Tensor,
    as_coords,
    invert_metric,
)

from helpers import assert_fully_symmetric


class TestPoint:
    def test_holds_coordinates(self):
        p = Point((0.5, -1.0))
        assert len(p) == 2
        assert p[1] == -1.0
        assert tuple(p) == (0.5, -1.0)
        assert np.array_equal(as_coords(p), [0.5, -1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Point((1.0, float("nan")))
        with pytest.raises(DomainError):
            Point((float("inf"),))

    @pytest.mark.parametrize("coords", ["01", "ab", b"01", 5.0, [[0.0, 1.0]], [[0, 1], [1, 1]]],
                             ids=["digits", "letters", "bytes", "number", "one row", "batch"])
    def test_rejects_what_is_not_one_point(self, coords):
        with pytest.raises(DimensionMismatchError):
            Point(coords)

    def test_a_point_reads_a_point(self):
        p = Point((1.0, 2.0))
        assert Point(p) == p
        assert Point(p).coords == (1.0, 2.0)


class TestTensor:
    def test_full_symmetry_detection(self):
        sym = Tensor(symmetrize(np.array([1.0, 2.0]), np.eye(2)))
        assert_fully_symmetric(sym.components)

    def test_results_compare_by_identity_and_hash(self):
        # equal components do not make equal tensors: comparing arrays is not a bool
        a = Tensor(np.eye(2))
        b = Tensor(np.eye(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2


class TestEvaluateJet:
    """Field jets at one point, as ``field.jet(as_coords(p), order)``."""

    def test_square_field(self):
        field = FuncField(lambda c: c[0] * c[0], dim=1)
        j = field.jet(as_coords((3.0,)), 2)
        assert j.value == 9.0
        assert j.d1[0] == 6.0
        assert j.d2[0, 0] == 2.0

    def test_exponential_field_at_origin(self):
        from cupgeo import jets

        field = FuncField(lambda c: jets.exp(c[0]), dim=1)
        j = field.jet(as_coords((0.0,)), 2)
        assert j.value == j.d1[0] == j.d2[0, 0] == 1.0

    def test_inverse_square_against_finite_differences(self):
        analytic = FuncField(lambda c: 1.0 / (c[1] * c[1]), dim=2)
        numeric = NumericField(lambda v: 1.0 / (v[1] * v[1]), dim=2)
        ja = analytic.jet(as_coords((0.0, 1.0)), 1)
        jn = numeric.jet(as_coords((0.0, 1.0)), 1)
        assert ja.value == 1.0
        assert ja.d1[1] == -2.0
        assert abs(jn.value - ja.value) <= 1e-8
        assert np.abs(jn.d1 - ja.d1).max() <= 1e-8

    def test_order_cap(self):
        for field in (FuncField(lambda c: c[0], dim=1), NumericField(lambda v: v[0], dim=1)):
            with pytest.raises(UnsupportedOrderError):
                field.jet(as_coords((1.0,)), 3)


def symmetrize(u, g):
    """Components of g_ij u_k + g_jk u_i + g_ki u_j, through constant jets."""
    dim = np.shape(u)[-1]
    return symmetric_g_psi(jets.Jet.constant(g, dim, 0), jets.Jet.constant(u, dim, 0)).value


class TestSymmetrize:
    def test_zero_covector_gives_zero(self):
        out = symmetrize(np.zeros(3), np.eye(3) * 2.0)
        assert np.array_equal(out, np.zeros((3, 3, 3)))

    def test_one_dimensional_value(self):
        out = symmetrize(np.array([5.0]), np.array([[2.0]]))
        assert out[0, 0, 0] == 30.0

    def test_two_dimensional_identity_metric(self):
        out = symmetrize(np.array([1.0, 0.0]), np.eye(2))
        assert out[0, 0, 0] == 3.0
        assert out[0, 1, 1] == 1.0
        assert out[1, 1, 0] == 1.0
        assert out[1, 1, 1] == 0.0
        assert out[0, 0, 1] == 0.0

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((6, 4))
        g = rng.standard_normal((6, 4, 4))
        g = g + np.swapaxes(g, -1, -2)
        # constant jets carry zero derivatives: give d1 some to mirror
        ju = jets.Jet(4, 1, u, rng.standard_normal((6, 4, 4)))
        jg = jets.Jet(4, 1, g, rng.standard_normal((6, 4, 4, 4)))
        jg.d1 = jg.d1 + np.swapaxes(jg.d1, 1, 2)
        batch = symmetric_g_psi(jg, ju)
        single = symmetric_g_psi(jets.Jet(4, 1, g[2], jg.d1[2]), jets.Jet(4, 1, u[2], ju.d1[2]))
        for perm in itertools.permutations(range(3)):
            for out, lead in ((batch, 1), (single, 0)):
                axes = tuple(range(lead)) + tuple(lead + q for q in perm)
                assert np.array_equal(out.value, out.value.transpose(axes))
                assert np.array_equal(out.d1, out.d1.transpose(axes + (lead + 3,)))
        assert np.array_equal(batch.value[2], single.value)
        assert np.array_equal(batch.d1[2], single.d1)
        # each index class holds the defining three-term sum, summed in this order
        gg, uu = g[2], u[2]
        for i, j, k in itertools.combinations_with_replacement(range(4), 3):
            assert single.value[i, j, k] == gg[i, j] * uu[k] + gg[j, k] * uu[i] + gg[k, i] * uu[j]


class TestInvertMetric:
    def test_diagonal(self):
        inv = invert_metric(np.diag([1.0, 2.0]))
        assert np.allclose(inv, np.diag([1.0, 0.5]), rtol=1e-15)

    def test_identity(self):
        assert np.allclose(invert_metric(np.eye(3)), np.eye(3), rtol=1e-15)

    def test_gaussian_metric_away_from_unit_scale(self):
        g = gaussian_model().metric_at((0.0, 2.0))
        assert np.allclose(g.components, np.diag([0.25, 0.5]), rtol=1e-15)
        inv = invert_metric(g.components)
        assert np.allclose(inv, np.diag([4.0, 2.0]), rtol=1e-15)

    def test_non_positive_definite_reports_eigenvalue(self):
        with pytest.raises(SingularMetricError) as err:
            invert_metric(np.diag([1.0, -2.0]))
        assert err.value.min_eigenvalue == pytest.approx(-2.0)

    def test_a_stack_inverts_each_metric(self):
        stack = np.stack([np.diag([1.0, 2.0]), np.diag([4.0, 0.5]), [[2.0, 1.0], [1.0, 2.0]]])
        inv = invert_metric(stack)
        assert inv.shape == stack.shape
        for g, g_inv in zip(stack, inv):
            assert np.allclose(g @ g_inv, np.eye(2), rtol=0, atol=1e-15)

    def test_a_stack_failure_names_its_first_offending_point(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -3.0]), np.diag([-5.0, 1.0])])
        at = np.array([[0.0, 1.0], [0.5, 2.0], [1.5, 3.0]])
        with pytest.raises(SingularMetricError) as err:
            invert_metric(stack, at=at)
        assert err.value.min_eigenvalue == pytest.approx(-3.0)
        assert "at (0.5, 2.0) (row 1)" in str(err.value)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=80, deadline=None)
    def test_inverse_reconstructs_identity(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        g = a @ a.T + n * np.eye(n)
        inv = invert_metric(g)
        assert np.abs(g @ inv - np.eye(n)).max() <= 1e-12


box = st.floats(min_value=0.5, max_value=2.0, allow_nan=False, allow_infinity=False)


@given(box, box)
@settings(max_examples=60, deadline=None)
def test_jet_and_fd_modes_agree_on_first_partials(x, y):
    import math

    analytic = FuncField(lambda c: c[0] * c[0] / c[1], dim=2)
    numeric = NumericField(lambda v: v[0] * v[0] / v[1], dim=2)
    ja = analytic.jet(as_coords((x, y)), 1)
    jn = numeric.jet(as_coords((x, y)), 1)
    scale = max(1.0, float(np.abs(ja.d1).max()))
    assert np.abs(ja.d1 - jn.d1).max() / scale <= 1e-6
    assert math.isclose(ja.value, jn.value, rel_tol=1e-10)
