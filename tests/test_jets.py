"""Jet arithmetic against closed-form derivatives and finite differences.

Every expected value here is either a polynomial identity you can check on
paper or a standard derivative table entry; the finite-difference tests use
the stencil engine as an independent oracle for the jet arithmetic.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cupgeo
from cupgeo.errors import DomainError, UnsupportedOrderError
from cupgeo.expr import Expression
from cupgeo.jets import Jet, cos, exp, finite_difference_jet, log, seed, sin, sqrt
from cupgeo.manifolds import gaussian_model
from cupgeo.tensor_core import NumericField

from helpers import gaussian_metric, gaussian_skewness

EPS = np.finfo(float).eps
GAUSS = gaussian_model()


def _sym_defect(arr):
    """Largest violation of index-permutation symmetry on the last axes."""
    rank = arr.ndim
    worst = 0.0
    axes = list(range(rank))
    for a in range(rank):
        for b in range(a + 1, rank):
            perm = list(axes)
            perm[a], perm[b] = perm[b], perm[a]
            worst = max(worst, float(np.abs(arr - arr.transpose(perm)).max()))
    return worst


# -- closed-form spot checks ------------------------------------------------


def test_square_at_three():
    (x,) = seed((3.0,), 2)
    j = x * x
    assert j.value == 9.0
    assert j.d1[0] == 6.0
    assert j.d2[0, 0] == 2.0


def test_exp_at_zero_has_unit_partials_to_second_order():
    (x,) = seed((0.0,), 2)
    j = exp(x)
    assert j.value == 1.0
    assert j.d1[0] == 1.0
    assert j.d2[0, 0] == 1.0


def test_inverse_square_partials():
    x, y = seed((0.0, 1.0), 2)
    j = 1.0 / (y * y)
    assert j.value == 1.0
    assert j.d1[0] == 0.0
    assert j.d1[1] == -2.0
    assert j.d2[1, 1] == 6.0


def test_composed_exponential_second_order():
    # f = exp(x^2): f' = 2x f, f'' = (2 + 4x^2) f
    a = 0.7
    (x,) = seed((a,), 2)
    j = exp(x * x)
    f = math.exp(a * a)
    assert j.value == pytest.approx(f, rel=1e-14)
    assert j.d1[0] == pytest.approx(2 * a * f, rel=1e-14)
    assert j.d2[0, 0] == pytest.approx((2 + 4 * a * a) * f, rel=1e-14)


def test_product_rule_cross_terms():
    a, b = 2.0, 0.5
    x, y = seed((a, b), 2)
    j = x * sin(y)
    s, c = math.sin(b), math.cos(b)
    assert j.value == pytest.approx(a * s, rel=1e-14)
    assert np.allclose(j.d1, [s, a * c], rtol=1e-14)
    assert np.allclose(j.d2, [[0.0, c], [c, -a * s]], rtol=1e-14)


def test_quotient_matches_negative_power():
    x, y = seed((1.3, 0.8), 2)
    via_div = x / y
    via_pow = x * y ** -1.0
    for k in range(3):
        assert np.allclose(via_div.deriv(k), via_pow.deriv(k), rtol=1e-13, atol=1e-13)


def test_integer_power_closed_form():
    a = 2.0
    (x,) = seed((a,), 2)
    j = x ** -2
    assert j.value == pytest.approx(a ** -2, rel=1e-14)
    assert j.d1[0] == pytest.approx(-2 * a ** -3, rel=1e-14)
    assert j.d2[0, 0] == pytest.approx(6 * a ** -4, rel=1e-14)


def test_power_at_zero_base_keeps_high_derivatives_finite():
    # the power rule at v = 0: 2 * 0**1 = 0 and 2 * 1 * 0**0 = 2
    (x,) = seed((0.0,), 2)
    j = x ** 2
    assert j.value == 0.0
    assert j.d1[0] == 0.0
    assert j.d2[0, 0] == 2.0
    assert np.isfinite(j.d2).all()


def test_exponential_base_power():
    a = 1.5
    (x,) = seed((a,), 2)
    j = 2.0 ** x
    v = 2.0 ** a
    assert j.value == pytest.approx(v, rel=1e-14)
    assert j.d1[0] == pytest.approx(math.log(2.0) * v, rel=1e-14)
    assert j.d2[0, 0] == pytest.approx(math.log(2.0) ** 2 * v, rel=1e-14)


# -- domain guards ----------------------------------------------------------


def test_fractional_power_of_negative_base_rejected():
    (x,) = seed((-1.0,), 1)
    with pytest.raises(DomainError):
        x ** 0.5


def test_fractional_power_of_zero_base_rejected():
    (x,) = seed((0.0,), 1)
    with pytest.raises(DomainError):
        x ** 2.5


def test_an_undefined_value_is_a_domain_error_and_an_arithmetic_error():
    (x,) = seed((-0.5,), 1)
    with pytest.raises(cupgeo.UndefinedValueError, match="^log of a non-positive value$") as info:
        log(x)
    assert isinstance(info.value, DomainError) and isinstance(info.value, ArithmeticError)


def test_log_and_sqrt_domain_guards():
    (x,) = seed((-0.5,), 1)
    with pytest.raises(DomainError):
        log(x)
    with pytest.raises(DomainError):
        sqrt(x)
    (z,) = seed((0.0,), 1)
    with pytest.raises(DomainError):
        log(z)


# -- structural behavior ----------------------------------------------------


def test_order_cap_enforced():
    with pytest.raises(UnsupportedOrderError):
        Jet.constant(1.0, 2, 3)
    with pytest.raises(UnsupportedOrderError):
        finite_difference_jet(lambda v: v[0], (1.0,), 3)


@pytest.mark.parametrize("coords", [(0.3, 1.2), [(0.3, 1.2), (0.5, 0.7), (2.0, 1.0)]],
                         ids=["point", "batch"])
def test_seed_shares_read_only_blocks(coords):
    x, y = seed(coords, 2)
    batch = np.shape(coords)[:-1]
    assert np.array_equal(x.value, np.asarray(coords)[..., 0])
    if not batch:  # a float64 scalar, which follows a batch row's IEEE rules
        assert type(x.value) is np.float64
    assert np.array_equal(x.d1, np.broadcast_to([1.0, 0.0], batch + (2,)))
    assert np.array_equal(y.d1, np.broadcast_to([0.0, 1.0], batch + (2,)))
    assert x.d2.shape == batch + (2, 2) and not x.d2.any() and x.d2 is y.d2
    for part in (x.d1, x.d2):
        with pytest.raises(ValueError, match="read-only"):
            part[..., 0] = 2.0
    assert seed(coords, 0)[0].d1 is None


def test_dim_mismatch_rejected():
    (a,) = seed((1.0,), 2)
    b, _ = seed((1.0, 2.0), 2)
    with pytest.raises(ValueError):
        a + b


def test_order_mismatch_rejected():
    (a,) = seed((1.0,), 2)
    (b,) = seed((1.0,), 1)
    with pytest.raises(ValueError):
        a * b


def test_mixed_partials_symmetric_within_roundoff():
    x, y = seed((1.2, 0.7), 2)
    j = exp(x * y) * sin(x + 2.0 * y)
    scale = max(1.0, float(np.abs(j.d2).max()))
    assert _sym_defect(j.d2) <= 10 * EPS * scale


@pytest.mark.parametrize("source", [
    "sin(mu*sigma)*cos(mu+sigma)",
    "exp(0.2*mu)*sigma^2/(3+mu*sigma^2)",
])
def test_exact_second_partials_are_bitwise_symmetric(source):
    grid = np.array([(mu, s) for mu in (-1.0, 0.0, 1.0) for s in (0.6, 1.0, 1.8)])
    mu, sigma = seed(grid, 2)
    d2 = Expression(source)({"mu": mu, "sigma": sigma}).d2
    assert np.array_equal(d2, np.swapaxes(d2, -1, -2))


# -- array-valued jets ------------------------------------------------------


def test_batched_values_share_one_jet():
    vals = np.array([0.0, 0.5, 1.0])
    j = Jet(1, 1, vals, d1=np.ones((3, 1)))
    e = exp(j)
    assert np.allclose(e.value, np.exp(vals), rtol=1e-15)
    assert np.allclose(e.d1[:, 0], np.exp(vals), rtol=1e-15)


def test_scalar_jet_times_array_jet_leibniz():
    n = 2
    s, _ = seed((2.0, 5.0), 1)  # scalar x, d1 = (1, 0)
    aval = np.array([[1.0, 2.0], [3.0, 4.0]])
    ad1 = np.arange(8.0).reshape(2, 2, n)
    arr = Jet(n, 1, aval, d1=ad1.copy())
    prod = s * arr
    assert prod.d1.shape == (2, 2, n)
    expected = 2.0 * ad1 + aval[..., None] * np.array([1.0, 0.0])
    assert np.allclose(prod.d1, expected, rtol=1e-15)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("one_point", [False, True], ids=["batch", "point"])
def test_array_operand_acts_as_a_constant_jet(order, one_point):
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.5, 2.0, (4, 2))
    x, y = seed(pts[0] if one_point else pts, order)
    f = x * x * y + exp(y)
    a = rng.uniform(0.5, 2.0, 4)
    c = Jet.constant(a, 2, order)
    ops = {"+": lambda u, v: u + v, "-": lambda u, v: u - v,
           "*": lambda u, v: u * v, "/": lambda u, v: u / v}
    for name, op in ops.items():
        for side, got, want in (("right", op(f, a), op(f, c)), ("left", op(a, f), op(c, f))):
            assert isinstance(got, Jet)
            for k in range(order + 1):
                assert np.array_equal(got.deriv(k), want.deriv(k)), (name, side, k)


# -- memory layout ------------------------------------------------------------

# Each formula takes two jets x, y and an operand a: a (P,) array, a batch
# jet built from one (as the Monte-Carlo log-likelihoods are), or one row of
# either as a float.  The arguments of log, sqrt and the fractional power
# stay positive for positive x, y and a.
_LAYOUT_FORMULAS = {
    "product": lambda x, y, a: x * a,
    "reflected product": lambda x, y, a: a * y,
    "sum": lambda x, y, a: x + a,
    "difference": lambda x, y, a: a - y,
    "quotient": lambda x, y, a: x / a,
    "reflected quotient": lambda x, y, a: a / y,
    "jet product": lambda x, y, a: (x * a) * y * (y + a),
    "jet sum": lambda x, y, a: y + x * a,
    "jet quotient": lambda x, y, a: y / (x + a),
    "integer power": lambda x, y, a: (x * a) ** 3 + (y + a) ** -2,
    "fractional power": lambda x, y, a: (x * a) ** 1.5,
    "exp": lambda x, y, a: exp(x * a),
    "log": lambda x, y, a: log(y * a),
    "sqrt": lambda x, y, a: sqrt(a + x),
    "sin": lambda x, y, a: sin(a * x),
    "cos": lambda x, y, a: cos(a - y),
}


def _batch_jet(x, y, a):
    return x * a + y


def _bits(arr):
    return np.ascontiguousarray(arr, dtype=float).view(np.uint64)


@pytest.mark.parametrize("operand", ["array", "batch jet"])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("name", sorted(_LAYOUT_FORMULAS))
def test_a_point_level_jet_meeting_a_sample_batch_is_laid_out_batch_innermost(
        name, order, operand):
    formula = _LAYOUT_FORMULAS[name]
    if operand == "batch jet":
        inner = formula
        formula = lambda x, y, a: inner(x, y, _batch_jet(x, y, a))  # noqa: E731
    a = np.random.default_rng(5).uniform(0.5, 2.0, 7)
    x, y = seed((0.7, 1.3), order)
    got = formula(x, y, a)
    for k in range(1, order + 1):
        part = got.deriv(k)
        assert part.shape == (7,) + (2,) * k
        assert part.strides[0] == part.itemsize, (k, part.strides)  # batch-innermost
        rows = [formula(x, y, float(v)).deriv(k) for v in a]
        assert np.array_equal(_bits(part), _bits(np.stack(rows))), k


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("name", sorted(_LAYOUT_FORMULAS))
def test_jets_sharing_their_batch_axes_keep_c_contiguous_parts(name, order):
    formula = _LAYOUT_FORMULAS[name]
    rng = np.random.default_rng(6)
    grid = rng.uniform(0.5, 2.0, (7, 2))
    a = rng.uniform(0.5, 2.0, 7)
    got = formula(*seed(grid, order), a)
    for k in range(1, order + 1):
        part = got.deriv(k)
        assert part.flags.c_contiguous, k
        rows = [formula(*seed(pt, order), float(v)).deriv(k) for pt, v in zip(grid, a)]
        assert np.array_equal(_bits(part), _bits(np.stack(rows))), k
    point = formula(*seed(grid[0], order), float(a[0]))
    assert all(point.deriv(k).flags.c_contiguous for k in range(1, order + 1))


def test_finite_difference_of_array_valued_callable():
    def fn(v):
        x, y = v
        return np.array([x * x, x * y])

    j = finite_difference_jet(fn, (1.5, -0.5), 2)
    assert j.value.shape == (2,)
    assert j.d1.shape == (2, 2)
    assert np.allclose(j.value, [2.25, -0.75], atol=1e-12)
    assert np.allclose(j.d1, [[3.0, 0.0], [-0.5, 1.5]], atol=1e-8)
    assert np.allclose(j.d2[0], [[2.0, 0.0], [0.0, 0.0]], atol=1e-6)
    assert np.allclose(j.d2[1], [[0.0, 1.0], [1.0, 0.0]], atol=1e-6)


# -- finite differences as an independent oracle ----------------------------


@pytest.mark.parametrize("value", [5.2e5 / 3, math.pi * 1e9, -math.e * 1e-7])
@pytest.mark.parametrize("rank", [0, 3])
@pytest.mark.parametrize("coords", [(1.0, 1.0), [(1.0, 1.0), (0.3, 250.0), (-40.0, 1e-3)]],
                         ids=["point", "batch"])
def test_fd_jet_of_a_constant_has_zero_derivatives(coords, rank, value):
    # symmetric pairs are differenced before they are weighted, so the
    # rounding of a large value cancels exactly
    field = NumericField(lambda v: np.full((2,) * rank, value), 2, rank=rank)
    j = field.jet(np.array(coords), 2)
    assert j.d1.shape == np.shape(coords)[:-1] + (2,) * rank + (2,)
    assert not j.d1.any() and not j.d2.any()
    raw = finite_difference_jet(lambda v: value, np.array(coords), 2)
    assert not raw.d1.any() and not raw.d2.any()


def test_stencils_reproduce_analytic_jet():
    def fn(v):
        x, y = v
        return math.sin(x) * math.exp(0.3 * y) + x * x * y

    x, y = seed((0.9, 0.4), 2)
    exact = sin(x) * exp(0.3 * y) + x * x * y
    fd = finite_difference_jet(fn, (0.9, 0.4), 2)
    assert fd.value == pytest.approx(exact.value, rel=1e-12)
    assert np.allclose(fd.d1, exact.d1, rtol=0, atol=1e-7)
    assert np.allclose(fd.d2, exact.d2, rtol=0, atol=1e-6)


def test_fd_mixed_partials_mirrored_exactly():
    def fn(v):
        x, y = v
        return math.exp(x * y)

    fd = finite_difference_jet(fn, (0.3, 0.8), 2)
    assert np.array_equal(fd.d2, fd.d2.T)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("order, calls", [(0, lambda n: 1), (1, lambda n: 1 + 4 * n),
                                          (2, lambda n: 1 + 8 * n * n - 4 * n)])
def test_fd_jet_evaluates_the_centre_once(n, order, calls):
    # f(x) is the centre of every diagonal second partial; it is evaluated
    # once, for the value, and the four values along each axis serve both its
    # first and its second partial: 5, 25, 61 and 113 calls at order 2
    points = []

    def fn(v):
        points.append(tuple(v))
        return math.exp(0.3 * sum(v)) * math.sin(v[0])

    x = tuple(np.linspace(0.3, 1.1, n))
    finite_difference_jet(fn, x, order)
    assert len(points) == calls(n)
    assert points.count(x) == 1


@pytest.mark.parametrize("callable_, exact", [(gaussian_metric, "metric"),
                                              (gaussian_skewness, "skewness")])
def test_fd_jets_of_the_gaussian_tensors_match_their_exact_jets(callable_, exact):
    # 250 seeded points; a zero component is a zero callable entry, whose
    # differences vanish exactly
    rng = np.random.default_rng(5)
    points = np.column_stack([rng.uniform(-2.0, 2.0, 250), rng.uniform(0.5, 2.5, 250)])
    want = getattr(GAUSS, exact).jet(points, 2)
    got = finite_difference_jet(callable_, points, 2)
    for k, bound in ((1, 5e-12), (2, 1e-8)):
        a, b = got.deriv(k), want.deriv(k)
        zero = b == 0
        assert not a[zero].any()
        assert np.max(np.abs(a - b)[~zero] / np.abs(b[~zero])) <= bound, k


# -- property-based checks --------------------------------------------------

coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.2, max_value=2.0, allow_nan=False, allow_infinity=False)


@given(coord, coord)
@settings(max_examples=150, deadline=None)
def test_polynomial_derivatives_match_hand_formulas(a, b):
    x, y = seed((a, b), 2)
    j = x * x * y + 3.0 * y - x
    assert j.value == pytest.approx(a * a * b + 3 * b - a, rel=1e-12, abs=1e-12)
    assert np.allclose(j.d1, [2 * a * b - 1, a * a + 3], rtol=1e-12, atol=1e-12)
    assert np.allclose(j.d2, [[2 * b, 2 * a], [2 * a, 0.0]], rtol=1e-12, atol=1e-12)


@given(positive, positive)
@settings(max_examples=100, deadline=None)
def test_exponential_factorizes(a, b):
    x, y = seed((a, b), 2)
    whole = exp(x + y)
    parts = exp(x) * exp(y)
    for k in range(3):
        assert np.allclose(whole.deriv(k), parts.deriv(k), rtol=1e-12, atol=1e-12)


@given(positive)
@settings(max_examples=100, deadline=None)
def test_log_exp_and_sqrt_square_roundtrip(a):
    (x,) = seed((a,), 2)
    back = log(exp(x))
    assert back.value == pytest.approx(a, rel=1e-13)
    assert back.d1[0] == pytest.approx(1.0, rel=1e-12)
    assert abs(back.d2[0, 0]) <= 1e-11
    squared = sqrt(x) * sqrt(x)
    assert squared.value == pytest.approx(a, rel=1e-13)
    assert squared.d1[0] == pytest.approx(1.0, rel=1e-12)


@given(coord, coord)
@settings(max_examples=100, deadline=None)
def test_sin_cos_pythagorean_identity(a, b):
    x, y = seed((a, b), 2)
    u = x + 0.5 * y
    j = sin(u) * sin(u) + cos(u) * cos(u)
    assert j.value == pytest.approx(1.0, rel=1e-13)
    assert np.allclose(j.d1, 0.0, atol=1e-13)
    assert np.allclose(j.d2, 0.0, atol=1e-13)
