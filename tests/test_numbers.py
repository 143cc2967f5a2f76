"""One rule for what a number is, at every entry point that takes one.

A bool or a string is not a number; any other real is, numpy scalars
included; a real must be finite, and an integer too large for a float is
not.  Each parameter that breaks the rule is a ConfigError naming it.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cupgeo.cup_transform import (
    WeightedDensity,
    make_rescaling,
    parse_rescaling,
    rescaled_model,
)
from cupgeo.errors import ConfigError, DimensionMismatchError
from cupgeo.geometry import (
    HessianSpec,
    NonlinearCoupling,
    cup_laplacian,
    modified_hessian,
    scalar_curvature,
)
from cupgeo.manifolds import estimate_fisher_tensors, gaussian_model
from cupgeo.tensor_core import Point, as_coords, require_integer, require_real
from cupgeo.verify import default_suite_config, run_check

G = gaussian_model()
F = G.scalar_field("1 + 0.1*mu")
P = (0.0, 1.0)
RESC = make_rescaling(0.5, G.scalar_field("0.3*mu"))
HUGE = 10 ** 400


@pytest.mark.parametrize("value, expected", [
    (0.5, 0.5), (2, 2.0), (np.float64(0.25), 0.25), (np.int64(-3), -3.0),
    (np.float32(1.5), 1.5), (Fraction(1, 4), 0.25),
])
def test_a_finite_real_is_its_float(value, expected):
    got = require_real(value, "x")
    assert type(got) is float and got == expected


@pytest.mark.parametrize("value, message", [
    (True, "x must be a real number, got True"),
    (np.bool_(False), f"x must be a real number, got {np.bool_(False)!r}"),
    ("1", "x must be a real number, got '1'"),
    (None, "x must be a real number, got None"),
    (1j, "x must be a real number, got 1j"),
    (float("nan"), "x must be finite, got nan"),
    (np.float64("-inf"), "x must be finite, got -inf"),
    (HUGE, "x must be finite, got inf"),
    (-HUGE, "x must be finite, got -inf"),
])
def test_anything_else_is_a_config_error_naming_the_parameter(value, message):
    with pytest.raises(ConfigError) as info:
        require_real(value, "x")
    assert str(info.value) == message


def test_an_integer_in_range_is_its_int():
    assert require_integer(np.int64(3), "n", 1, 32) == 3
    assert type(require_integer(np.int64(3), "n", 1)) is int
    assert require_integer(HUGE, "n", 0) == HUGE


@pytest.mark.parametrize("value, high, message", [
    (True, None, "n must be an integer, got True"),
    (2.0, None, "n must be an integer, got 2.0"),
    ("2", None, "n must be an integer, got '2'"),
    (0, None, "n must be >= 1, got 0"),
    (33, 32, "n must be from 1 to 32, got 33"),
    (np.int64(0), 32, "n must be from 1 to 32, got 0"),
])
def test_an_integer_of_the_wrong_kind_or_range_is_a_config_error(value, high, message):
    with pytest.raises(ConfigError) as info:
        require_integer(value, "n", 1, high)
    assert str(info.value) == message


def _suite(**changes):
    return replace(default_suite_config(), **changes)


@pytest.mark.parametrize("call, named", [
    (lambda: cup_laplacian(G, 0.5, True, P), "density"),
    (lambda: cup_laplacian(G, 0.5, False, P), "density"),
    (lambda: WeightedDensity(F, True), "density weight r"),
    (lambda: NonlinearCoupling(F, True), "nonlinearity exponent a"),
    (lambda: WeightedDensity(F, "1"), "density weight r"),
    (lambda: NonlinearCoupling(F, "2"), "nonlinearity exponent a"),
    (lambda: _suite(hessian_k="x").validate(), "hessian_k"),
    (lambda: _suite(tolerance="1").validate(), "tolerance"),
    (lambda: modified_hessian(G, 0.5, HessianSpec("x"), F, P), "Ricci coupling k"),
    (lambda: modified_hessian(G, 0.5, "x", F, P), "Ricci coupling k"),
    (lambda: modified_hessian(G, 0.5, True, F, P), "Ricci coupling k"),
    (lambda: modified_hessian(G, 0.5, float("nan"), F, P), "Ricci coupling k"),
    (lambda: _suite(laplacian_s=True).validate(), "laplacian_s"),
    (lambda: run_check("conn_shift", _suite(alphas=("x",))), "alpha"),
    (lambda: run_check("conn_shift", _suite(alphas=(None,))), "alpha"),
    (lambda: rescaled_model(G, RESC, sym_weight="x"), "sym_weight"),
    (lambda: parse_rescaling('{"alpha": "0.5", "potential": "mu"}', G), "alpha"),
    (lambda: scalar_curvature(gaussian_model(), HUGE, P), "alpha"),
    (lambda: WeightedDensity(F, HUGE), "density weight r"),
    (lambda: cup_laplacian(G, 0.5, HUGE, P), "density"),
], ids=["density-true", "density-false", "weight-bool", "exponent-bool", "weight-str",
        "exponent-str", "hessian_k-str", "tolerance-str", "spec-str", "k-str", "k-bool",
        "k-nan", "laplacian_s-bool", "alphas-str", "alphas-none", "sym_weight-str",
        "config-alpha-str", "alpha-huge", "weight-huge", "density-huge"])
def test_a_bad_number_is_a_config_error_naming_its_parameter(call, named):
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value).startswith(named + " must be")


def test_numpy_numbers_give_the_bits_of_their_floats():
    assert scalar_curvature(gaussian_model(), np.float64(0.5), P) == \
        scalar_curvature(gaussian_model(), 0.5, P)
    spec = modified_hessian(G, np.float64(0.5), HessianSpec(np.int64(1)), F, P).components
    plain = modified_hessian(G, 0.5, HessianSpec(1.0), F, P).components
    assert spec.tobytes() == plain.tobytes()
    assert cup_laplacian(G, 0.5, np.int64(2), P) == cup_laplacian(G, 0.5, 2, P)
    assert WeightedDensity(F, np.int64(2)).r == 2.0


@pytest.mark.parametrize("coords", [
    ["0.5", "1"], ("0.5", 1.0), (True, 1.0), (0.5, np.bool_(False)), [(0.0, 1.0), (0.5, True)],
    np.array(["0.5", "1"]), np.array([True, False]), np.array(["0.5", 1.0], dtype=object),
    np.array([True, 1.0], dtype=object),
], ids=["strings", "mixed-string", "bool", "numpy-bool", "bool-in-batch", "string-array",
        "bool-array", "string-object-array", "bool-object-array"])
def test_a_coordinate_that_is_a_string_or_a_bool_is_a_dimension_mismatch(coords):
    for read in (as_coords, Point, G.metric_at,
                 lambda p: estimate_fisher_tensors(G.sample_spec(10), p)):
        with pytest.raises(DimensionMismatchError, match="array of reals"):
            read(coords)


@pytest.mark.parametrize("coords", [
    (0.5, 1), [(0, 1), (1, 2)], (Fraction(1, 2), 1.0), np.array([1, 2]),
    (np.float32(0.5), np.int64(1)), [np.array([0.5, 1.0]), (1.0, 2.0)],
    np.array([Fraction(1, 2), 1], dtype=object),
], ids=["tuple", "int-batch", "fraction", "int-array", "numpy-scalars", "array-rows",
        "fraction-object-array"])
def test_coordinates_of_any_real_type_are_their_floats(coords):
    x = as_coords(coords)
    assert x.dtype == np.float64
    assert np.array_equal(x, np.asarray(coords, dtype=float))
