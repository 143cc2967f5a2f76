"""Expression grammar: parsing, precedence, evaluation, error positions."""

import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cupgeo.errors import DomainError, EvaluationError, ExpressionError
from cupgeo.expr import _FUNCTIONS, Expression, evaluate, parse, variables
from cupgeo.jets import seed


def ev(source, **env):
    return evaluate(parse(source), env)


def test_basic_precedence():
    assert ev("1 + 2*3") == 7.0
    assert ev("(1 + 2)*3") == 9.0
    assert ev("10 - 4 - 3") == 3.0
    assert ev("12 / 4 / 3") == 1.0


def test_power_is_right_associative():
    assert ev("2^3^2") == 512.0


def test_power_binds_tighter_than_unary_minus():
    assert ev("-x^2", x=3.0) == -9.0
    assert ev("(-x)^2", x=3.0) == 9.0


def test_unary_minus_chains():
    assert ev("--4") == 4.0
    assert ev("---2") == -2.0


def test_exponent_can_carry_unary_minus():
    assert ev("2^-2") == 0.25


def test_scientific_notation():
    assert ev("1e-3") == 1e-3
    assert ev("2.5E2") == 250.0
    assert ev("1.5e+1") == 15.0


def test_functions():
    assert ev("exp(0)") == 1.0
    assert ev("log(exp(2.5))") == pytest.approx(2.5, rel=1e-15)
    assert ev("sqrt(9)") == 3.0
    assert ev("sin(0) + cos(0)") == 1.0


def test_variables_resolved_from_environment():
    assert ev("1/sigma^2", sigma=2.0) == 0.25
    assert ev("mu*sigma + 1", mu=3.0, sigma=0.5) == 2.5


def test_free_variable_collection():
    node = parse("exp(-a*x) + b*x - c")
    assert variables(node) == {"a", "b", "c", "x"}
    assert variables(parse("1 + 2")) == set()


def test_expression_keeps_source_verbatim():
    src = "1/sigma^2  + 0*mu"
    e = Expression(src)
    assert e.source == src
    assert e.variables == frozenset({"sigma", "mu"})
    assert e({"sigma": 1.0, "mu": 7.0}) == 1.0


def test_evaluation_over_jets_differentiates():
    # d/dsigma of 1/sigma^2 at sigma=1 is -2
    mu, sigma = seed((0.0, 1.0), 1)
    out = ev("1/sigma^2", mu=mu, sigma=sigma)
    assert out.value == 1.0
    assert out.d1[1] == -2.0


def test_unbound_variable_raises_at_evaluation():
    node = parse("x + y")
    with pytest.raises(EvaluationError):
        evaluate(node, {"x": 1.0})


def test_error_positions():
    with pytest.raises(ExpressionError) as err:
        parse("2 $ 3")
    assert err.value.position == 2

    with pytest.raises(ExpressionError) as err:
        parse("2 +")
    assert err.value.position == 3

    with pytest.raises(ExpressionError) as err:
        parse("(2")
    assert err.value.position == 2

    with pytest.raises(ExpressionError) as err:
        parse("1 2")
    assert err.value.position == 2


def test_unknown_function_rejected():
    with pytest.raises(ExpressionError) as err:
        parse("foo(2)")
    assert err.value.position == 0


def test_empty_source_rejected():
    with pytest.raises(ExpressionError):
        parse("")
    with pytest.raises(ExpressionError):
        parse("   ")


def test_malformed_number_rejected():
    with pytest.raises(ExpressionError):
        parse("1.2.3")


small = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


@given(small, small, small)
@settings(max_examples=200, deadline=None)
def test_arithmetic_matches_python(a, b, c):
    env = {"a": a, "b": b, "c": c}
    assert ev("a + b*c", **env) == a + b * c
    assert ev("a - b - c", **env) == a - b - c
    assert ev("a*(b + c)", **env) == a * (b + c)


@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_float_literals_round_trip(x):
    assert ev(repr(x)) == x


def test_plain_number_power_follows_the_jet_domain_rule():
    assert ev("(0-8)^2") == 64.0
    assert ev("(0-2)^(0-1)") == -0.5
    with pytest.raises(DomainError, match="negative base raised to fractional exponent"):
        ev("(0-8)^(1/3)")
    with pytest.raises(DomainError, match="negative base raised to fractional exponent"):
        ev("x^0.5", x=-4.0)


@given(st.floats(min_value=0.1, max_value=10.0), st.integers(min_value=-3, max_value=5))
@settings(max_examples=150, deadline=None)
def test_powers_match_python(base, k):
    assert ev(f"x^{k}", x=base) == pytest.approx(base ** k, rel=1e-15)
    assert ev("exp(k*log(x))", x=base, k=float(k)) == pytest.approx(
        base ** k, rel=1e-12
    )


def test_readme_function_list_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"the usual functions \(([^)]*)\)", " ".join(readme.split()))
    names = re.findall(r"`(\w+)`", listed.group(1))
    assert names
    for name in names:
        assert Expression(f"{name}(x)").variables == {"x"}
    assert sorted(names) == sorted(_FUNCTIONS)
