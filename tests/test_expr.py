"""Expression grammar: parsing, precedence, compiled evaluation, error positions."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cupgeo.errors import DomainError, EvaluationError, ExpressionError
from cupgeo.expr import _FUNCTIONS, Expression, Program, parse
from cupgeo.jets import Jet, finite_difference_jet, seed


def ev(source, **env):
    return Expression(source)(env)


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
    assert Expression("exp(-a*x) + b*x - c").variables == {"a", "b", "c", "x"}
    assert Expression("1 + 2").variables == set()
    shared = Program([parse("a*x"), parse("exp(x) - b")])
    assert {name for _, name in shared.loads} == {"a", "b", "x"}


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
    e = Expression("x + y")
    with pytest.raises(EvaluationError, match="unbound variable 'y'"):
        e({"x": 1.0})


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


def test_program_computes_each_distinct_subtree_once():
    rest = "(1 - p1 - p2)"
    sources = [f"1/p1^2 - 1/{rest}^2", f"-1/{rest}^2", f"1/p2^2 - 1/{rest}^2"]
    program = Program([parse(s) for s in sources])
    # 19 operations one expression at a time; 1/(1 - p1 - p2)^2 and the
    # subtrees under it are shared by all three
    assert sum(len(Expression(s).program.code) for s in sources) == 19
    assert len(program.code) == 12
    assert Program([parse("x*y"), parse("x*y")]).outputs == [2, 2]


# -- compiled programs over the grammar ---------------------------------------
#
# Expressions in x and y over every production of the grammar, each operation
# kept inside its domain (positive log and fractional-power bases, division
# by at least 1, bounded exponents), so every draw evaluates to a finite jet.

_LEAVES = st.sampled_from(["x", "y", "0.5", "2", "3"])


def _extend(inner):
    pairs = st.tuples(inner, inner)
    return st.one_of(
        pairs.map(lambda t: f"({t[0]} + {t[1]})"),
        pairs.map(lambda t: f"({t[0]} - {t[1]})"),
        pairs.map(lambda t: f"({t[0]})*({t[1]})"),
        pairs.map(lambda t: f"({t[0]})/(1 + ({t[1]})*({t[1]}))"),
        pairs.map(lambda t: f"(1 + ({t[0]})*({t[0]}))^sin({t[1]})"),
        inner.map(lambda a: f"({a})^2"),
        inner.map(lambda a: f"({a})^-1.5" if a in ("x", "y") else f"({a})^3"),
        inner.map(lambda a: f"-({a})"),
        inner.map(lambda a: f"exp(sin({a}))"),
        inner.map(lambda a: f"log(1 + ({a})*({a}))"),
        inner.map(lambda a: f"sqrt(1 + ({a})*({a}))"),
        inner.map(lambda a: f"sin({a})"),
        inner.map(lambda a: f"cos({a})"),
    )


_SOURCES = st.recursive(_LEAVES, _extend, max_leaves=6)
_COORD = st.floats(min_value=0.5, max_value=2.0)


def _parts(value):
    if not isinstance(value, Jet):
        return [np.asarray(value)]
    return [np.asarray(value.deriv(k)) for k in range(value.order + 1)]


def _assert_bitwise(a, b):
    pa, pb = _parts(a), _parts(b)
    assert len(pa) == len(pb)
    for x, y in zip(pa, pb):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


@given(e1=_SOURCES, e2=_SOURCES, point=st.tuples(_COORD, _COORD),
       batch=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_shared_program_matches_each_expression_bitwise(e1, e2, point, batch):
    # e1 recurs as an output and inside another one, so the program shares it
    sources = [e1, e2, f"({e1})*({e2}) - ({e1})", e1]
    program = Program([parse(s) for s in sources])
    singles = [Expression(s) for s in sources]
    for coords in (point, batch):
        for order in (0, 1, 2):
            env = dict(zip("xy", seed(coords, order)))
            for shared, single in zip(program.run(env), singles):
                _assert_bitwise(shared, single(env))


@given(source=_SOURCES, point=st.tuples(_COORD, _COORD))
@settings(max_examples=150, deadline=None)
def test_program_values_match_floats_and_slopes_match_differences(source, point):
    e = Expression(source)
    jet = e(dict(zip("xy", seed(point, 1))))
    value = jet.value if isinstance(jet, Jet) else jet
    plain = e(dict(zip("xy", point)))
    if "/" in source or "^" in source:
        # a jet divides by multiplying with the reciprocal, squares and
        # multiplies for an integer power and takes exp(e log b) for a jet
        # exponent, where floats round once: equal to the last few bits
        assert value == pytest.approx(plain, rel=1e-12, abs=1e-12)
    else:
        assert value == plain
    fd = finite_difference_jet(lambda p: e(dict(zip("xy", p))), point, 1).d1
    d1 = jet.d1 if isinstance(jet, Jet) else np.zeros(2)
    # differencing loses digits in proportion to the value as well as the slope
    scale = max(1.0, abs(value), float(np.max(np.abs(fd))))
    assert np.max(np.abs(d1 - fd)) <= 1e-6 * scale
