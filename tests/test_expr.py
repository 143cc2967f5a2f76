"""Expression grammar: parsing, precedence, compiled evaluation, error positions."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cupgeo import expr
from cupgeo.errors import CupGeoError, DomainError, EvaluationError, ExpressionError
from cupgeo.expr import (
    _FUNCTIONS,
    Expression,
    Program,
    _unroll,
    _unrolled,
    parse,
)
from cupgeo.jets import Jet, constant_at, finite_difference_jet, seed
from cupgeo.manifolds import gaussian_model, multinomial_model
from cupgeo.tensor_core import field_jet


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


def test_nesting_deeper_than_the_stack_is_an_expression_error_with_a_position():
    with pytest.raises(ExpressionError, match="nests too deeply") as err:
        parse("(" * 300 + "mu" + ")" * 300)
    assert 0 < err.value.position < 300
    assert parse("(" * 50 + "mu" + ")" * 50) == ("var", "mu")


def test_a_sum_of_any_length_compiles():
    """``mu+mu+...`` parses into a left-deep tree, as deep as the sum is long."""
    source = "+".join(["mu"] * 5000)
    assert Expression(source)({"mu": 0.75}) == 3750.0
    field = gaussian_model().scalar_field(source)
    points = np.array([[0.75, 2.0], [0.5, 1.0]])
    for order in (0, 2):
        # the first request at an order takes the jets, later ones the unrolled
        # code where it is within the statement budget
        for x in (points, points[0], points, points[1]):
            jet = field.jet(x, order)
            assert np.array_equal(jet.value, 5000.0 * x[..., 0])
            if order:
                assert np.array_equal(jet.deriv(1), np.broadcast_to([5000.0, 0.0], x.shape))
                assert not jet.deriv(2).any()


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


# -- unrolled code against the jets ---------------------------------------------


def _jet_route(program, coords, order):
    """Every output of ``program`` by :meth:`Program.run` on seeded jets, as
    per-order part lists."""
    values = program.run(dict(zip("xy", seed(coords, order))))
    return [_parts(v if isinstance(v, Jet) else constant_at(v, coords, order)) for v in values]


@given(e1=_SOURCES, e2=_SOURCES, point=st.tuples(_COORD, _COORD),
       batch=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_unrolled_code_matches_the_jets_bitwise(e1, e2, point, batch):
    program = Program([parse(e1), parse(e2), parse(f"({e1})*({e2}) - ({e1})")])
    for coords in (np.array(point), np.array(batch)):
        lead = (slice(None),) * (coords.ndim - 1)
        for order in (0, 1, 2):
            code = _unroll(program, ("x", "y"), order)
            assert code is not None
            parts = code(coords)
            for i, ref in enumerate(_jet_route(program, coords, order)):
                for k, part in enumerate(ref):
                    got = parts[k][lead + (i,)]
                    # the unrolled code may give 0.0 where the jets give -0.0
                    assert got.shape == part.shape
                    assert (got + 0.0).tobytes() == (part + 0.0).tobytes(), (i, k)


def test_a_program_is_unrolled_at_its_first_request_and_kept_in_a_bounded_lru():
    def program(c):  # a number no other test uses keeps the key fresh
        return Program([parse(f"exp(x*y) + {c}")])

    code = _unrolled(program(0.1234375), ("x", "y"), 2)
    assert code is not None
    assert _unrolled(program(0.1234375), ("x", "y"), 2) is code
    for i in range(expr.COMPILED_MEMO_SIZE):
        _unrolled(program(i + 0.5), ("x", "y"), 2)
    assert len(expr._memo) == expr.COMPILED_MEMO_SIZE
    again = _unrolled(program(0.1234375), ("x", "y"), 2)  # evicted: unrolled afresh
    assert again is not None and again is not code


def test_neither_route_gives_a_negative_zero():
    # -(x*0) is -0.0 for x > 0 in float and jet arithmetic alike
    program = Program([parse("-(x*0) + y"), parse("0*y*x - x*0")])
    for coords in (np.array([1.0, -1.0]), np.array([[1.0, -1.0], [2.0, 3.0]])):
        for order in (0, 1, 2):
            for parts in (program._stacked_jets(("x", "y"), coords, order),
                          _unroll(program, ("x", "y"), order)(coords)):
                for part in parts:
                    assert not np.signbit(part[part == 0]).any()


def test_unrolled_code_holds_only_generated_names():
    # identifiers and numbers of the source never reach the generated code
    program = Program([parse("exp(a_b*K) + 3.5^sqrt(X) - log(K)/sin(0.25)")])
    code = _unroll(program, ("X", "a_b", "K"), 2).fn.__code__
    assert not code.co_names  # the functions it calls come in K, with the numbers
    assert all(re.fullmatch(r"X|K|[xktf]\d+", name) for name in code.co_varnames)
    assert set(code.co_consts) <= {None}


def _statements(code):
    return sum(1 for name in code.fn.__code__.co_varnames if re.fullmatch(r"t\d+", name))


# Statements of the unrolled metric and skewness at orders 0, 1 and 2.  Code
# that is generated from the jet arithmetic must not grow past these counts.
_STATEMENTS = {
    "gaussian": ((3, 8, 15), (5, 11, 20)),
    "multinomial:3": ((7, 12, 20), (11, 27, 48)),
    "multinomial:4": ((10, 17, 28), (15, 36, 64)),
}


@pytest.mark.parametrize("name", list(_STATEMENTS))
def test_built_in_fields_unroll_into_pinned_statement_counts(name):
    model = gaussian_model() if name == "gaussian" else multinomial_model(int(name[-1]))
    for field, counts in zip((model.metric, model.skewness), _STATEMENTS[name]):
        got = tuple(_statements(_unroll(field.program, field.coord_names, order))
                    for order in (0, 1, 2))
        assert got == counts, field.rank


def test_unrolled_code_computes_only_what_its_order_needs():
    # the jets compute the cosine of sin at every order; its value needs none
    code = _unroll(Program([parse("sin(x)")]), ("x", "y"), 0)
    assert _statements(code) == 1
    assert np.cos not in code.consts
    assert np.cos in _unroll(Program([parse("sin(x)")]), ("x", "y"), 1).consts


def _outcome(field, coords, order, compute):
    try:
        jet = field_jet(field.label, coords, order, compute)
    except CupGeoError as e:
        return type(e), str(e)
    return [np.asarray(jet.deriv(k)) + 0.0 for k in range(order + 1)]


@pytest.mark.parametrize("source, bad", [
    ("1/mu", 0.0), ("log(mu)", -1.0), ("sqrt(mu)", -1.0), ("sqrt(mu)", 0.0),
    ("(-1)^0.5", 1.0), ("mu^sigma", 0.0), ("mu^sigma", -1.0), ("0^sigma", 1.0),
    ("1e400*mu", 1.0), ("exp(1000*sigma)", 1.0), ("0*sqrt(mu)", 0.0), ("mu^-1", 0.0),
    ("mu^-1", 1e-160),  # mu^-3, of the second derivative, underflows to 0
    ("mu + 1/0", 1.0), ("mu/0", 1.0),
    # the check or the division that fails is needed by no entry at these orders
    ("log(mu)^0", -1.0), ("sqrt(mu)^0", 0.0), ("sqrt(mu)^0", -1.0), ("(mu-2)^1.5", 1.0),
    ("(mu-2)^1.5", 2.0),
    # tracing meets 1/0 at either point; the jets raise the error of log(-1) first
    ("log(mu) + 1/0", -1.0), ("log(mu) + 1/0", 0.5),
])
def test_unrolled_code_fails_as_the_jets_do(source, bad):
    field = gaussian_model().scalar_field(source)

    def by_jets(c, o):
        return field.expression(dict(zip(field.coord_names, seed(c, o))))

    for coords in (np.array([bad, 1.0]), np.array([[0.5, 1.0], [bad, 1.0]])):
        for order in (0, 1, 2):
            expected = _outcome(field, coords, order, by_jets)
            got = _outcome(field, coords, order, field._jet)
            if isinstance(expected, tuple):
                assert got == expected
            else:
                assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]
            fresh = gaussian_model().scalar_field(source)
            try:
                fresh.jet(coords, order)
            except CupGeoError as e:
                assert (type(e), str(e)) == expected
            else:
                assert not isinstance(expected, tuple)
