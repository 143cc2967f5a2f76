"""The laws on generic statistical manifolds, not only on the two built-in families.

Both default cases are dually flat exponential families of constant
alpha-curvature, where a law could hold for a special reason.  Here
hypothesis draws models of dimension 2 and 3 from JSON configs: the metric
is L L^T with ``exp(...)`` on the diagonal of the lower-triangular L, so it
is positive-definite everywhere, and the skewness classes mix polynomial,
``sin``, ``cos`` and ``exp`` terms.  Each model gets rescaling potentials,
r = 1 densities, the four couplings every verify case checks, a few alphas
and a small grid.

Every law row must pass and every negative control must miss by
:data:`cupgeo.verify.CONTROL_FACTOR`.  ``integrability`` is left out: it is
an identity in dimension 2 and fails on generic 3-d models, where it is not
a law.  A planted Riemann quadratic-term mutant must make the property fail.
"""

import dataclasses
import json
from itertools import combinations_with_replacement

import pytest
from hypothesis import Phase, given, settings, strategies as st

from cupgeo import SuiteConfig, geometry, parse_model, run_check
from cupgeo.verify import _NEGATIVE_CONTROLS, CHECK_IDS, _case, control_failed_as_expected

from helpers import plant

LAWS = tuple(c for c in CHECK_IDS if c != "integrability")
NAMES = ("x", "y", "z")

# Nonzero one-digit numbers, so that no drawn model degenerates to a flat or
# unrescaled one: a potential that vanishes at every grid point leaves nothing
# for a negative control to miss.  A potential is therefore one term, which
# is nonzero away from the coordinate planes, and no grid point lies on them.
COEF = st.sampled_from([-0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4])
COORD = st.sampled_from([-0.5, -0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4, 0.5])


def terms(names):
    """One term, polynomial, sin, cos or exp in the coordinates, and a sum of one or two."""
    var = st.sampled_from(names)
    term = st.one_of(
        st.builds("{}*{}*{}".format, COEF, var, var),
        st.builds("{}*sin({})".format, COEF, var),
        st.builds("{}*cos({})".format, COEF, var),
        st.builds("{}*exp({}*{})".format, COEF, COEF, var),
    )
    return term, st.lists(term, min_size=1, max_size=2).map(" + ".join)


TERMS = {n: terms(NAMES[:n]) for n in (2, 3)}  # built once: a new strategy is slow to draw


def key(*index):
    return "".join(str(i + 1) for i in index)


@st.composite
def generic_cases(draw):
    """A JSON model config and the suite inputs of one generic model."""
    n = draw(st.integers(2, 3))
    names, (one, term) = NAMES[:n], TERMS[n]
    lower = {(i, j): draw(term) if i > j else f"exp({draw(term)})"
             for i in range(n) for j in range(i + 1)}
    metric = {key(i, j): " + ".join(f"({lower[i, k]})*({lower[j, k]})" for k in range(i + 1))
              for i in range(n) for j in range(i, n)}
    skewness = {}
    for index in combinations_with_replacement(range(n), 3):
        if draw(st.booleans()):
            skewness[key(*index)] = draw(term)
    return {
        "config": {"dim": n, "coords": list(names), "metric": metric,
                   "skewness": skewness, "domain": {}},
        "points": draw(st.lists(st.tuples(*[COORD] * n), min_size=2, max_size=3, unique=True)),
        "potentials": draw(st.lists(one, min_size=1, max_size=2)),
        "densities": ["1", f"exp({draw(term)})"],
        "alphas": draw(st.lists(st.sampled_from([-1.0, -0.5, 0.3, 0.7, 1.0]),
                                min_size=2, max_size=3, unique=True)),
    }


def suite_config(case):
    model = parse_model(json.dumps(case["config"]))
    return SuiteConfig(
        cases=(_case(model, case["points"], case["potentials"], case["densities"]),),
        alphas=tuple(case["alphas"]),
    )


def assert_laws_hold(case):
    config = suite_config(case)
    for check_id in LAWS:
        report = run_check(check_id, config)
        assert report.passed, (check_id, report.max_rel_residual, report.worst_point)
    for label, base_id, overrides in _NEGATIVE_CONTROLS:
        report = run_check(base_id, dataclasses.replace(config, **overrides))
        assert control_failed_as_expected(report), (label, report.max_rel_residual)


EXAMPLES = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@EXAMPLES
@given(generic_cases())
def test_every_law_holds_on_generic_models(case):
    assert_laws_hold(case)


def test_a_riemann_quadratic_term_mutant_fails_the_property(monkeypatch):
    plant(monkeypatch, geometry.PointGeometry, "riemann",
          "quad = quad - np.swapaxes(quad, -1, -2)",
          "quad = -0.7 * (quad - np.swapaxes(quad, -1, -2))")
    # the first failing model is reported as drawn: shrinking it would rerun the
    # suite hundreds of times
    unshrunk = settings(EXAMPLES, phases=[Phase.generate], report_multiple_bugs=False)
    property_ = unshrunk(given(generic_cases())(assert_laws_hold))
    with pytest.raises(AssertionError, match="_shift|_inv"):
        property_()
