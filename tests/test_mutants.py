"""Planted one-line errors: each must fail at least one regular row of the suite.

A mutant is a function or a cached property recompiled from its own source
with one line changed, and patched in for one test; the source files are
never edited.  A function is patched in every ``cupgeo`` module and every
module-level table that holds it, as an edit of its source would change it
there too, and a method on its class.  Each run builds fresh models, so no geometry or jet computed under a
mutant outlives its test.
"""

import types

import pytest

from cupgeo import cup_transform, geometry, jets, verify
from cupgeo.cli import _case_for
from cupgeo.jets import Jet, seed
from cupgeo.manifolds import ExprScalarField, gaussian_model, multinomial_model

from helpers import plant

# (owner, name, line before, line after): geometry, the operators, then the
# closed-form predictions of cup_transform
MUTANTS = {
    "riemann quad x(-0.7)": (
        geometry.PointGeometry, "riemann",
        "quad = quad - np.swapaxes(quad, -1, -2)",
        "quad = -0.7 * (quad - np.swapaxes(quad, -1, -2))"),
    "christoffel lowering sign": (
        geometry.PointGeometry, "_lowered",
        "- _transposed(dg, -1, -3, -2)",
        "+ _transposed(dg, -1, -3, -2)"),
    "dgamma drops t dginv": (
        geometry.PointGeometry, "dgamma",
        'dskew += np.einsum("...ijm,...mkl->...kijl", self.t, self.dginv)',
        "pass"),
    "hessian gamma sign": (
        geometry, "_hessian",
        "return fj.d2 - np.einsum",
        "return fj.d2 + np.einsum"),
    "laplacian drops dginv": (
        geometry, "_laplacian",
        'out = out + np.einsum("...iji,...j->...", ws.dginv, fj.d1)',
        "out = out"),
    "trace scalar-curvature sign": (
        geometry, "_cup_trace",
        "+ k * ws.scalar * fj.value",
        "- k * ws.scalar * fj.value"),
    "nonlinear exponent a+1": (
        geometry, "nonlinear_cup_operator",
        "lam * np.float64(fval) ** a",
        "lam * np.float64(fval) ** (a + 1)"),
    "psi core drops alpha psi psi": (
        cup_transform, "_psi_shift_core",
        "return _hessian(ws, phi) + _bc(",
        "return _hessian(ws, phi) + 0.0 * _bc("),
    "connection shift doubles one delta": (
        cup_transform, "connection_shift_prediction",
        'np.einsum("kj,...i->...kij", eye, psi)',
        'np.einsum("ki,...j->...kij", eye, psi)'),
    "ricci shift (n-1) -> n": (
        cup_transform, "ricci_shift_prediction",
        "(model.dim - 1) * resc.alpha",
        "model.dim * resc.alpha"),
}


def reduced_config():
    """A 2-d and a 3-d case at two alphas, on fresh models."""
    cases = (_case_for(gaussian_model()), _case_for(multinomial_model(4)))
    return verify.SuiteConfig(cases=cases, alphas=(-1.0, 0.5))


def failed_rows(result):
    return [r.check_id for r in result.reports if not r.negative_control and not r.passed]


def test_the_reduced_config_passes_unmutated():
    result = verify.run_suite(reduced_config())
    assert result.passed
    assert failed_rows(result) == []


@pytest.fixture(scope="module")
def kills():
    """The regular rows each mutant fails on the reduced config, one suite run per mutant."""
    rows = {}
    for label, mutant in MUTANTS.items():
        with pytest.MonkeyPatch.context() as patch:
            plant(patch, *mutant)
            rows[label] = failed_rows(verify.run_suite(reduced_config()))
    return rows


@pytest.mark.parametrize("label", MUTANTS)
def test_a_mutant_fails_a_regular_row(label, kills):
    assert kills[label]


def test_integrability_is_the_one_row_that_kills_no_mutant(kills):
    # its curvature reconstruction fails under none of the ten, so a row
    # replacing it must bring a kill of its own
    killing = {row for rows in kills.values() for row in rows}
    assert set(verify.CHECK_IDS) - killing == {"integrability"}


def test_a_mutant_method_is_patched_on_its_class(monkeypatch):
    # no module holds a plain method, so the plant sets it on the class
    before = (1 / seed((2.0,), 2)[0]).d2
    plant(monkeypatch, Jet, "_reciprocal", "2.0 * _power(inv, 3)", "2.2 * _power(inv, 3)")
    after = (1 / seed((2.0,), 2)[0]).d2
    assert before == pytest.approx(0.25) and after == pytest.approx(0.275)


def test_a_mutant_reaches_a_function_table_and_the_unrolled_code():
    # expr's function tables hold jets.log, and the unrolled code of log(x),
    # generated before the plant, is neither reused under it nor after it
    def d1_of_log():
        return ExprScalarField("log(x)", ("x",)).jet((2.0,), 2).d1.tolist()

    assert d1_of_log() == [0.5]
    with pytest.MonkeyPatch.context() as patch:
        plant(patch, jets, "log", "inv = lambda: 1.0 / x.value", "inv = lambda: 1.5 / x.value")
        assert d1_of_log() == [0.75]
    assert d1_of_log() == [0.5]


def _halve(x):
    return x / 2


def test_a_plant_that_patches_nothing_fails(monkeypatch):
    # no cupgeo module holds the function, and its owner is not a class
    owner = types.SimpleNamespace(_halve=_halve)
    with pytest.raises(AssertionError, match="patch nothing"):
        plant(monkeypatch, owner, "_halve", "x / 2", "x / 3")
