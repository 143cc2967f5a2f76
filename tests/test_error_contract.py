"""The command line's error contract, fuzzed in-process through ``cli.main``.

Every run ends in one of three ways: exit 0 with no ``nan`` or ``inf`` on
stdout and nothing on stderr; exit 1, from ``verify`` only; or exit 2 with
exactly one stderr line, starting ``error:``.  No exception escapes ``main``.
Flags are given as ``--flag=value``, so argparse takes any drawn number,
negative ones included, as the flag's value.
"""

import contextlib
import io
import json
import re

from hypothesis import HealthCheck, given, settings, strategies as st

from cupgeo.cli import main

from test_expr import _SOURCES

# numbers as a JSON config may hold them, and values that are no number
_JSON_VALUES = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, -1e308,
                     True, False, None, "1", "x", 0, -1, 0.5, -0.5]),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.floats(),
)
_FLOAT_FLAG = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e400", "0", "-0"]),
    st.floats().map(repr),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400).map(str),
)
_INT_FLAG = st.integers(min_value=-10 ** 400, max_value=10 ** 400).map(str)
_COUNT = st.integers(min_value=-2, max_value=50).map(str)
_POINT = st.sampled_from(["0,1", "0.5,2", "-1,0.5", "0,-1", "0,1e308", "1e308,1", "1e308,1e308"])
# a density of the expression grammar, in the coordinates of the Gaussian model
_DENSITY = _SOURCES.map(lambda s: re.sub(r"\by\b", "sigma", re.sub(r"\bx\b", "mu", s)))

_TOKEN = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def _model_config(draw):
    """A Gaussian-like model config; at most one of its numbers is drawn from
    :data:`_JSON_VALUES`, and its metric entry may be any grammar expression."""
    bad = draw(st.sampled_from([None, "dim", "low", "high", "entry"]))
    value = lambda name, good: draw(_JSON_VALUES) if bad == name else good
    return json.dumps({
        "dim": value("dim", 2),
        "coords": ["mu", "sigma"],
        "metric": {"11": value("entry", draw(_DENSITY)), "22": "2/sigma^2"},
        "domain": {"sigma": [value("low", 0), value("high", None)]},
    })


@st.composite
def _command(draw, path):
    """An argv for one of the four subcommands, with the files it names written."""
    command = draw(st.sampled_from(["tensors", "laplacian", "estimate", "verify"]))
    if command == "verify":
        argv = ["verify", "--model", "gaussian", "--check", "codazzi"]
        for flag in ("tol", "k"):
            if draw(st.booleans()):
                argv.append(f"--{flag}={draw(_FLOAT_FLAG)}")
        if draw(st.booleans()):
            argv.append(f"--seed={draw(_INT_FLAG)}")
        return argv + draw(st.sampled_from([[], ["--json"]]))
    if command == "estimate":
        return ["estimate", "--model", "gaussian", f"--point={draw(_POINT)}",
                f"--count={draw(_COUNT)}", f"--seed={draw(_INT_FLAG)}",
                *draw(st.sampled_from([[], ["--json"]]))]

    model = "gaussian"
    if draw(st.booleans()):
        model = str(path / "model.json")
        (path / "model.json").write_text(_model_config(draw))
    argv = [command, "--model", model, f"--point={draw(_POINT)}",
            f"--alpha={draw(_FLOAT_FLAG)}", *draw(st.sampled_from([[], ["--json"]]))]
    if draw(st.booleans()):
        (path / "rescaling.json").write_text(json.dumps({
            "alpha": draw(st.one_of(st.just(0.5), _JSON_VALUES)), "potential": draw(_DENSITY)}))
        argv.append(f"--rescaling={path / 'rescaling.json'}")
    if command == "laplacian":
        argv += [f"--density={draw(_DENSITY)}", f"--weight={draw(_FLOAT_FLAG)}"]
        if draw(st.booleans()):
            argv += [f"--lambda={draw(_DENSITY)}", f"--a={draw(_FLOAT_FLAG)}"]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_run_ends_in_an_answer_a_verdict_or_one_error_line(tmp_path, data):
    argv = data.draw(_command(tmp_path), label="argv")
    rc, out, err = _run(argv)
    if rc == 0:
        assert err == ""
        assert not _TOKEN.search(out), out
    elif rc == 1:
        assert argv[0] == "verify"
    else:
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
