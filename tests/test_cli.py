"""Command-line surface: output shapes, exit codes, byte determinism."""

import contextlib
import hashlib
import io
import json
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from cupgeo import cli, verify
from cupgeo.cli import main, render_json
from cupgeo.cup_transform import make_rescaling, rescaled_model
from cupgeo.manifolds import gaussian_model


def run_cli(*argv, capsys=None):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def readme_example(subcommand):
    """The README's example of ``cupgeo <subcommand>``: its argv and the shown output.

    The shown output is split into the runs of lines between ``...`` elisions.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(rf"```\n\$ cupgeo ({subcommand} (?:.*\\\n)*.*)\n((?:.*\n)*?)```", readme)
    argv = shlex.split(block.group(1).replace("\\\n", " "))
    runs = [[]]
    for line in block.group(2).splitlines():
        if line.strip() == "...":
            runs.append([])
        else:
            runs[-1].append(line)
    return argv, [run for run in runs if run]


def assert_shows_in_order(out, runs):
    """Each run of lines appears whole in ``out``, each after the one before it."""
    lines = out.splitlines()
    start = 0
    for run in runs:
        at = next((i for i in range(start, len(lines) - len(run) + 1)
                   if lines[i:i + len(run)] == run), None)
        assert at is not None, run
        start = at + len(run)


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "cupgeo.cli", *argv],
        capture_output=True, text=True)


class TestTensors:
    def test_gaussian_json(self, capsys):
        rc, out, _ = run_cli("tensors", "--model", "gaussian", "--alpha", "0",
                             "--point", "0,1", "--json", capsys=capsys)
        assert rc == 0
        data = json.loads(out)
        assert data["model"] == "gaussian"
        assert data["alpha"] == 0
        entry = data["points"][0]
        assert entry["point"] == [0, 1]
        assert np.allclose(entry["g"], [[1.0, 0.0], [0.0, 2.0]], atol=1e-12)
        assert np.allclose(entry["g_inv"], [[1.0, 0.0], [0.0, 0.5]], atol=1e-12)
        assert entry["scalar_curvature"] == pytest.approx(-1.0, abs=1e-9)
        assert entry["t"][0][0][1] == pytest.approx(2.0, abs=1e-12)
        assert entry["t"][1][1][1] == pytest.approx(8.0, abs=1e-12)

    def test_gaussian_human(self, capsys):
        rc, out, _ = run_cli("tensors", "--model", "gaussian", "--alpha", "1",
                             "--point", "0,1", capsys=capsys)
        assert rc == 0
        assert "model gaussian  (alpha = 1)" in out
        assert "point (mu=0, sigma=1)" in out
        assert "metric g" in out
        assert "Gamma (Levi-Civita)" in out
        assert "Gamma (alpha=1)" in out
        # the alpha=1 connection is flat for an exponential family
        assert "scalar curvature: 0" in out
        rc, out, _ = run_cli("tensors", "--model", "gaussian", "--alpha", "0",
                             "--point", "0,1", capsys=capsys)
        assert "scalar curvature: -1" in out

    def test_matrix_columns_are_as_wide_as_their_widest_entry(self, capsys):
        rc, out, _ = run_cli("tensors", "--model", "gaussian", "--point", "0,0.0123456",
                             capsys=capsys)
        assert rc == 0
        lines = out.splitlines()
        for title in ("metric g", "inverse metric", "Ricci"):
            at = lines.index(f"  {title}:")
            assert lines[at + 1].split() == ["mu", "sigma"]
            for name, line in zip(("mu", "sigma"), lines[at + 2:at + 4]):
                label, *entries = line.split()
                assert label == name and len(entries) == 2, line
                assert all(np.isfinite(float(e)) for e in entries)

    def test_multinomial_barycenter(self, capsys):
        rc, out, _ = run_cli("tensors", "--model", "multinomial:3",
                             "--point", "0.333333333333333,0.333333333333333",
                             "--json", capsys=capsys)
        assert rc == 0
        entry = json.loads(out)["points"][0]
        assert np.allclose(entry["g"], [[6.0, 3.0], [3.0, 6.0]], atol=1e-10)
        assert entry["scalar_curvature"] == pytest.approx(0.5, abs=1e-9)

    def test_multiple_points(self, capsys):
        rc, out, _ = run_cli("tensors", "--model", "gaussian",
                             "--point", "0,1", "--point", "0,2", "--json",
                             capsys=capsys)
        assert rc == 0
        pts = json.loads(out)["points"]
        assert len(pts) == 2
        assert np.allclose(pts[1]["g"], [[0.25, 0.0], [0.0, 0.5]], atol=1e-12)

    def test_rescaling_file(self, tmp_path, capsys):
        cfg = tmp_path / "resc.json"
        cfg.write_text('{"alpha": 0.5, "potential": "0.3*mu"}')
        rc, out, _ = run_cli("tensors", "--model", "gaussian", "--alpha", "0.5",
                             "--point", "1,1", "--rescaling", str(cfg),
                             "--json", capsys=capsys)
        assert rc == 0
        gauss = gaussian_model()
        resc = make_rescaling(0.5, gauss.scalar_field("0.3*mu"))
        expected = rescaled_model(gauss, resc).metric_at((1.0, 1.0)).components
        assert np.allclose(json.loads(out)["points"][0]["g"], expected, rtol=1e-12)

    def test_json_reparse_rerender_is_identity(self, capsys):
        rc, out, _ = run_cli("tensors", "--model", "gaussian", "--alpha", "-0.5",
                             "--point", "0.3,1.7", "--json", capsys=capsys)
        assert rc == 0
        assert render_json(json.loads(out)) + "\n" == out

    def test_a_control_character_in_the_model_name_round_trips(self, tmp_path, capsys):
        source = Path(__file__).resolve().parent / "data" / "bounded-simplex.json"
        config = json.loads(source.read_text(encoding="utf-8"))
        config["name"] = "a\u0001b"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        rc, out, _ = run_cli("tensors", "--model", str(path), "--point", "0.6,0.1",
                             "--json", capsys=capsys)
        assert rc == 0
        assert json.loads(out)["model"] == "a\u0001b"
        assert render_json(json.loads(out)) + "\n" == out

    @pytest.mark.parametrize("pinned, args", [
        ("tensors-gaussian.json", ("--model", "gaussian", "--alpha", "0.5")),
        ("tensors-multinomial4.json", ("--model", "multinomial:4", "--alpha", "-0.5")),
        ("tensors-gaussian-rescaled.json", ("--model", "gaussian", "--alpha", "0.5",
                                            "--rescaling", "rescaling-gaussian.json")),
    ])
    def test_json_is_pinned_byte_for_byte(self, pinned, args, capsys):
        # the signs of printed zeros (Christoffel, curvature) are pinned too
        data = Path(__file__).resolve().parent / "data"
        points = {"gaussian": ("0.3,1.2", "-1,0.7"),
                  "multinomial:4": ("0.2,0.3,0.1", "0.1,0.25,0.4")}
        argv = [str(data / a) if a.endswith(".json") else a for a in args]
        argv += [f"--point={p}" for p in points[args[1]]]
        rc, out, _ = run_cli("tensors", *argv, "--json", capsys=capsys)
        assert rc == 0
        assert out.encode("utf-8") == (data / pinned).read_bytes()

    def test_repeat_run_is_byte_identical(self, capsys):
        args = ("tensors", "--model", "multinomial:3", "--alpha", "0.5",
                "--point", "0.2,0.3", "--json")
        _, first, _ = run_cli(*args, capsys=capsys)
        _, second, _ = run_cli(*args, capsys=capsys)
        assert first == second


    def test_readme_example_matches_the_code(self, capsys):
        argv, runs = readme_example("tensors")
        assert runs[-1] == ["  scalar curvature: -0.75"]
        rc, out, _ = run_cli(*argv, capsys=capsys)
        assert rc == 0
        assert_shows_in_order(out, runs)


class TestLaplacian:
    def test_a_tab_in_the_density_round_trips(self, capsys):
        rc, out, _ = run_cli("laplacian", "--model", "gaussian", "--point", "0,1",
                             "--density", "1 +\tmu", "--json", capsys=capsys)
        assert rc == 0
        assert json.loads(out)["density"] == "1 +\tmu"
        assert render_json(json.loads(out)) + "\n" == out

    def test_readme_example_matches_the_code(self, capsys):
        argv, runs = readme_example("laplacian")
        assert runs == [["(mu=0, sigma=1)  laplacian = -0.75  with coupling = 1.25"]]
        rc, out, _ = run_cli(*argv, capsys=capsys)
        assert rc == 0
        assert_shows_in_order(out, runs)

    def test_flat_chart(self, capsys):
        rc, out, _ = run_cli("laplacian", "--model", "euclidean:2",
                             "--alpha", "0", "--point", "0.3,0.4",
                             "--density", "x^2", "--json", capsys=capsys)
        assert rc == 0
        assert json.loads(out)["results"][0]["laplacian"] == pytest.approx(2.0, abs=1e-7)

    def test_constant_density_picks_up_curvature_term(self, capsys):
        rc, out, _ = run_cli("laplacian", "--model", "gaussian",
                             "--alpha", "0.5", "--point", "0,1",
                             "--density", "1", "--json", capsys=capsys)
        assert rc == 0
        assert json.loads(out)["results"][0]["laplacian"] == pytest.approx(
            -0.75, abs=1e-9)

    def test_nonlinear_coupling(self, capsys):
        rc, out, _ = run_cli("laplacian", "--model", "gaussian",
                             "--alpha", "0.5", "--point", "0,1",
                             "--density", "2", "--lambda", "2", "--a", "3",
                             "--json", capsys=capsys)
        assert rc == 0
        entry = json.loads(out)["results"][0]
        assert entry["laplacian"] == pytest.approx(-1.5, abs=1e-9)
        assert entry["nonlinear"] == pytest.approx(-1.5 + 2 * 8, abs=1e-9)

    def test_rescaling_leaves_value_unchanged(self, tmp_path, capsys):
        cfg = tmp_path / "resc.json"
        cfg.write_text('{"alpha": 0.5, "potential": "0.1*mu*sigma"}')
        base_args = ("laplacian", "--model", "gaussian", "--alpha", "0.5",
                     "--point", "0.5,1.4", "--density", "1 + 0.1*mu*sigma",
                     "--json")
        _, base, _ = run_cli(*base_args, capsys=capsys)
        _, moved, _ = run_cli(*base_args, "--rescaling", str(cfg), capsys=capsys)
        a = json.loads(base)["results"][0]["laplacian"]
        b = json.loads(moved)["results"][0]["laplacian"]
        assert b == pytest.approx(a, abs=1e-7)

    def test_human_line(self, capsys):
        rc, out, _ = run_cli("laplacian", "--model", "gaussian",
                             "--alpha", "0", "--point", "0,1",
                             "--density", "1", capsys=capsys)
        assert rc == 0
        assert "(mu=0, sigma=1)  laplacian = -1" in out

    def test_density_required(self, capsys):
        rc, _, err = run_cli("laplacian", "--model", "gaussian",
                             "--point", "0,1", capsys=capsys)
        assert rc == 2
        assert err.startswith("error:")
        assert "--density" in err

    def test_lambda_needs_exponent(self, capsys):
        rc, _, err = run_cli("laplacian", "--model", "gaussian",
                             "--point", "0,1", "--density", "1",
                             "--lambda", "2", capsys=capsys)
        assert rc == 2
        assert "--a" in err


class TestVerify:
    def test_single_check_json(self, capsys):
        rc, out, _ = run_cli("verify", "--default", "--check", "metric_compat",
                             "--json", "--seed", "5", capsys=capsys)
        assert rc == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["seed"] == 5
        assert len(data["checks"]) == 1
        assert data["checks"][0]["check_id"] == "metric_compat"

    def test_sabotaged_check_exits_one(self, capsys):
        rc, out, _ = run_cli("verify", "--default", "--check", "hessian_inv",
                             "--k", "0", capsys=capsys)
        assert rc == 1
        assert "FAIL" in out

    def test_full_default_suite_human(self, capsys):
        rc, out, _ = run_cli("verify", "--default", capsys=capsys)
        assert rc == 0
        assert "suite: PASS" in out
        for check_id in ("metric_compat", "codazzi", "conn_shift", "curv_shift",
                         "ricci_shift", "hessian_inv", "laplacian_inv",
                         "nonlinear_inv", "integrability"):
            assert check_id in out
        assert "hessian_inv[k=0]" in out
        assert "negative control" in out
        assert "flat=" in out

    def test_a_control_short_of_its_margin_says_so(self, tmp_path, capsys):
        # the s=1 control misses by 382x tol on this model, not by 1000x
        config = tmp_path / "steep.json"
        config.write_text(json.dumps({"name": "steep", "dim": 2, "coords": ["x", "y"],
                                      "metric": {"11": "1500*x", "22": "1"},
                                      "domain": {"x": [0.1, None]}}))
        rc, out, _ = run_cli("verify", "--model", str(config), capsys=capsys)
        assert rc == 1
        lines = out.splitlines()
        controls = {line.split()[0]: line for line in lines if "negative control" in line}
        assert controls["laplacian_inv[s=1]"].endswith(
            "  FAIL (negative control: 382x tol, 1000x required)")
        for label in ("hessian_inv[k=0]", "conn_shift[sym=1/3]"):
            assert controls[label].endswith("  FAIL (negative control, expected to fail)")
        assert lines[-1] == "suite: FAIL"

    def test_named_model_suite(self, capsys):
        rc, out, _ = run_cli("verify", "--model", "euclidean:2", "--json",
                             capsys=capsys)
        assert rc == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert len(data["checks"]) == 12

    def test_named_model_suite_runs_the_default_alphas(self, monkeypatch, capsys):
        seen = []

        def fake_run_suite(config):
            seen.append(config)
            return verify.SuiteResult(reports=())

        monkeypatch.setattr(cli, "run_suite", fake_run_suite)
        rc, _, _ = run_cli("verify", "--model", "euclidean:2", capsys=capsys)
        assert rc == 0
        assert seen[0].alphas is verify.DEFAULT_ALPHAS

    @pytest.mark.parametrize("model, digest", [
        ("multinomial:4", "8eb8e134ead8be7db38163e391ab930e72182740bde21b6be5d70711a1807afc"),
        ("multinomial:9", "0c0b6c2d317598c1b54b7afbe777a3bf93680f5420cdefeafe5c875c9448a551"),
    ])
    def test_named_model_json_is_pinned_by_sha256(self, model, digest, capsys):
        rc, out, _ = run_cli("verify", "--model", model, "--json", capsys=capsys)
        assert rc == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("domain", [
        {"x": [-1, 2], "y": [0.5, 3]},
        {"x": [None, 1], "y": [None, 2]},
        {"x": [None, -5], "simplex": True},
        {"x": [None, 5], "y": [2, None], "simplex": True},
        {"simplex": True},
    ], ids=["box", "upper bounds", "simplex, upper bound", "simplex, mixed bounds", "simplex"])
    def test_the_generic_grid_lies_inside_the_domain(self, domain, tmp_path, capsys):
        config = tmp_path / "model.json"
        config.write_text(json.dumps({"dim": 2, "coords": ["x", "y"],
                                      "metric": {"11": "1 + x^2", "22": "1 + y^2",
                                                 "12": "0.1*sin(x+y)"},
                                      "skewness": {"111": "x*y", "122": "0.2*y"},
                                      "domain": domain}))
        rc, out, err = run_cli("verify", "--model", str(config), capsys=capsys)
        assert (rc, err) == (0, "")
        assert out.splitlines()[-1] == "suite: PASS"

    def test_a_simplex_with_lower_bounds_is_verified_inside_them(self, capsys):
        # the grid used to sit at 1/3 on each axis, below the bound a >= 0.5
        config = Path(__file__).resolve().parent / "data" / "bounded-simplex.json"
        rc, out, err = run_cli("verify", "--model", str(config), capsys=capsys)
        assert (rc, err) == (0, "")
        assert out.splitlines()[-1] == "suite: PASS"

    def test_bounds_that_leave_no_room_under_the_simplex_are_one_error_line(self, tmp_path,
                                                                              capsys):
        config = tmp_path / "model.json"
        config.write_text(json.dumps({"dim": 2, "coords": ["x", "y"],
                                      "metric": {"11": "1", "22": "1"},
                                      "domain": {"x": [0.6, 1], "y": [0.5, 1], "simplex": True}}))
        rc, out, err = run_cli("verify", "--model", str(config), capsys=capsys)
        assert (rc, out) == (2, "")
        assert err == ("error: the bounds of model 'custom' leave no room for a grid inside "
                       "its domain\n")

    def test_default_and_model_together_is_one_error_line(self, capsys):
        rc, out, err = run_cli("verify", "--default", "--model", "gaussian", capsys=capsys)
        assert rc == 2
        assert out == ""
        assert err == "error: --default and --model cannot be combined\n"

    def test_unknown_model(self, capsys):
        rc, _, err = run_cli("verify", "--model", "nosuch", capsys=capsys)
        assert rc == 2
        assert err.startswith("error:")

    def test_one_dimensional_model_is_one_error_line(self):
        proc = run_subprocess("verify", "--model", "multinomial:2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("error: model case 'multinomial:2' is one-dimensional; "
                               "the suite needs models of dimension 2 or more\n")

    def test_default_json_is_pinned_byte_for_byte(self, capsys):
        # a change that moves these bytes on purpose regenerates the pinned file
        pinned = Path(__file__).resolve().parent / "data" / "verify-default-seed42.json"
        rc, out, _ = run_cli("verify", "--default", "--seed", "42", "--json", capsys=capsys)
        assert rc == 0
        assert out.encode("utf-8") == pinned.read_bytes()


class TestEstimate:
    def test_gaussian_matches_closed_form(self, capsys):
        rc, out, _ = run_cli("estimate", "--model", "gaussian", "--point", "0,1",
                             "--count", "20000", "--seed", "1", "--json",
                             capsys=capsys)
        assert rc == 0
        entry = json.loads(out)["results"][0]
        assert entry["count"] == 20000
        assert entry["se_reliable"] is True
        assert np.allclose(entry["metric_closed_form"], [[1, 0], [0, 2]], atol=1e-12)
        for i in range(2):
            for j in range(2):
                diff = abs(entry["metric"][i][j] - entry["metric_closed_form"][i][j])
                assert diff <= 4 * entry["metric_se"][i][j] + 1e-12

    def test_bernoulli_is_exact(self, capsys):
        rc, out, _ = run_cli("estimate", "--model", "multinomial:2",
                             "--point", "0.5", "--count", "400", "--seed", "9",
                             "--json", capsys=capsys)
        assert rc == 0
        entry = json.loads(out)["results"][0]
        assert entry["metric"] == [[4.0]]
        assert entry["metric_se"] == [[0.0]]

    def test_single_sample_flags_unreliable(self, capsys):
        rc, out, _ = run_cli("estimate", "--model", "gaussian", "--point", "0,1",
                             "--count", "1", "--seed", "0", capsys=capsys)
        assert rc == 0
        assert "[standard errors unreliable]" in out

    def test_human_table(self, capsys):
        rc, out, _ = run_cli("estimate", "--model", "gaussian", "--point", "0,1",
                             "--count", "2000", "--seed", "3", capsys=capsys)
        assert rc == 0
        assert "estimate / closed form / standard error" in out

    def test_seed_changes_output(self, capsys):
        args = ("estimate", "--model", "gaussian", "--point", "0,1",
                "--count", "1000", "--json")
        _, a, _ = run_cli(*args, "--seed", "1", capsys=capsys)
        _, b, _ = run_cli(*args, "--seed", "1", capsys=capsys)
        _, c, _ = run_cli(*args, "--seed", "2", capsys=capsys)
        assert a == b
        assert a != c

    def test_readme_example_matches_the_code(self, capsys):
        argv, runs = readme_example("estimate")
        assert len(runs) == 1 and len(runs[0]) == 3
        assert runs[0][-1].endswith("[mu,mu] 1.007438237 / 1 / 0.004530905967")
        rc, out, _ = run_cli(*argv, capsys=capsys)
        assert rc == 0
        assert out.splitlines()[:3] == runs[0]

    def test_model_without_sampler(self, capsys):
        rc, _, err = run_cli("estimate", "--model", "euclidean:2",
                             "--point", "0,0", capsys=capsys)
        assert rc == 2
        assert err.startswith("error:")


class TestErrorPaths:
    def test_malformed_point(self, capsys):
        rc, _, err = run_cli("tensors", "--model", "gaussian",
                             "--point", "0,abc", capsys=capsys)
        assert rc == 2
        assert err.startswith("error:")

    def test_point_outside_domain(self, capsys):
        rc, _, err = run_cli("tensors", "--model", "gaussian",
                             "--point", "0,-1", capsys=capsys)
        assert rc == 2
        assert "outside the domain" in err

    def test_point_dimension_mismatch(self, capsys):
        rc, _, err = run_cli("tensors", "--model", "gaussian",
                             "--point", "0,1,2", capsys=capsys)
        assert rc == 2

    def test_bad_rescaling_json(self, tmp_path, capsys):
        cfg = tmp_path / "resc.json"
        cfg.write_text("{not json")
        rc, _, err = run_cli("tensors", "--model", "gaussian", "--point", "0,1",
                             "--rescaling", str(cfg), capsys=capsys)
        assert rc == 2
        assert "rescaling" in err

    def test_boolean_rescaling_alpha_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "resc.json"
        cfg.write_text('{"alpha": true, "potential": "mu"}')
        rc, out, err = run_cli("tensors", "--model", "gaussian", "--point", "0,1",
                               "--rescaling", str(cfg), capsys=capsys)
        assert rc == 2
        assert out == ""
        assert err == "error: alpha must be a real number, got True\n"

    @pytest.mark.parametrize("alpha, message", [
        ("1" + "0" * 400, "alpha must be finite, got inf"),
        ('"0.5"', "alpha must be a real number, got '0.5'"),
    ])
    def test_a_rescaling_alpha_must_be_a_finite_json_number(self, tmp_path, capsys,
                                                            alpha, message):
        cfg = tmp_path / "resc.json"
        cfg.write_text(f'{{"alpha": {alpha}, "potential": "mu"}}')
        rc, out, err = run_cli("tensors", "--model", "gaussian", "--point", "0,1",
                               "--rescaling", str(cfg), capsys=capsys)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_an_overflowing_score_is_one_error_line_and_no_warning(self, capsys):
        # sigma = 1e308 draws samples whose score overflows to inf and nan
        rc, out, err = run_cli("estimate", "--model", "gaussian", "--point", "0,1e308",
                               "--count", "2", "--seed", "3", capsys=capsys)
        assert (rc, out) == (2, "")
        assert err == "error: non-finite log-likelihood derivatives at (0.0, 1e+308)\n"

    def test_missing_rescaling_file(self, capsys):
        rc, _, err = run_cli("tensors", "--model", "gaussian", "--point", "0,1",
                             "--rescaling", "/no/such/file.json", capsys=capsys)
        assert rc == 2

    @pytest.mark.parametrize("density", ["1/mu", "exp(1000*sigma)", "1e400*mu",
                                         "(0-8)^(1/3)", "log(mu)"])
    def test_undefined_density_is_one_error_line(self, density):
        # division by zero, overflow, an infinite literal, a negative constant
        # under a fractional power, and log of zero, at mu=0, sigma=1
        proc = run_subprocess("laplacian", "--model", "gaussian", "--point", "0,1",
                              "--density", density)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and density in lines[0]
        assert "(0.0, 1.0)" in lines[0]

    @pytest.mark.parametrize("flags", [("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"),
                                       ("--k", "nan"), ("--k", "inf")])
    def test_non_finite_or_non_positive_verify_knob(self, flags, capsys):
        # a zero or negative tolerance would let every negative control pass vacuously
        rc, out, err = run_cli("verify", "--default", *flags, capsys=capsys)
        assert rc == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert ("tolerance" if flags[0] == "--tol" else "hessian_k") in lines[0]

    @pytest.mark.parametrize("argv", [
        ("tensors", "--model", "gaussian", "--point", "0,1", "--alpha", "nan"),
        ("tensors", "--model", "gaussian", "--point", "0,1", "--alpha", "inf", "--json"),
        ("laplacian", "--model", "gaussian", "--point", "0,1", "--density", "1+mu",
         "--alpha", "inf"),
    ], ids=lambda argv: f"{argv[0]} {argv[-1]}")
    def test_non_finite_alpha_is_one_error_line(self, argv):
        proc = run_subprocess(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: alpha must be finite")

    @pytest.mark.parametrize("argv, named", [
        (("laplacian", "--model", "gaussian", "--point", "0,1", "--density", "10",
          "--lambda", "2", "--a", "1000"), "nonlinear operator is not finite at (0.0, 1.0); "
                                          "alpha = 0, a = 1000"),
        (("tensors", "--model", "gaussian", "--alpha", "1e200", "--point", "0,1", "--json"),
         "curvature is not finite at (0.0, 1.0); alpha = 1e+200"),
        (("laplacian", "--model", "gaussian", "--alpha", "1e200", "--point", "0,1",
          "--density", "1+mu"), "curvature is not finite at (0.0, 1.0); alpha = 1e+200"),
        (("verify", "--default", "--check", "hessian_inv", "--k", "1e308"),
         "Ricci-coupled Hessian is not finite at (-1.0, 0.6) (row 9); alpha = -0.5, k = 1e+308"),
    ], ids=["power", "tensors-alpha", "laplacian-alpha", "hessian-k"])
    def test_overflow_is_one_error_line(self, argv, named, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = run_cli(*argv, capsys=capsys)
        assert caught == []
        assert rc == 2
        assert out == ""
        assert err == f"error: {named}\n"

    @pytest.mark.parametrize("rescaled", [False, True], ids=["plain", "rescaled"])
    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_density_weight_is_one_error_line(self, weight, rescaled, tmp_path,
                                                         capsys):
        argv = ["laplacian", "--model", "gaussian", "--point", "0,1", "--density", "1+mu",
                "--weight", weight]
        if rescaled:
            config = tmp_path / "resc.json"
            config.write_text('{"alpha": 0.5, "potential": "0.1*mu*sigma"}')
            argv += ["--rescaling", str(config), "--alpha", "0.5"]
        rc, out, err = run_cli(*argv, capsys=capsys)
        assert rc == 2
        assert out == ""
        assert err == f"error: density weight r must be finite, got {weight}\n"

    @pytest.mark.parametrize("alpha", [[], ["--alpha", "0.3"]], ids=["default", "0.3"])
    def test_laplacian_alpha_must_be_the_rescalings(self, alpha, capsys):
        config = str(Path(__file__).resolve().parent / "data" / "rescaling-gaussian.json")
        rc, out, err = run_cli("laplacian", "--model", "gaussian", "--point", "0.5,1.3",
                               "--density", "1 + 0.1*mu*sigma", "--rescaling", config,
                               *alpha, capsys=capsys)
        given = alpha[1] if alpha else "0"
        assert (rc, out) == (2, "")
        assert err == (f"error: --alpha {given} differs from the rescaling's alpha 0.5; the "
                       "operators are invariant only at the rescaling's own alpha\n")
        rc, out, _ = run_cli("tensors", "--model", "gaussian", "--point", "0.5,1.3",
                             "--rescaling", config, *alpha, capsys=capsys)
        assert rc == 0 and f"(alpha = {given})" in out

    @pytest.mark.parametrize("a", ["nan", "inf"])
    def test_non_finite_exponent(self, a, capsys):
        rc, out, err = run_cli("laplacian", "--model", "gaussian", "--point", "0,1",
                               "--density", "1+mu", "--lambda", "2", "--a", a, capsys=capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: nonlinearity exponent a must be finite")

    def test_negative_seed(self, capsys):
        rc, out, err = run_cli("estimate", "--model", "gaussian", "--point", "0,1",
                               "--seed", "-1", capsys=capsys)
        assert rc == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "seed" in lines[0]

    def test_negative_verify_seed(self, capsys):
        rc, out, err = run_cli("verify", "--default", "--seed", "-3", capsys=capsys)
        assert rc == 2
        assert out == ""
        assert err == "error: seed must be >= 0, got -3\n"

    @pytest.mark.parametrize("fields, named", [
        ('"dim": "x"', "dim"), ('"dim": null', "dim"), ('"dim": 2.5', "dim"),
        ('"dim": true', "dim"), ('"dim": 33', "dim"),
        ('"dim": 2, "domain": {"x": ["a", 1]}', "'x'"),
        ('"dim": 2, "domain": {"x": [{}, 1]}', "'x'"),
        ('"dim": 2, "domain": {"x": [NaN, 1]}', "'x'"),
        ('"dim": 2, "domain": {"x": [1, 0]}', "'x'"),
        ('"dim": 2, "domain": {"simplex": "false"}', '"simplex"'),
    ], ids=lambda v: v.replace('"', ""))
    @pytest.mark.parametrize("command", ["tensors", "verify"])
    def test_bad_model_config_field_is_one_error_line(self, fields, named, command, tmp_path,
                                                      capsys):
        cfg = tmp_path / "model.json"
        cfg.write_text('{%s, "coords": ["x", "y"], "metric": {"11": "1", "22": "1"}}' % fields)
        extra = ("--point", "0.5,0.5") if command == "tensors" else ()
        rc, out, err = run_cli(command, "--model", str(cfg), *extra, capsys=capsys)
        assert rc == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0]

    @pytest.mark.parametrize("kind", ["model", "rescaling"])
    def test_an_integer_too_long_to_read_is_one_error_line(self, kind, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"dim": 1%s, "alpha": 1%s}' % ("0" * 5000, "0" * 5000))
        files = ("--model", str(cfg)) if kind == "model" else (
            "--model", "gaussian", "--rescaling", str(cfg))
        rc, out, err = run_cli("tensors", *files, "--point", "0,1", capsys=capsys)
        assert rc == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {kind} config is not valid JSON")

    @pytest.mark.parametrize("model", ["multinomial:100000", "euclidean:33", "config"])
    def test_a_model_above_the_dimension_cap_is_refused_at_once(self, model, tmp_path, capsys):
        if model == "config":
            coords = [f"x{i}" for i in range(33)]
            model = tmp_path / "model.json"
            model.write_text(json.dumps({"dim": 33, "coords": coords, "metric": {"11": "1"}}))
        start = time.perf_counter()
        rc, out, err = run_cli("tensors", "--model", str(model), "--point", "0.01", capsys=capsys)
        assert time.perf_counter() - start < 0.5
        assert rc == 2
        assert out == ""
        assert re.fullmatch(r"error: .*dim.* must be from 1 to 32, got (33|99999)\n", err)

    def test_a_long_sum_is_evaluated(self, tmp_path, capsys):
        terms = 1201
        rc, out, err = run_cli("laplacian", "--model", "gaussian", "--point", "0.5,1",
                               "--density", "+".join(["mu"] * terms), "--json", capsys=capsys)
        assert rc == 0 and err == ""
        _, times, _ = run_cli("laplacian", "--model", "gaussian", "--point", "0.5,1",
                              "--density", f"{terms}*mu", "--json", capsys=capsys)
        assert json.loads(out)["results"] == json.loads(times)["results"]
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"dim": 2, "coords": ["x", "y"],
                                   "metric": {"11": "+".join(["x"] * 1500), "22": "1"}}))
        rc, out, err = run_cli("tensors", "--model", str(cfg), "--point", "0.5,1", "--json",
                               capsys=capsys)
        assert rc == 0 and err == ""
        assert json.loads(out)["points"][0]["g"] == [[750, 0], [0, 1]]

    @pytest.mark.parametrize("where", ["density", "rescaling"])
    def test_a_deeply_nested_expression_is_one_error_line(self, where, tmp_path, capsys):
        nested = "(" * 300 + "mu" + ")" * 300
        if where == "density":
            argv = ("laplacian", "--model", "gaussian", "--point", "0,1", "--density", nested)
        else:
            cfg = tmp_path / "resc.json"
            cfg.write_text(json.dumps({"alpha": 0.5, "potential": nested}))
            argv = ("tensors", "--model", "gaussian", "--point", "0,1", "--rescaling", str(cfg))
        rc, out, err = run_cli(*argv, capsys=capsys)
        assert rc == 2
        assert out == ""
        assert err == "error: expression nests too deeply\n"

    def test_expression_error_positions_surface(self, capsys):
        rc, _, err = run_cli("laplacian", "--model", "gaussian",
                             "--point", "0,1", "--density", "1 +", capsys=capsys)
        assert rc == 2
        assert "error:" in err


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has closed the pipe: every write raises."""

    def writable(self):
        return True

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedPipe:
    @pytest.mark.parametrize("argv, status", [
        (("tensors", "--model", "multinomial:9", "--point", ",".join(["0.1"] * 8)), 0),
        (("tensors", "--model", "multinomial:9", "--point", ",".join(["0.1"] * 8), "--json"), 0),
        (("laplacian", "--model", "gaussian", "--point", "0,1", "--density", "1"), 0),
        (("estimate", "--model", "gaussian", "--point", "0,1", "--count", "10", "--json"), 0),
        (("verify", "--default", "--check", "metric_compat"), 0),
        (("verify", "--default", "--check", "hessian_inv", "--k", "0", "--json"), 1),
    ], ids=["tensors", "tensors-json", "laplacian", "estimate", "verify-pass", "verify-fail"])
    def test_a_closed_pipe_ends_the_output_quietly(self, argv, status):
        # the status is the command's, and no traceback or message follows
        err = io.StringIO()
        with contextlib.redirect_stdout(_ClosedPipe()), contextlib.redirect_stderr(err):
            assert main(list(argv)) == status
        assert err.getvalue() == ""


class TestFlagScope:
    """Each subcommand accepts only the shared flags it reads."""

    @pytest.mark.parametrize("argv", [
        ("tensors", "--model", "gaussian", "--point", "0,1", "--seed", "1"),
        ("tensors", "--model", "gaussian", "--point", "0,1", "--tol", "1e-3"),
        ("laplacian", "--model", "gaussian", "--point", "0,1", "--density", "1", "--seed", "1"),
        ("laplacian", "--model", "gaussian", "--point", "0,1", "--density", "1", "--tol", "1e-3"),
        ("verify", "--default", "--alpha", "0.5"),
        ("verify", "--default", "--point", "0,1"),
        ("verify", "--default", "--rescaling", "r.json"),
        ("estimate", "--model", "gaussian", "--point", "0,1", "--count", "10", "--alpha", "0.5"),
        ("estimate", "--model", "gaussian", "--point", "0,1", "--count", "10", "--tol", "1e-3"),
        ("estimate", "--model", "gaussian", "--point", "0,1", "--count", "10",
         "--rescaling", "r.json"),
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_unread_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSubprocessEntry:
    """The installed module entry point, end to end."""

    def test_module_invocation(self):
        proc = run_subprocess("tensors", "--model", "gaussian",
                              "--point", "0,1", "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["model"] == "gaussian"

    def test_usage_error_exits_two(self):
        proc = run_subprocess("verify", "--default", "--check", "nope")
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr

    def test_no_subcommand_exits_two(self):
        proc = run_subprocess()
        assert proc.returncode == 2
