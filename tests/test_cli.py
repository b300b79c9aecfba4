import cmath
import contextlib
import io
import json
import math
import re
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from lightningpoly import analysis, cli, corners
from lightningpoly.analysis import BoundContext, arc_grid
from lightningpoly.approx import ApproxConfig, deserialize, optimal_sigma
from lightningpoly.cli import ExperimentConfig, main, run
from lightningpoly.kernels import (
    KernelConfig,
    PoleCollisionError,
    QuadratureNonConvergence,
    truncated_integral,
    truncated_integral_log,
)

POLYGONS = Path(__file__).resolve().parent.parent / "scripts" / "polygons"


class TestArgumentHandling:
    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError, match="unknown command"):
            ExperimentConfig(command="frobnicate")

    def test_invalid_numeric_config_exits_2(self, capsys):
        code = main(["sweep", "--alpha", "2.0", "--beta", "0",
                     "--N1", "9,16,25,36"])
        assert code == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_missing_polygon_file_exits_2(self, capsys):
        code = main(["laplace", "--polygon", "/nonexistent.poly"])
        assert code == 2

    def test_config_file_overrides_defaults(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("W = 2.0\nk = 1\n")
        code = main(["decomp", "--alpha", "0.5", "--config", str(cfgfile),
                     "--json", str(tmp_path / "out.json")])
        assert code == 0
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["W"] == 2.0 and payload["k"] == 1

    def test_explicit_flag_beats_config_file(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("W = 2.0\n")
        out = tmp_path / "out.json"
        code = main(["decomp", "--alpha", "0.5", "--W", "3.0",
                     "--config", str(cfgfile), "--json", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["W"] == 3.0

    def test_explicit_default_valued_flag_beats_config_file(self, tmp_path):
        # --sigma opt repeats the default and must still win
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("sigma = 4\n")
        out = tmp_path / "out.json"
        code = main(["approx", "--alpha", "0.5", "--beta", "1", "--N1", "9",
                     "--sigma", "opt", "--config", str(cfgfile), "--json", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["sigma"] == optimal_sigma(0.5, 1.0)

    def test_seed_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decomp", "--alpha", "0.5", "--seed", "3"])
        assert exc.value.code == 2
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("seed = 3\n")
        assert main(["decomp", "--alpha", "0.5", "--config", str(cfgfile)]) == 2

    @pytest.mark.parametrize("argv, reason", [
        (["sweep", "--alpha", "0.5", "--beta", "1", "--N1", ","], "--N1 lists no pole counts"),
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--T", ","], "--T lists no truncations"),
        (["nearorigin", "--alpha", "0.5", "--beta", "1", "--T", ","],
         "--T lists no truncations"),
        (["laplace", "--polygon", "builtin:concave-quad", "--N", ","],
         "--N lists no pole budgets"),
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--sigma", ","],
         "--sigma lists no clustering parameters"),
    ])
    def test_empty_list_exits_2(self, argv, reason, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and reason in err

    @pytest.mark.parametrize("argv, reason", [
        (["sweep", "--alpha", "0.5", "--beta", "1", "--N1", "9,16,25"],
         "--N1 lists 3 pole counts; the rate fit needs >= 4"),
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--T", "4,6"],
         "--T lists 2 truncations; the slope fit needs >= 3"),
    ])
    def test_too_few_fit_points_exits_2_before_measuring(self, argv, reason, tmp_path,
                                                         capsys):
        csv = tmp_path / "out.csv"
        assert main(argv + ["--csv", str(csv)]) == 2
        assert f"invalid configuration: {reason}" in capsys.readouterr().err
        assert not csv.exists()

    @pytest.mark.parametrize("argv, reason", [
        # n_quad = ceil((T*kappa1)^2/h) squares the sign away: -5 ran as 5
        (["nearorigin", "--alpha", "0.5", "--beta", "1", "--T=-5,10"],
         "T must be positive, got -5.0"),
        (["nearorigin", "--alpha", "0.5", "--beta", "1", "--T", "0"],
         "T must be positive, got 0.0"),
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--T=-4,6,8,10"],
         "T must be positive, got -4.0"),
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--T", "0,6,8,10"],
         "T must be positive, got 0.0"),
    ])
    def test_non_positive_truncation_exits_2(self, argv, reason, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        assert main(argv + ["--csv", str(csv)]) == 2
        assert f"invalid configuration: {reason}" in capsys.readouterr().err
        assert not csv.exists()

    @pytest.mark.parametrize("argv, reason", [
        # three equal truncations passed the >= 3 check and fit a slope
        # through one point; a repeated n1 counted twice in the rate fit
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--T", "6,6,6"],
         "--T repeats a value, got [6.0, 6.0, 6.0]"),
        (["nearorigin", "--alpha", "0.5", "--beta", "1", "--T", "5,10,5"],
         "--T repeats a value"),
        (["sweep", "--alpha", "0.5", "--beta", "1", "--N1", "9,9,16,25,36"],
         "--N1 repeats a value, got [9, 9, 16, 25, 36]"),
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--sigma", "opt,opt*1"],
         "--sigma repeats a value"),
        (["laplace", "--polygon", "builtin:concave-quad", "--N", "40,80,40"],
         "--N repeats a value, got [40, 80, 40]"),
    ])
    def test_repeated_sample_exits_2(self, argv, reason, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        assert main(argv + ["--csv", str(csv)]) == 2
        assert f"invalid configuration: {reason}" in capsys.readouterr().err
        assert not csv.exists()

    def test_repeated_corner_weights_are_accepted(self, tmp_path):
        csv = tmp_path / "out.csv"
        code = main(["laplace", "--polygon", "builtin:concave-quad", "--N", "40",
                     "--weights", "1,0.5,1,0.5", "--csv", str(csv)])
        assert code in (0, 1)
        assert len(csv.read_text().splitlines()) == 2

    @pytest.mark.parametrize("argv, fit_key, cause", [
        (["sweep", "--alpha", "0.5", "--beta", "1", "--N1", "1,2,3,4"], "fitted_rate",
         "sweep: insufficient span: need >= 4 records inside the error band"),
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--T", "1,1.5,2,2.5"], "slope",
         "insufficient span for slope fit"),
    ])
    def test_errors_outside_the_band_fail_the_check(self, argv, fit_key, cause, tmp_path,
                                                    capsys):
        j = tmp_path / "out.json"
        assert main(argv + ["--json", str(j)]) == 1
        err = capsys.readouterr().err
        assert cause in err and "invalid configuration" not in err
        payload = json.loads(j.read_text())
        assert payload["pass"] is False
        fits = [c[fit_key] for c in payload.get("curves", [payload])]
        assert fits == [None]

    @pytest.mark.parametrize("argv, reason", [
        (["quaderr", "--alpha", "1", "--beta", "1", "--sigma", "3"], "alpha must lie in (0, 1)"),
        (["nearorigin", "--alpha", "1", "--beta", "1"], "alpha must lie in (0, 1)"),
        # sigma^2 would underflow to h = 0
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--sigma", "1e-200"],
         "sigma=1e-200, alpha=0.5 leave the double-precision range"),
        (["nearorigin", "--alpha", "0.5", "--beta", "1", "--h", "0"], "h must be positive"),
    ])
    def test_trapezoid_config_checked_before_dividing(self, argv, reason, capsys):
        assert main(argv) == 2
        assert f"invalid configuration: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["2", "2.5", "-1"])
    def test_quaderr_checks_beta_before_integrating(self, beta, monkeypatch, tmp_path,
                                                    capsys):
        # beta = 2 once reached the quadrature and died of non-convergence
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran before beta was checked")

        monkeypatch.setattr(analysis, "quadrature_error_curve", no_quadrature)
        csv = tmp_path / "q.csv"
        argv = ["quaderr", "--alpha", "0.5", "--beta", beta, "--sigma", "3",
                "--T", "4,6,8", "--csv", str(csv)]
        assert main(argv) == 2
        assert "invalid configuration: beta must lie in [0, 2)" in capsys.readouterr().err
        assert not csv.exists()

    @pytest.mark.parametrize("argv, reason", [
        (["approx", "--alpha", "0.5", "--beta", "1", "--N1", "9", "--sigma", "nan"],
         "sigma must be positive and finite, got nan"),
        (["approx", "--alpha", "0.5", "--beta", "1", "--N1", "9", "--C", "nan"],
         "C must be positive and finite"),
        (["approx", "--alpha", "0.5", "--beta", "1", "--N1", "9", "--C", "inf"],
         "C must be positive and finite"),
        (["sweep", "--alpha", "0.5", "--beta", "1", "--N1", "9,16,25,36", "--sigma", "nan"],
         "sigma must be positive and finite, got nan"),
        (["sweep", "--alpha", "0.5", "--beta", "1", "--N1", "9,16,25,36", "--C", "nan"],
         "C must be positive and finite"),
        (["sweep", "--alpha", "0.5", "--beta", "1", "--N1", "9,16,25,36", "--C", "inf"],
         "C must be positive and finite"),
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--C", "nan"],
         "C must be positive and finite"),
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--sigma", "nan"],
         "sigma must be positive and finite, got nan"),
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--T", "nan,4,6"], "T must be finite"),
        (["nearorigin", "--alpha", "0.5", "--beta", "1", "--C", "nan"],
         "C must be positive and finite"),
        (["nearorigin", "--alpha", "0.5", "--beta", "1", "--h", "nan"],
         "h must be positive and finite"),
        (["nearorigin", "--alpha", "0.5", "--beta", "1", "--T", "nan,4,6"], "T must be finite"),
        (["decomp", "--alpha", "0.25", "--W", "nan"], "W must be positive and finite"),
        (["laplace", "--polygon", "builtin:concave-quad", "--sigma", "nan"],
         "sigma must be positive and finite"),
        (["laplace", "--polygon", "builtin:concave-quad", "--sigma", "inf"],
         "sigma must be positive and finite"),
        (["sweep", "--alpha", "0.5", "--beta", "1", "--N1", "9,16,25,36", "--rate-tol", "nan"],
         "--rate-tol must be finite"),
        (["sweep", "--alpha", "0.5", "--beta", "1", "--N1", "9,16,25,36", "--r2-min", "nan"],
         "--r2-min must be finite"),
        (["laplace", "--polygon", "builtin:concave-quad", "--final-err", "nan"],
         "--final-err must be finite"),
        (["laplace", "--polygon", "builtin:concave-quad", "--weights", "1,nan,1,1"],
         "--weights must be finite"),
        # only h = sigma^2*alpha^2 is used, so -3 would silently run as 3
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--sigma=-3"],
         "sigma must be positive and finite, got -3.0"),
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--sigma", "0"],
         "sigma must be positive and finite, got 0.0"),
        (["approx", "--alpha", "0.5", "--beta", "1", "--N1", "9", "--sigma", "opt*-1"],
         "sigma must be positive and finite, got -6.283185307179586"),
        # plan_basis would clamp a negative weight to 4 poles, as it does 0
        (["laplace", "--polygon", "builtin:concave-quad", "--weights=-5,1,1,1"],
         "corner_weights must be >= 0"),
    ])
    def test_non_finite_parameter_exits_2(self, argv, reason, capfd):
        # rejected before any LAPACK call or quadrature can see the value
        assert main(argv) == 2
        out, err = capfd.readouterr()
        assert f"invalid configuration: {reason}" in err
        assert "DLASCL" not in out + err

    @pytest.mark.parametrize("argv", [
        ["laplace", "--polygon", "builtin:concave-quad", "--N", "40", "--n2", "-1"],
        ["approx", "--alpha", "0.5", "--beta", "1", "--N1", "9", "--N2", "-1"],
    ])
    def test_negative_n2_exits_2(self, argv, capsys):
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration: n2 must be >= 0" in err

    @pytest.mark.parametrize("oversample", ["0", "-1"])
    def test_oversample_below_one_exits_2(self, oversample, tmp_path, capsys):
        csv = tmp_path / "o.csv"
        code = main(["laplace", "--polygon", "builtin:concave-quad", "--N", "40",
                     "--oversample", oversample, "--csv", str(csv)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"invalid configuration: oversample must be >= 1, got {oversample}" in err
        assert not csv.exists()

    def test_oversized_system_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # N = 40 is small and would solve; N = 2000 at oversample 64 asks for
        # an 8 GiB [A b], and the run stops in validation, before the first
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(cli.corners, "solve_dirichlet", no_solve)
        csv, out = tmp_path / "o.csv", tmp_path / "o.json"
        code = main(["laplace", "--polygon", "builtin:concave-quad", "--N", "40,2000",
                     "--oversample", "64", "--csv", str(csv), "--json", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: oversample=64 asks for")
        assert not csv.exists() and not out.exists()

    @pytest.mark.parametrize("flag", ["--csv", "--json", "--out"])
    def test_output_in_a_missing_directory_exits_2(self, flag, tmp_path, capsys):
        # outputs are written after the work: a path that cannot take them is
        # rejected before it
        path = tmp_path / "missing" / "o.txt"
        assert main(["approx", "--alpha", "0.5", "--beta", "1", "--N1", "9",
                     flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"invalid configuration: {flag}: {path.parent} is not a directory\n"

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("frob = 1\n")
        assert main(["decomp", "--alpha", "0.5", "--config", str(cfgfile)]) == 2

    @pytest.mark.parametrize("sigma", ["opt/0", "opt/-0", "opt/0.0"])
    @pytest.mark.parametrize("argv", [
        ["approx", "--alpha", "0.5", "--beta", "1", "--N1", "9"],
        ["sweep", "--alpha", "0.5", "--beta", "1", "--N1", "9,16,25,36"],
        ["quaderr", "--alpha", "0.5", "--beta", "1", "--T", "4,6,8"],
    ])
    def test_zero_sigma_divisor_exits_2(self, argv, sigma, tmp_path, capsys):
        csv = tmp_path / "z.csv"
        assert main(argv + ["--sigma", sigma, "--csv", str(csv)]) == 2
        err = capsys.readouterr().err
        assert err == f"invalid configuration: --sigma divides opt by zero, got {sigma!r}\n"
        assert not csv.exists()

    @pytest.mark.parametrize("flags, reason", [
        # the outermost pole e^(T/(1 - alpha)) = e^800 leaves the range
        pytest.param(["--T", "5,10,400"],
                     "alpha=0.5, C=1, h=9.8696, n_quad=64846, T=400.001 ", id="pole"),
        # the near-origin split radius x_star = C*exp((c0 - T)/alpha) overflows
        pytest.param(["--h", "1000", "--T", "5"], "T=22.3607, alpha=0.5, C=1, h=1000 ",
                     id="split-radius"),
    ])
    def test_truncation_past_the_double_range_exits_2(self, flags, reason, tmp_path, capsys):
        csv = tmp_path / "n.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["nearorigin", "--alpha", "0.5", "--beta", "1", *flags,
                         "--csv", str(csv)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid configuration: {reason}")
        assert "leave the double-precision range" in err and "--T:" not in err
        assert not csv.exists()

    @pytest.mark.parametrize("argv, reason", [
        # 5.5-6.2 TiB of node indices once
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--sigma", "opt*1e-5"],
         "T=4 at sigma=6.28319e-05 needs 6.485e+10 trapezoid points, above the 131072"),
        # each ran for more than 30 s once
        (["nearorigin", "--alpha", "0.5", "--beta", "1", "--h", "1e-300"],
         "T=5 at h=1e-300 needs 1e+302 trapezoid points"),
        (["nearorigin", "--alpha", "5e-27", "--beta", "1"], "T=5 at h=9.8696e-26 needs "),
    ])
    def test_trapezoid_work_past_the_cap_exits_2(self, argv, reason, tmp_path, capsys):
        csv = tmp_path / "w.csv"
        t0 = time.perf_counter()
        assert main(argv + ["--csv", str(csv)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err.startswith(f"invalid configuration: {reason}")
        assert not csv.exists()


    @pytest.mark.parametrize("argv, reason", [
        (["approx", "--alpha", "abc", "--beta", "1", "--N1", "9"],
         "--alpha must be a number, got 'abc'"),
        (["approx", "--alpha", "0.5", "--beta", "1", "--N1", "9.5"],
         "--N1 must be an integer, got '9.5'"),
        (["decomp", "--alpha", "0.5", "--k", "1.5"], "--k must be an integer, got '1.5'"),
        (["laplace", "--polygon", "builtin:concave-quad", "--oversample", "4.0"],
         "--oversample must be an integer, got '4.0'"),
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--arc-points", "x"],
         "--arc-points must be an integer, got 'x'"),
        (["laplace", "--polygon", "builtin:concave-quad", "--sigma", "abc"],
         "--sigma must be opt, per-corner or a number, got 'abc'"),
        (["nearorigin", "--alpha", "0.5", "--beta", "1", "--h", "abc"],
         "--h must be opt or a number, got 'abc'"),
        # ApproxConfig once said only "unknown target 'cube'"; a prefactor
        # target once was a name of its own, which no flag could give a g
        *[([command, "--alpha", "0.5", "--beta", "1", "--N1", n1, "--target", target],
           f"--target must be power or power_log, got {target!r}")
          for command, n1 in [("approx", "9"), ("sweep", "9,16,25,36")]
          for target in ["cube", "prefactor_power"]],
        # tolerances no run can meet: each once computed every cell, then exited 1
        *[(["sweep", "--alpha", "0.5", "--beta", "1", "--N1", "9,16,25,36", flag, value],
           f"{flag} must be {rule}, got {float(value)!r}")
          for flag, value, rule in [("--rate-tol", "-1", "> 0"), ("--rate-tol", "0", "> 0"),
                                    ("--r2-min", "2", "<= 1")]],
        (["laplace", "--polygon", "builtin:concave-quad", "--final-err", "-1"],
         "--final-err must be > 0, got -1.0"),
    ])
    def test_unparsable_value_names_its_flag(self, argv, reason, tmp_path, capsys):
        # each once printed only the cast's message, e.g. "could not convert
        # string to float: 'abc'"
        csv = tmp_path / "p.csv"
        assert main(argv + ["--csv", str(csv)]) == 2
        assert capsys.readouterr().err == f"invalid configuration: {reason}\n"
        assert not csv.exists()

    @pytest.mark.parametrize("command, parameters, reason", [
        # k = 1.5 once ran at k = 1, and n1 = 9.5 at 9
        ("decomp", {"alpha": 0.5, "k": 1.5}, "--k must be an integer, got 1.5"),
        ("approx", {"alpha": 0.5, "beta": 1.0, "n1": 9.5}, "--N1 must be an integer, got 9.5"),
        ("decomp", {"alpha": True}, "--alpha must be a number, got True"),
        ("sweep", {"alpha": 0.5, "beta": 1.0, "n1": [9, 16, 25, 36], "timings": 1},
         "--timings must be true or false, got 1"),
    ])
    def test_run_parses_a_value_as_its_flag_would(self, command, parameters, reason, tmp_path,
                                                 capsys):
        out = tmp_path / "r.json"
        assert run(ExperimentConfig(command, {**parameters, "json": str(out)})) == 2
        assert capsys.readouterr().err == f"invalid configuration: {reason}\n"
        assert not out.exists()

    def test_required_option_from_a_config_file(self, tmp_path):
        cfgfile, csv, flagged = tmp_path / "s.cfg", tmp_path / "s.csv", tmp_path / "f.csv"
        cfgfile.write_text("n1 = 9,16,25,36\n")
        argv = ["sweep", "--alpha", "0.5", "--beta", "1", "--json", str(tmp_path / "s.json")]
        assert main(argv + ["--config", str(cfgfile), "--csv", str(csv)]) == 0
        assert main(argv + ["--N1", "9,16,25,36", "--csv", str(flagged)]) == 0
        assert csv.read_bytes() == flagged.read_bytes()

    def test_missing_required_option_exits_2(self, capsys):
        assert main(["sweep", "--alpha", "0.5", "--beta", "1"]) == 2
        assert capsys.readouterr().err == "invalid configuration: --N1 is required\n"

    def test_target_in_any_case(self, tmp_path):
        # one rule for --target: quaderr's took any case already
        outs = [tmp_path / "lower.json", tmp_path / "upper.json"]
        for target, out in zip(["power_log", "Power_Log"], outs):
            assert main(["approx", "--alpha", "0.5", "--beta", "1", "--N1", "9",
                         "--target", target, "--json", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("value", ["no", "off", "1"])
    def test_config_file_boolean_other_than_true_or_false_exits_2(self, value, tmp_path,
                                                                    capsys):
        # "timings = no" once wrote real runtimes: "no" is a truthy string
        cfgfile, csv = tmp_path / "exp.cfg", tmp_path / "s.csv"
        cfgfile.write_text(f"timings = {value}\n")
        assert main(["sweep", "--alpha", "0.5", "--beta", "1", "--N1", "9,16,25,36",
                     "--config", str(cfgfile), "--csv", str(csv)]) == 2
        err = capsys.readouterr().err
        assert err == f"invalid configuration: --timings must be true or false, got '{value}'\n"
        assert not csv.exists()

    def test_config_file_false_suppresses_runtimes(self, tmp_path):
        cfgfile, csv = tmp_path / "exp.cfg", tmp_path / "s.csv"
        cfgfile.write_text("timings = False\n")
        assert main(["sweep", "--alpha", "0.5", "--beta", "1", "--N1", "9,16,25,36",
                     "--config", str(cfgfile), "--csv", str(csv),
                     "--json", str(tmp_path / "s.json")]) == 0
        rows = csv.read_text().splitlines()[1:]
        assert rows and all(float(row.split(",")[-1]) == 0.0 for row in rows)

    @pytest.mark.parametrize("command, parameters, key", [
        # "w" once ran at W = 1; "rate-tol" once left the default tolerance
        ("decomp", {"alpha": 0.5, "w": 3.0}, "'w'"),
        ("sweep", {"alpha": 0.5, "beta": 1.0, "n1": "9,16,25,36", "rate-tol": 1e-4},
         "'rate-tol'"),
    ])
    def test_run_rejects_a_key_no_option_owns(self, command, parameters, key, tmp_path,
                                              capsys):
        out = tmp_path / "r.json"
        assert run(ExperimentConfig(command, {**parameters, "json": str(out)})) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: ") and err.count("\n") == 1
        assert key in err
        assert not out.exists()

    def test_help_shows_the_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert "(default: 0.15)" in capsys.readouterr().out


class TestDecomp:
    def test_quarter_reports_p0(self, tmp_path):
        out = tmp_path / "d.json"
        code = main(["decomp", "--k", "0", "--alpha", "0.25", "--W", "1",
                     "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["P0"] == pytest.approx([-math.pi, -math.pi])
        assert payload["P0_discrepancy"] <= 1e-6
        assert payload["pass"] is True

    @pytest.mark.parametrize("alpha", ["0.25", "0.5", "0.6666666666666666", "0.9"])
    @pytest.mark.parametrize("k", range(18, 27))
    def test_high_k_meets_the_gate_or_exits_2_with_its_bound(self, k, alpha, tmp_path, capsys):
        # the jump the check measures at W/2 is 2^-(k+alpha) of the integrals, so
        # its Richardson remainder outgrows the 1e-6 gate past k = 20: such a k
        # exits 2 before any quadrature, naming the last k the check resolves
        out = tmp_path / "d.json"
        code = main(["decomp", "--k", str(k), "--alpha", alpha, "--json", str(out)])
        err = capsys.readouterr().err
        if alpha == "0.5":  # once failed its check (exit 1) from k = 21 on
            assert code == (0 if k <= 20 else 2)
        if code == 0:
            payload = json.loads(out.read_text())
            assert max(payload["P0_discrepancy"], payload["P1_discrepancy"]) <= 1e-6
            return
        assert code == 2 and not out.exists()
        bound = max(corners.discrepancy_bound(k, float(alpha), 1.0))
        assert err == (f"invalid configuration: k={k} is beyond the check at alpha="
                       f"{float(alpha):g}, W=1, which resolves k <= 20: its discrepancy bound "
                       f"is {bound:.3g}, above 1e-06 (corners.discrepancy_bound)\n")

    @pytest.mark.parametrize("alpha", ["2e-12", "1e-9", "1e-6", "0.999999", "0.999999999"])
    @pytest.mark.parametrize("k", range(4))
    def test_near_integer_meets_the_gate_or_exits_2_with_its_bound(self, k, alpha, tmp_path,
                                                                  capsys):
        # the predicted jump's rounding grows as 1/|alpha - round(alpha)|: within
        # 6.6e-10 of an integer its bound is above the gate at every k, and the
        # run exits 2 before any quadrature
        out = tmp_path / "d.json"
        code = main(["decomp", "--k", str(k), "--alpha", alpha, "--json", str(out)])
        err = capsys.readouterr().err
        assert code == (2 if alpha == "2e-12" else 0), err
        if code == 0:
            payload = json.loads(out.read_text())
            assert max(payload["P0_discrepancy"], payload["P1_discrepancy"]) <= 1e-6
            return
        assert not out.exists()
        bound = max(corners.discrepancy_bound(k, float(alpha), 1.0))
        assert err == (f"invalid configuration: alpha={float(alpha)!r} is too near an integer "
                       f"for the check at k={k}, W=1: its discrepancy bound is {bound:.3g}, "
                       "above 1e-06 (corners.discrepancy_bound)\n")

    @pytest.mark.parametrize("k, W", [("2", "1e110"), ("0", "1e300"), ("1", "1e300"),
                                      ("0", "1e-300")])
    def test_slit_scale_outside_the_double_range_exits_2(self, k, W, tmp_path, capfd):
        # the integral's scale W^(k+alpha) overflows at k = 2, W = 1e110, and
        # W itself leaves the range at 1e300 and 1e-300 (a false discrepancy once):
        # an invalid configuration, before any quadrature and without a
        # RuntimeWarning or a traceback
        csv, out = tmp_path / "d.csv", tmp_path / "d.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["decomp", "--k", k, "--alpha", "0.5", "--W", W, "--csv", str(csv),
                         "--json", str(out)])
        assert code == 2
        out_text, err = capfd.readouterr()
        assert out_text == ""
        assert err.startswith(f"invalid configuration: W={float(W):.6g}, k={k}, "
                              "alpha=0.5 leave the double-precision range")
        assert not csv.exists() and not out.exists()


class TestSweep:
    def test_stahl_case_json_and_determinism(self, tmp_path):
        args = ["sweep", "--alpha", "0.5", "--beta", "0", "--sigma", "opt",
                "--N1", "9,16,25,36,49,64"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        j = tmp_path / "s.json"
        assert main(args + ["--csv", str(out1), "--json", str(j)]) == 0
        assert main(args + ["--csv", str(out2), "--json", str(j)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(j.read_text())
        assert abs(payload["fitted_rate"] - 4.443) <= 0.15 * 4.443
        assert payload["pass"] is True
        header = out1.read_text().splitlines()[0]
        assert header == "sigma,N1,N2,N,sup_err,predicted_log_err,runtime_ms"

    def test_run_api_direct(self, tmp_path):
        cfg = ExperimentConfig(command="sweep", parameters={
            "alpha": 0.5, "beta": 1.0, "sigma": "opt", "n1": "9,16,25,36",
            "csv": str(tmp_path / "r.csv"), "json": str(tmp_path / "r.json"),
            "rate_tol": 0.2,
        })
        assert run(cfg) == 0

    def test_pole_collision_during_the_sweep_exits_1(self, monkeypatch, tmp_path, capsys):
        # a numerical event in the compute phase is a failed run, not an
        # invalid configuration, although PoleCollisionError is a ValueError
        def colliding(*args, **kwargs):
            raise PoleCollisionError("more than 1% of grid points collide with poles")

        monkeypatch.setattr(analysis, "checked_sup_error", colliding)
        csv, j = tmp_path / "p.csv", tmp_path / "p.json"
        code = main(["sweep", "--alpha", "0.5", "--beta", "1", "--N1", "9,16,25,36",
                     "--csv", str(csv), "--json", str(j)])
        assert code == 1
        msg = "more than 1% of grid points collide with poles"
        assert capsys.readouterr().err == f"sweep: approximation failed: {msg}\n"
        assert json.loads(j.read_text()) == {"error": msg, "pass": False}
        assert not csv.exists()


class TestApprox:
    def test_serialized_output_loads(self, tmp_path):
        out = tmp_path / "approx.txt"
        j = tmp_path / "approx.json"
        code = main(["approx", "--alpha", "0.5", "--beta", "1", "--sigma", "opt",
                     "--N1", "9", "--out", str(out), "--json", str(j)])
        assert code == 0
        ap = deserialize(out.read_text())
        assert ap.n_poles == 9
        assert json.loads(j.read_text())["sup_err"] < 1e-3

    def test_default_tail_degree_is_accepted(self, tmp_path):
        # the default n2 = ceil(1.3*n1) = 130 is below the tail cap, which
        # bounds the fit matrix's memory, not its conditioning
        j = tmp_path / "approx.json"
        code = main(["approx", "--alpha", "0.5", "--beta", "1", "--N1", "100",
                     "--json", str(j)])
        assert code == 0
        summary = json.loads(j.read_text())
        assert summary["n2"] == 130 and summary["pass"]
        assert summary["sup_err"] < 1e-12

    def test_non_finite_sup_error_exits_1(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(analysis, "checked_sup_error", lambda *args: math.nan)
        j = tmp_path / "approx.json"
        code = main(["approx", "--alpha", "0.5", "--beta", "1", "--N1", "9",
                     "--json", str(j)])
        assert code == 1
        summary = json.loads(j.read_text())
        assert summary["pass"] is False and math.isnan(summary["sup_err"])
        assert capsys.readouterr().err == "approx: sup_err nan is not finite\n"

    def test_nan_target_in_the_rest_of_the_grid_exits_1(self, monkeypatch, tmp_path, capsys):
        # a NaN that only the rest of the refine=1 grid sees still fails the run
        cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=optimal_sigma(0.5, 1.0), n1=9)
        _, rest = analysis.rate_grid(cfg, 1, split=True)
        make_target = analysis.make_target

        def poisoned(kind, alpha, g=None):
            f = make_target(kind, alpha, g)
            return lambda zs: np.where(zs == rest[0], math.nan, f(zs))

        monkeypatch.setattr(analysis, "make_target", poisoned)
        j = tmp_path / "approx.json"
        code = main(["approx", "--alpha", "0.5", "--beta", "1", "--N1", "9",
                     "--json", str(j)])
        assert code == 1
        assert math.isnan(json.loads(j.read_text())["sup_err"])
        assert capsys.readouterr().err == "approx: sup_err nan is not finite\n"


class TestQuaderr:
    def test_slopes_match_predictions(self, tmp_path):
        j = tmp_path / "q.json"
        code = main(["quaderr", "--alpha", "0.5", "--beta", "1",
                     "--sigma", "opt,opt*sqrt2", "--T", "5,8,11,14",
                     "--arc-points", "11", "--csv", str(tmp_path / "q.csv"),
                     "--json", str(j)])
        assert code == 0
        payload = json.loads(j.read_text())
        assert payload["pass"] is True
        preds = [c["predicted"] for c in payload["curves"]]
        assert preds == [1.0, pytest.approx(0.5)]

    def test_unknown_target_exits_2(self, capsys):
        # any other name once ran as the power target
        argv = ["quaderr", "--alpha", "0.5", "--beta", "1", "--target", "prefactor_power"]
        assert main(argv) == 2
        assert capsys.readouterr().err == ("invalid configuration: --target must be power or "
                                           "power_log, got 'prefactor_power'\n")


    @pytest.mark.parametrize("beta", ["0", "1", "1.5"])
    @pytest.mark.parametrize("arc_points", ["0", "-1"])
    def test_arc_points_below_one_exits_2(self, beta, arc_points, tmp_path, capsys):
        # at beta = 0 the arc is the single point z = 1 whatever the count
        csv = tmp_path / "q.csv"
        assert main(["quaderr", "--alpha", "0.5", "--beta", beta, "--T", "4,6,8",
                     "--arc-points", arc_points, "--csv", str(csv)]) == 2
        err = capsys.readouterr().err
        assert f"invalid configuration: --arc-points must be >= 1, got {arc_points}" in err
        assert not csv.exists()

    def test_json_counts_reference_evaluations(self, tmp_path):
        j = tmp_path / "q.json"
        csv = tmp_path / "q.csv"
        main(["quaderr", "--alpha", "0.5", "--beta", "1", "--sigma", "opt,opt*sqrt2",
              "--T", "4,6,8", "--arc-points", "7", "--target", "power_log",
              "--csv", str(csv), "--json", str(j)])
        curves = json.loads(j.read_text())["curves"]
        grid = arc_grid(1.0, n=7).tolist()
        for curve in curves:
            cfgs = [KernelConfig.from_truncation(0.5, t, sigma=curve["sigma"]) for t in (4, 6, 8)]
            want = sum(truncated_integral_log(z, cfg).evaluations for cfg in cfgs for z in grid)
            assert curve["quadrature_evaluations"] == want
        assert csv.read_text().splitlines()[0] == "sigma,T,sup_err"


@pytest.mark.parametrize("argv", [
    ["quaderr", "--alpha", "0.5", "--beta", "1", "--T", "4,6,8"],
    ["nearorigin", "--alpha", "0.5", "--beta", "1", "--T", "5,10"],
    ["decomp", "--k", "0", "--alpha", "0.5"],
])
def test_reference_breakdown_writes_the_json_summary(argv, monkeypatch, tmp_path, capsys):
    # quaderr's and nearorigin's reference integrals and decomp's slit
    # integrals fail alike: the error in the JSON summary, one stderr line,
    # exit 1, no CSV
    def broken(*args, **kwargs):
        raise QuadratureNonConvergence("reference did not converge")

    monkeypatch.setattr(analysis, "truncated_integral", broken)
    monkeypatch.setattr(analysis, "truncated_integral_log", broken)
    monkeypatch.setattr(corners, "cauchy_slit_integral", broken)
    csv, out = tmp_path / "r.csv", tmp_path / "r.json"
    assert main(argv + ["--csv", str(csv), "--json", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"{argv[0]}: reference quadrature failed: reference did not converge\n"
    assert json.loads(out.read_text()) == {"error": "reference did not converge",
                                           "pass": False}
    assert not csv.exists()


class TestNearOrigin:
    def test_ratio_stability(self, tmp_path):
        j = tmp_path / "n.json"
        code = main(["nearorigin", "--alpha", "0.5", "--beta", "1",
                     "--T", "5,10", "--json", str(j)])
        assert code == 0
        payload = json.loads(j.read_text())
        assert payload["spread_power"] < 10 and payload["spread_log"] < 10

    def test_json_counts_reference_evaluations(self, tmp_path):
        j = tmp_path / "n.json"
        alpha, beta = 0.25, 1.5
        main(["nearorigin", "--alpha", str(alpha), "--beta", str(beta), "--T", "5,10",
              "--json", str(j)])
        rows = json.loads(j.read_text())["rows"]
        h = 2.0 * (2.0 - beta) * math.pi**2 * alpha
        for row, t in zip(rows, (5, 10)):
            cfg = KernelConfig.from_truncation(alpha, t, h)
            xm = min(BoundContext.from_quadrature(cfg, beta).x_star, 1.0)
            # the scan: 14 radii, 5 angles, both half-planes off the real axis
            zs = [x * cmath.exp(1j * sign * th * math.pi / 2)
                  for x in np.geomspace(xm * 1e-8, xm, 14).tolist()
                  for th in np.linspace(0.0, beta, 5).tolist()
                  for sign in ((1.0,) if th == 0.0 else (1.0, -1.0))]
            want = sum(fn(z, cfg).evaluations for z in zs
                       for fn in (truncated_integral, truncated_integral_log))
            assert row["T"] == cfg.T and row["quadrature_evaluations"] == want


class TestLaplace:
    def test_polygon_file_run(self, tmp_path):
        poly_path = POLYGONS / "concave_quadrilateral.poly"
        j = tmp_path / "l.json"
        code = main(["laplace", "--polygon", str(poly_path), "--data", "re2",
                     "--sigma", "opt", "--N", "40,80,160",
                     "--csv", str(tmp_path / "l.csv"), "--json", str(j)])
        assert code == 0
        payload = json.loads(j.read_text())
        errs = payload["boundary_err"]
        assert all(b <= a for a, b in zip(errs, errs[1:]))
        assert payload["final_err"] <= 1e-6

    def test_builtin_curvy_with_export(self, tmp_path):
        j = tmp_path / "c.json"
        exp = tmp_path / "sol.txt"
        code = main(["laplace", "--polygon", "builtin:curvy-l", "--N", "40,80",
                     "--sigma", "4", "--final-err", "1.0",
                     "--export", str(exp), "--json", str(j)])
        assert code == 0
        assert exp.read_text().startswith("corner 0")

    def test_failing_assertion_exits_1(self, tmp_path, capsys):
        code = main(["laplace", "--polygon", "builtin:concave-quad",
                     "--N", "40", "--final-err", "1e-12",
                     "--json", str(tmp_path / "f.json")])
        assert code == 1
        assert "final err" in capsys.readouterr().err

    def test_numerical_breakdown_exits_1(self, tmp_path, capfd):
        # at this budget a pole rounds onto a collocation point next to the
        # reflex corner: a solver failure, reported without a RuntimeWarning
        # or LAPACK noise and without writing a CSV
        csv_path = tmp_path / "b.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["laplace", "--polygon", "builtin:concave-quad", "--sigma", "4",
                         "--N", "400", "--oversample", "8", "--csv", str(csv_path)])
        assert code == 1
        out, err = capfd.readouterr()
        assert err.splitlines() == [
            "laplace: solver failed at N=400: design matrix is not finite "
            "(a pole lies on a collocation point)"]
        assert "DLASCL" not in out
        assert not csv_path.exists()

    def test_numerical_breakdown_writes_the_json_summary(self, tmp_path, capsys):
        csv_path, json_path = tmp_path / "b.csv", tmp_path / "b.json"
        code = main(["laplace", "--polygon", "builtin:concave-quad", "--sigma", "4",
                     "--N", "160,400", "--oversample", "8", "--csv", str(csv_path),
                     "--json", str(json_path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        msg = "design matrix is not finite (a pole lies on a collocation point)"
        assert err.splitlines() == [f"laplace: solver failed at N=400: {msg}"]
        summary = json.loads(json_path.read_text())
        assert summary["pass"] is False
        assert summary["failed_at_N"] == 400 and summary["error"] == msg
        assert summary["N"] == [160, 400] and len(summary["boundary_err"]) == 1
        assert not csv_path.exists()

    def test_merged_collocation_samples_are_reported(self, tmp_path, capsys):
        # at sigma 300 the tapered samples round onto their corner and merge;
        # the message once blamed oversampling
        json_path = tmp_path / "m.json"
        assert main(["laplace", "--polygon", "builtin:concave-quad", "--N", "40",
                     "--sigma", "300", "--json", str(json_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("laplace: solver failed at N=40: collocation count below 3x")
        assert "50 at corner 0 (sigma 300)" in err and "raise oversample" not in err
        assert json.loads(json_path.read_text())["failed_at_N"] == 40

    def test_bad_curve_line_exits_2(self, tmp_path, capsys):
        poly_path = tmp_path / "square.poly"
        poly_path.write_text("0 0\n1 0\n1 1\n0 1\ncurve 7 bulge=0.1\n")
        assert main(["laplace", "--polygon", str(poly_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"invalid configuration: polygon {poly_path}, line 5: "
                       "curve 7 names no edge of a 4-edge polygon\n")

    def test_malformed_polygon_line_exits_2(self, tmp_path, capsys):
        poly_path, csv = tmp_path / "square.poly", tmp_path / "s.csv"
        poly_path.write_text("0 0\n1 0\n1 1 beta\n0 1\n")
        assert main(["laplace", "--polygon", str(poly_path), "--csv", str(csv)]) == 2
        assert capsys.readouterr().err == (f"invalid configuration: polygon {poly_path}, "
                                           "line 3: attribute 'beta' is not key=value\n")
        assert not csv.exists()

    @pytest.mark.parametrize("table, reason", [
        pytest.param("", "no 're im value' lines", id="empty"),
        pytest.param("2 4 4\n8 4 nan\n", "not finite", id="nan"),
        pytest.param("2 4\n8 4\n", "2 columns, needs 3", id="two-columns"),
    ])
    def test_malformed_data_table_exits_2(self, table, reason, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text(table)
        csv_path = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["laplace", "--polygon", "builtin:concave-quad",
                         "--data", f"file:{path}", "--N", "40", "--csv", str(csv_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: boundary data ")
        assert str(path) in err and reason in err
        assert not csv_path.exists()

    def test_data_table_is_read_once_per_run(self, monkeypatch, tmp_path):
        # re2 on the quadrilateral's vertices and edge midpoints: one parse
        # serves every solve and check of the run
        poly = corners.concave_quadrilateral()
        samples = list(poly.vertices) + [complex(e.point(0.5)) for e in poly.edges]
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{z.real!r} {z.imag!r} {z.real**2!r}\n" for z in samples))
        reads = []
        tabulated = corners._tabulated_data
        monkeypatch.setattr(corners, "_tabulated_data",
                            lambda p: reads.append(p) or tabulated(p))
        csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
        code = main(["laplace", "--polygon", "builtin:concave-quad", "--data", f"file:{path}",
                     "--N", "40,80", "--csv", str(csv_path), "--json", str(json_path)])
        assert code in (0, 1)
        assert reads == [str(path)]
        assert len(csv_path.read_text().splitlines()) == 3
        assert json.loads(json_path.read_text())["N"] == [40, 80]

    @pytest.mark.parametrize("flag, value, reason", [
        ("--N", "", "no pole budgets"),
        ("--weights", "1,1,1", "3 entries for 4 corners"),
        ("--weights", "1,1,1,1,7", "5 entries for 4 corners"),
    ])
    def test_bad_lists_exit_2(self, flag, value, reason, capsys):
        code = main(["laplace", "--polygon", "builtin:concave-quad", flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and reason in err


# ------------------------------------------------------- CLI contract fuzzer
# Random argv for every subcommand, run in process through main: every run
# exits 0, 1 or 2 without a traceback or a RuntimeWarning; an exit 2 writes
# no output and its message names a parameter; an exit 1 writes its JSON.
# Values mix in-range draws with 0, -1, NaN, infinities, 1e+-300 and
# log-uniform magnitudes; the cells stay small.

_EXTREMES = st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e300", "1e-300"])
_MAGNITUDES = st.floats(-300.0, 300.0).map(lambda e: repr(10.0**e))


def _listed(strategy, lo, hi):
    return st.lists(strategy, min_size=lo, max_size=hi, unique=True).map(",".join)


def _options(num, count, targets):
    """(flag, values, required) per subcommand, where num(lo, hi) and
    count(lo, hi) draw one float and one integer."""
    sigma = st.one_of(num(1.0, 10.0), st.just("opt"),
                      st.tuples(st.sampled_from(["opt*", "opt/"]), num(0.5, 2.0)).map("".join))
    target = st.sampled_from(targets)
    alpha, beta, C = num(0.05, 0.95), num(0.0, 1.95), num(0.2, 5.0)
    return {
        "approx": [("--alpha", alpha, True), ("--beta", beta, True), ("--sigma", sigma, False),
                   ("--N1", count(1, 25), True), ("--N2", count(0, 30), False),
                   ("--C", C, False), ("--target", target, False)],
        "sweep": [("--alpha", alpha, True), ("--beta", beta, True), ("--sigma", sigma, False),
                  ("--N1", _listed(count(1, 16), 4, 4), True), ("--target", target, False),
                  ("--C", C, False), ("--rate-tol", num(0.05, 1.0), False),
                  ("--r2-min", num(0.0, 1.0), False)],
        "quaderr": [("--alpha", alpha, True), ("--beta", beta, True),
                    ("--sigma", _listed(sigma, 1, 2), False),
                    ("--T", _listed(num(2.0, 10.0), 3, 3), False), ("--target", target, False),
                    ("--C", C, False), ("--arc-points", count(1, 4), False)],
        "nearorigin": [("--alpha", alpha, True), ("--beta", beta, True),
                       ("--h", st.one_of(st.just("opt"), num(0.5, 20.0)), False),
                       ("--T", _listed(num(2.0, 10.0), 1, 1), False), ("--C", C, False)],
        "laplace": [("--polygon", st.sampled_from(["builtin:concave-quad", "builtin:curvy-l"]),
                     True),
                    ("--data", st.sampled_from(["re2", "rez", "const1"]), False),
                    ("--sigma", st.one_of(st.sampled_from(["opt", "per-corner"]),
                                          num(1.0, 8.0)), False),
                    ("--N", _listed(count(16, 40), 1, 2), False), ("--n2", count(0, 12), False),
                    ("--weights", _listed(num(0.5, 1.5), 4, 5), False),
                    # past 10^6 every drawn basis's [A b] is above corners'
                    # cap; a draw between would run a solve of up to 1.5 GiB
                    ("--oversample", st.one_of(count(1, 6), count(10**6, 10**9)), False),
                    ("--fine-factor", count(3, 6), False),
                    ("--final-err", num(1e-8, 1.0), False)],
        "decomp": [("--k", count(0, 3), False), ("--alpha", alpha, True),
                   ("--W", num(0.1, 10.0), False)],
    }


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


# half the runs draw every value in range; the other half mix in extremes
_TAME = _options(_floats, _ints, ["power", "power_log"])
_WILD = _options(lambda lo, hi: st.one_of(_floats(lo, hi), _EXTREMES, _MAGNITUDES),
                 lambda lo, hi: st.one_of(_ints(lo, hi), st.sampled_from(["0", "-1"])),
                 ["power", "power_log", "prefactor_power", "cube"])


@st.composite
def _argv(draw, command):
    argv = [command]
    for flag, values, required in draw(st.sampled_from([_TAME, _WILD]))[command]:
        if required or draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


# the keys --N1 and --N2 are stored under
_ALIASES = {"N1": "n1", "N2": "n2"}


def _names(command):
    """Each option of a subcommand by its flag's name, by its key and by
    the parameter it sets."""
    names = set()
    for flag, _, _ in _TAME[command]:
        name = flag[2:]
        names |= {name, name.replace("-", "_"), _ALIASES.get(name, name)}
    return names


def _names_one(message, names):
    # a name counts as a word; "_" separates, so corner_weights names weights
    return any(re.search(rf"(?<![A-Za-z0-9])(--)?{re.escape(n)}(?![A-Za-z0-9])", message)
               for n in names)


@pytest.mark.parametrize("command", sorted(cli._OPTIONS))
def test_fuzzer_draws_every_option(command):
    # all but the options that only shape what is written, so that a new
    # option cannot escape test_cli_contract
    written = {"--csv", "--json", "--out", "--export", "--timings"}
    options = {o.flag for o in cli._OPTIONS[command]} - written
    for table in (_TAME, _WILD):
        assert {flag for flag, _, _ in table[command]} == options


@given(argv=st.one_of([_argv(c) for c in _TAME]), expect=st.none())
# each once ended in a traceback or a RuntimeWarning
@example(argv=["quaderr", "--alpha=0.5", "--beta=1", "--sigma=1e300"], expect=2)
@example(argv=["nearorigin", "--alpha=0.5", "--beta=1", "--h=1e300"], expect=2)
@example(argv=["approx", "--alpha=1e-300", "--beta=1", "--N1=9", "--target=power_log"],
         expect=2)
@example(argv=["approx", "--alpha=0.5", "--beta=1", "--N1=9", "--C=1e300"], expect=2)
@example(argv=["quaderr", "--alpha=0.5", "--beta=1", "--T=4,6,400"], expect=2)
@example(argv=["decomp", "--k=0", "--alpha=0.5", "--W=1e-300"], expect=2)
@example(argv=["laplace", "--polygon=builtin:concave-quad", "--N=2000", "--oversample=64"],
         expect=2)
@seed(20261020)
@settings(max_examples=40, deadline=2000, database=None)
def test_cli_contract(argv, expect):
    with tempfile.TemporaryDirectory() as tmp:
        csv, out = Path(tmp) / "r.csv", Path(tmp) / "r.json"
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(argv + ["--csv", str(csv), "--json", str(out)])
        err = stderr.getvalue()
        assert code in (0, 1, 2) and code == (expect or code), (argv, err)
        assert "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
        if code == 2:
            assert err.startswith("invalid configuration: ") and err.count("\n") == 1
            assert _names_one(err, _names(argv[0])), (argv, err)
            assert not csv.exists() and not out.exists()
        else:
            assert json.loads(out.read_text())["pass"] is (code == 0)
