import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from lightningpoly.analysis import BoundContext, arc_grid
from lightningpoly.approx import deserialize, optimal_sigma
from lightningpoly.cli import ExperimentConfig, main, run
from lightningpoly.kernels import KernelConfig, truncated_integral, truncated_integral_log

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
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--sigma", "0"], "h must be positive"),
        (["nearorigin", "--alpha", "0.5", "--beta", "1", "--h", "0"], "h must be positive"),
    ])
    def test_trapezoid_config_checked_before_dividing(self, argv, reason, capsys):
        assert main(argv) == 2
        assert f"invalid configuration: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, reason", [
        (["approx", "--alpha", "0.5", "--beta", "1", "--N1", "9", "--sigma", "nan"],
         "sigma must be finite"),
        (["approx", "--alpha", "0.5", "--beta", "1", "--N1", "9", "--C", "nan"],
         "C must be positive and finite"),
        (["approx", "--alpha", "0.5", "--beta", "1", "--N1", "9", "--C", "inf"],
         "C must be positive and finite"),
        (["sweep", "--alpha", "0.5", "--beta", "1", "--N1", "9,16,25,36", "--sigma", "nan"],
         "sigma must be finite"),
        (["sweep", "--alpha", "0.5", "--beta", "1", "--N1", "9,16,25,36", "--C", "nan"],
         "C must be positive and finite"),
        (["sweep", "--alpha", "0.5", "--beta", "1", "--N1", "9,16,25,36", "--C", "inf"],
         "C must be positive and finite"),
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--C", "nan"],
         "C must be positive and finite"),
        (["quaderr", "--alpha", "0.5", "--beta", "1", "--sigma", "nan"],
         "sigma must be finite"),
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
        ["sweep", "--alpha", "0.5", "--beta", "1", "--N1", "9,16,25,36", "--n2-mode", "-1"],
    ])
    def test_negative_n2_exits_2(self, argv, capsys):
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration: n2 must be >= 0" in err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("frob = 1\n")
        assert main(["decomp", "--alpha", "0.5", "--config", str(cfgfile)]) == 2


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
            h = curve["sigma"] ** 2 * 0.25
            cfgs = [KernelConfig(alpha=0.5, h=h, n_quad=max(2, math.ceil((2 * t) ** 2 / h)))
                    for t in (4, 6, 8)]
            want = sum(truncated_integral_log(z, cfg).evaluations for cfg in cfgs for z in grid)
            assert curve["quadrature_evaluations"] == want
        assert csv.read_text().splitlines()[0] == "sigma,T,sup_err"


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
            cfg = KernelConfig(alpha=alpha, h=h, n_quad=max(2, math.ceil((t / 0.75) ** 2 / h)))
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

    def test_bad_curve_line_exits_2(self, tmp_path, capsys):
        poly_path = tmp_path / "square.poly"
        poly_path.write_text("0 0\n1 0\n1 1\n0 1\ncurve 7 bulge=0.1\n")
        assert main(["laplace", "--polygon", str(poly_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration: curve 7 names no edge" in err

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
