"""The scalar parameter rules of kernels.check_parameters and the target-kind
check approx.check_target, seen from every public entry point that takes the
parameter: each rejects NaN, the infinities and the edge values with the
same message, and the CLI exits 2 with it."""

import math

import pytest

from lightningpoly import analysis, approx, corners, kernels
from lightningpoly.cli import main

POLY = corners.concave_quadrilateral()
NON_FINITE = [math.nan, math.inf, -math.inf]


def _approx(**kw):
    return approx.ApproxConfig(**{"alpha": 0.5, "beta": 1.0, "sigma": 3.0, "n1": 4, **kw})


def _cli(*argv):  # the value joins its flag: "--beta=-inf", not "--beta" "-inf"
    def run(value, capsys):
        assert main([a.format(value) for a in argv]) == 2
        return capsys.readouterr().err
    return run


_APPROX_ARGV = ("approx", "--alpha", "0.5", "--beta", "1", "--N1", "9")
_LAPLACE_ARGV = ("laplace", "--polygon", "builtin:concave-quad", "--N", "40")

# (parameter, rule stem, values, {entry point: call with the value})
RULES = [
    ("alpha", "must lie in (0, 1)", NON_FINITE + [0.0, 1.0], {
        "ApproxConfig": lambda v: _approx(alpha=v),
        "optimal_sigma": lambda v: approx.optimal_sigma(v, 1.0),
        "optimal_step": lambda v: approx.optimal_step(v, 1.0),
        "KernelConfig": lambda v: kernels.KernelConfig(alpha=v),
        "from_truncation(h)": lambda v: kernels.KernelConfig.from_truncation(v, 4.0, 1.0),
        "from_truncation(sigma)": lambda v: kernels.KernelConfig.from_truncation(
            v, 4.0, sigma=3.0),
        "log_weight_constant": lambda v: kernels.log_weight_constant(v, 1.0),
        "identity_residual": lambda v: kernels.identity_residual(0.5, v, 1e-10),
        "predicted_log_rate": lambda v: analysis.predicted_log_rate(3.0, v, 1.0, "power"),
        "BoundContext": lambda v: analysis.BoundContext.from_parameters(v, 1.0, 1.0, 5.0),
        "SlitIntegralSpec": lambda v: corners.SlitIntegralSpec(k=0, alpha=v),
        "singular_coefficient_check": lambda v: corners.singular_coefficient_check(0, v, 1.0),
        "discrepancy_bound": lambda v: corners.discrepancy_bound(0, v, 1.0),
        "cli approx": _cli("approx", "--alpha={}", "--beta", "1", "--N1", "9"),
        "cli decomp": _cli("decomp", "--alpha={}"),
    }),
    ("beta", "must lie in [0, 2)", NON_FINITE + [2.0, -0.5], {
        "ApproxConfig": lambda v: _approx(beta=v),
        "optimal_sigma": lambda v: approx.optimal_sigma(0.5, v),
        "optimal_step": lambda v: approx.optimal_step(0.5, v),
        "predicted_log_rate": lambda v: analysis.predicted_log_rate(3.0, 0.5, v, "power"),
        "BoundContext": lambda v: analysis.BoundContext.from_parameters(0.5, v, 1.0, 5.0),
        "cli approx": _cli("approx", "--alpha", "0.5", "--beta={}", "--N1", "9"),
        "cli quaderr": _cli("quaderr", "--alpha", "0.5", "--beta={}"),
    }),
    ("sigma", "must be positive and finite", NON_FINITE + [0.0, -3.0], {
        "ApproxConfig": lambda v: _approx(sigma=v),
        "from_truncation": lambda v: kernels.KernelConfig.from_truncation(0.5, 4.0, sigma=v),
        "predicted_log_rate": lambda v: analysis.predicted_log_rate(v, 0.5, 1.0, "power"),
        "plan_basis": lambda v: corners.plan_basis(POLY, 16, v),
        "cli approx": _cli(*_APPROX_ARGV, "--sigma={}"),
        "cli quaderr": _cli("quaderr", "--alpha", "0.5", "--beta", "1", "--sigma={}"),
        "cli laplace": _cli(*_LAPLACE_ARGV, "--sigma={}"),
    }),
    ("C", "must be positive and finite", NON_FINITE + [0.0], {
        "ApproxConfig": lambda v: _approx(C=v),
        "KernelConfig": lambda v: kernels.KernelConfig(alpha=0.5, C=v),
        "from_truncation": lambda v: kernels.KernelConfig.from_truncation(0.5, 4.0, 1.0, C=v),
        "log_weight_constant": lambda v: kernels.log_weight_constant(0.5, v),
        "BoundContext": lambda v: analysis.BoundContext.from_parameters(0.5, 1.0, 1.0, 5.0,
                                                                        C=v),
        "cli approx": _cli(*_APPROX_ARGV, "--C={}"),
        "cli nearorigin": _cli("nearorigin", "--alpha", "0.5", "--beta", "1", "--C={}"),
    }),
    ("h", "must be positive and finite", NON_FINITE + [0.0], {
        "KernelConfig": lambda v: kernels.KernelConfig(alpha=0.5, h=v),
        "from_truncation": lambda v: kernels.KernelConfig.from_truncation(0.5, 4.0, v),
        "BoundContext": lambda v: analysis.BoundContext.from_parameters(0.5, 1.0, v, 5.0),
        "cli nearorigin": _cli("nearorigin", "--alpha", "0.5", "--beta", "1", "--h={}"),
    }),
    ("W", "must be positive and finite", NON_FINITE + [0.0], {
        "SlitIntegralSpec": lambda v: corners.SlitIntegralSpec(k=0, alpha=0.5, W=v),
        "singular_coefficient_check": lambda v: corners.singular_coefficient_check(0, 0.5, v),
        "discrepancy_bound": lambda v: corners.discrepancy_bound(0, 0.5, v),
        "cli decomp": _cli("decomp", "--alpha", "0.5", "--W={}"),
    }),
    ("n1", "must be >= 1", [0, -1], {
        "ApproxConfig": lambda v: _approx(n1=v),
        "cli approx": _cli("approx", "--alpha", "0.5", "--beta", "1", "--N1={}"),
    }),
    ("n2", "must be >= 0", [-1], {
        "ApproxConfig": lambda v: _approx(n2=v),
        "plan_basis": lambda v: corners.plan_basis(POLY, 16, 3.0, n2=v),
        "cli approx": _cli(*_APPROX_ARGV, "--N2={}"),
        "cli laplace": _cli(*_LAPLACE_ARGV, "--n2={}"),
    }),
    ("k", "must be >= 0", [-1], {
        "SlitIntegralSpec": lambda v: corners.SlitIntegralSpec(k=v, alpha=0.5),
        "singular_coefficient_check": lambda v: corners.singular_coefficient_check(v, 0.5, 1.0),
        "discrepancy_bound": lambda v: corners.discrepancy_bound(v, 0.5, 1.0),
        "cli decomp": _cli("decomp", "--alpha", "0.5", "--k={}"),
    }),
    ("oversample", "must be >= 1", [0, -1], {
        # checked before the basis is read
        "solve_dirichlet": lambda v: corners.solve_dirichlet(POLY, "re2", None, oversample=v),
        "cli laplace": _cli(*_LAPLACE_ARGV, "--oversample={}"),
    }),
    ("fine_factor", "must be >= 4", [3, 0], {
        # checked before the solution is read
        "boundary_error": lambda v: corners.boundary_error(None, POLY, "re2", fine_factor=v),
        "cli laplace": _cli(*_LAPLACE_ARGV, "--fine-factor={}"),
    }),
]

CASES = [pytest.param(name, stem, value, entry, call, id=f"{name}={value}-{entry}")
         for name, stem, values, calls in RULES
         for entry, call in calls.items() for value in values]


@pytest.mark.parametrize("name, stem, value, entry, call", CASES)
def test_each_entry_point_gives_the_rule_s_message(name, stem, value, entry, call, capsys):
    message = f"{name} {stem}, got {value}"
    if entry.startswith("cli "):  # exit 2 with one stderr line
        assert call(value, capsys) == f"invalid configuration: {message}\n"
        return
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == message


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_log_weight_constant_rejects_a_non_finite_c(value):
    # it once returned inf and nan
    with pytest.raises(ValueError, match=f"C must be positive and finite, got {value}"):
        kernels.log_weight_constant(0.5, value)


@pytest.mark.parametrize("call", [
    lambda kind: approx.ApproxConfig(alpha=0.5, beta=1.0, sigma=3.0, n1=4, target=kind),
    lambda kind: analysis.make_target(kind, 0.5),
    lambda kind: analysis.predicted_log_rate(3.0, 0.5, 1.0, kind),
    lambda kind: analysis.quadrature_error_curve([], kind, analysis.arc_grid(1.0, n=3)),
], ids=["ApproxConfig", "make_target", "predicted_log_rate", "quadrature_error_curve"])
@pytest.mark.parametrize("kind", ["cube", "prefactor_power", "Power"])
def test_one_target_kind_check(call, kind):
    with pytest.raises(ValueError) as info:
        call(kind)
    assert str(info.value) == f"unknown target {kind!r}"
