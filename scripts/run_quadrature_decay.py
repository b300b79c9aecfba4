#!/usr/bin/env python3
"""Decay of the trapezoid-rule error against the truncation parameter T.

Sweeps the quadrature point count at fixed step h for sigma below, at, and
above the optimum; the fitted -log(err) slope should be ~1 on the first two
and ~eta^2 above the optimum, separately for the power and log targets.
"""

import argparse
import math
from pathlib import Path

from lightningpoly.analysis import arc_grid, fit_slope_vs_t, quadrature_error_curve
from lightningpoly.approx import optimal_sigma
from lightningpoly.kernels import KernelConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--T", default="4,6,8,10,12,14,16,18")
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_list = [float(v) for v in args.T.split(",")]
    alpha, beta = args.alpha, args.beta
    s_opt = optimal_sigma(alpha, beta)
    grid = arc_grid(beta, n=31)

    lines = ["target,sigma_scale,T,sup_err"]
    print(f"{'target':>10} {'sigma':>10} {'slope':>7} {'predicted':>9}")
    for target in ("power", "power_log"):
        for scale in (1 / math.sqrt(2), 1.0, math.sqrt(2)):
            sigma = s_opt * scale
            cfgs = [KernelConfig.from_truncation(alpha, t, sigma=sigma) for t in t_list]
            rows = quadrature_error_curve(cfgs, target, grid)
            for t, e in rows:
                lines.append(f"{target},{scale:.17g},{t:.17g},{e:.17g}")
            eta = s_opt / sigma
            try:
                slope = fit_slope_vs_t(rows)
            except ValueError:
                slope = float("nan")
            print(f"{target:>10} {scale:>9.3f}o {slope:>7.3f} {min(1.0, eta**2):>9.3f}")
    path = out / f"quadrature_decay_a{alpha}_b{beta}.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"curve table written to {path}")


if __name__ == "__main__":
    main()
