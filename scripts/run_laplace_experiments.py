#!/usr/bin/env python3
"""Lightning Laplace experiments on the two corner domains.

Solves the Dirichlet problem with data (Re z)^2 over a pole-budget sweep on
the concave quadrilateral (comparing sigma=4 with the globally optimal
clustering) and on the curvy L-shaped domain, writing boundary-error tables.
"""

import argparse
from pathlib import Path

from lightningpoly.corners import (
    boundary_error,
    builtin_boundary_data,
    concave_quadrilateral,
    curvy_l_domain,
    plan_basis,
    solve_dirichlet,
)


def sweep(polygon, sigma_mode, n_list, data="re2"):
    data = builtin_boundary_data(data)  # resolved once, not per solve
    rows = []
    for n in n_list:
        basis = plan_basis(polygon, n, sigma_mode)
        sol = solve_dirichlet(polygon, data, basis)
        rows.append((n, basis.sigmas[0], sol.residual_norm,
                     boundary_error(sol, polygon, data)))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--N", default="40,80,120,160")
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_list = [int(v) for v in args.N.split(",")]

    domains = (("concave_quadrilateral", concave_quadrilateral()),
               ("curvy_l", curvy_l_domain()))
    for name, poly in domains:
        lines = ["sigma_mode,N,sigma,residual_rms,boundary_sup_err"]
        print(f"-- {name}")
        for mode in (4.0, "global_opt"):
            for n, sigma, rms, err in sweep(poly, mode, n_list):
                lines.append(f"{mode},{n},{sigma:.17g},{rms:.17g},{err:.17g}")
                print(f"   sigma={sigma:7.4f} N={n:4d} boundary err={err:.3e}")
        path = out / f"laplace_{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        print(f"   table written to {path}")


if __name__ == "__main__":
    main()
