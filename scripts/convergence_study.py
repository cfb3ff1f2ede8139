#!/usr/bin/env python3
"""Constraint-drift convergence study for the fixed-step integrator.

Runs a catalog scenario over a range of step sizes and reports the worst
positional/velocity constraint residuals, their observed convergence
order, and the effect of turning projection on.  Useful when tuning dt
for a new scenario.
"""

import argparse

import numpy as np

from constrained_dynamics import IntegratorConfig, catalog_scenario, integrate_first_kind


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default="pendulum")
    ap.add_argument("--t-end", type=float, default=5.0)
    ap.add_argument("--dts", default="4e-3,2e-3,1e-3,5e-4")
    ap.add_argument("--projection", action="store_true",
                    help="also run with positional+velocity projection")
    args = ap.parse_args()

    sc = catalog_scenario(args.scenario)
    if args.projection and (sc.constraints is None or not sc.constraints.is_holonomic):
        ap.error(f"--projection needs a holonomic scenario; {sc.name!r} is not one")
    dts = [float(s) for s in args.dts.split(",")]

    print(f"scenario: {sc.name}, t_end = {args.t_end}")
    print(f"{'dt':>10} {'max|g|':>12} {'max|phi|':>12} {'order':>7}")
    prev = None
    for dt in dts:
        traj = integrate_first_kind(
            sc.system, sc.constraints, sc.initial, args.t_end,
            IntegratorConfig(dt=dt),
        )
        g = traj.max_diag("g_norm")
        phi = traj.max_diag("phi_norm")
        order = ""
        if prev is not None and phi > 0:
            order = f"{np.log2(prev / phi):7.2f}"
        prev = phi
        print(f"{dt:>10.1e} {g:>12.3e} {phi:>12.3e} {order:>7}")

    if args.projection:
        print("\nwith positional+velocity projection:")
        for dt in dts:
            traj = integrate_first_kind(
                sc.system, sc.constraints, sc.initial, args.t_end,
                IntegratorConfig(dt=dt, projection="positional+velocity"),
            )
            print(f"{dt:>10.1e} {traj.max_diag('g_norm'):>12.3e} "
                  f"{traj.max_diag('phi_norm'):>12.3e}")


if __name__ == "__main__":
    main()
