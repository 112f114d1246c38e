#!/usr/bin/env python3
"""Integrate the two lattices and check the residuals scale like dt^2.

The matrix flow moves the band entries of J; the gamma flow moves the
interlaced sequence of factor entries.  Both run on fixed-step RK4, and
the central-difference verifier reports a worst residual that drops by
~4x each time dt is halved.
"""

import numpy as np

from toda_darboux import (
    ParameterSet,
    darboux_factorization,
    evolve_kdv,
    evolve_toda,
    graded_scale,
    random_hessenberg,
    verify_kdv,
    verify_toda,
)

N, SEED, LAM = 8, 3, 0.6


def main():
    J = graded_scale(random_hessenberg(2, N, seed=SEED), LAM)
    print(f"matrix flow: p = 2, n = {N}, graded scale {LAM}")
    for dt, steps in [(1e-2, 20), (5e-3, 40), (2.5e-3, 80)]:
        traj = evolve_toda(J, dt=dt, steps=steps)
        rep = verify_toda(traj, tol=1e-3)
        print(f"  dt = {dt:g}: {rep.line()}")

    print("\ngamma flow on the factor entries of a tamer p = 1 instance:")
    J1 = graded_scale(random_hessenberg(1, N, seed=101), 0.15)
    _, table = darboux_factorization(J1, 0.0, params=ParameterSet(()))
    for dt, steps in [(2e-3, 50), (1e-3, 100)]:
        traj = evolve_kdv(table, dt=dt, steps=steps)
        rep = verify_kdv(traj, tol=1e-5)
        print(f"  dt = {dt:g}: {rep.line()}")

    print("\ndiagonal sum along the matrix flow (a conserved trace):")
    traj = evolve_toda(J, dt=1e-2, steps=20)
    for m in (0, len(traj) // 2, len(traj) - 1):
        tr = traj[m].band(0).sum()
        print(f"  t = {traj.times[m]:.2f}: trace = {tr.real:+.12f}")


if __name__ == "__main__":
    main()
