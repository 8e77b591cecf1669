#!/usr/bin/env python3
"""Two-level Rabi oscillation: closed form against the RK4 integrator.

Writes the closed-form trajectory to CSV and prints how far the numerical
integration of the time-dependent RWA Hamiltonian strays from it.
"""

import argparse

import numpy as np

from nrabi import (
    LevelSystem,
    StateVector,
    hamiltonian_rwa,
    integrate_schrodinger,
    trajectory,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g", type=float, default=1.0, help="coupling constant")
    parser.add_argument("--periods", type=float, default=2.0, help="Rabi periods to cover")
    parser.add_argument("--samples", type=int, default=801)
    parser.add_argument("--out", default="rabi_demo.csv")
    args = parser.parse_args()

    system = LevelSystem.resonant((0.0, 1.0), {(0, 1): args.g})
    psi0 = StateVector.basis(2, 0)
    t_end = args.periods * 2.0 * np.pi / args.g
    times = np.linspace(0.0, t_end, args.samples)

    closed = trajectory(system, psi0, times).populations()
    series = integrate_schrodinger(
        lambda t: hamiltonian_rwa(system, t), psi0, t_end, args.samples
    )

    analytic = np.cos(args.g * times) ** 2
    print(f"closed form vs cos^2(gt): {np.max(np.abs(closed[:, 0] - analytic)):.3e}")
    print(f"RK4 vs cos^2(gt):         {np.max(np.abs(series.populations[:, 0] - analytic)):.3e}")

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,pop_0,pop_1,rk4_pop_0,rk4_pop_1\n")
        for k, t in enumerate(times):
            row = (t, *closed[k], *series.populations[k])
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    print(f"trajectory written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
