#!/usr/bin/env python
"""Quickstart: the classic Lennard-Jones melt, three ways.

Runs LAMMPS's canonical ``bench/in.lj`` workload (fcc argon, reduced
density 0.8442, T* = 1.44) through

1. the plain host pair style (``lj/cut``),
2. the Kokkos style on the simulated H100 (``suffix kk``), and
3. the Kokkos style pinned to the host (``suffix kk/host``),

then prints the thermodynamic trajectory, verifies the three agree to
machine precision, and shows the simulated-device kernel ledger — the same
instrumentation the paper reads with Nsight Systems.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

import repro.kokkos as kk
from repro.core import Lammps

MELT = """\
units lj
lattice fcc 0.8442
region box block 0 4 0 4 0 4
create_box 1 box
create_atoms 1 box
mass 1 1.0
velocity all create 1.44 87287
pair_style lj/cut 2.5
pair_coeff 1 1 1.0 1.0
neighbor 0.3 bin
fix 1 all nve
thermo 20
"""


def run(device: str | None, suffix: str | None, quiet: bool = True) -> Lammps:
    lmp = Lammps(device=device, suffix=suffix, quiet=quiet)
    lmp.commands_string(MELT)
    lmp.command("run 100")
    return lmp


def main() -> None:
    print("=== LJ melt, plain host style ===")
    plain = run(device=None, suffix=None, quiet=False)

    print("\n=== Same input script, Kokkos style on a simulated H100 ===")
    kokkos = run(device="H100", suffix="kk")
    print(f"pair style selected by suffix: {type(kokkos.pair).__name__}")

    host = run(device="H100", suffix="kk/host")

    # all three paths produce identical physics (the portability contract)
    for label, other in [("kk/device", kokkos), ("kk/host", host)]:
        d = abs(
            other.thermo.history[-1]["etotal"] - plain.thermo.history[-1]["etotal"]
        )
        print(f"etotal difference vs plain ({label}): {d:.2e}")
        assert d < 1e-9

    print("\n=== Simulated-device kernel ledger (H100 run) ===")
    print(f"{'kernel':<32}  {'sim time (s)':>14}  {'launches':>8}")
    for name, seconds, count in kk.device_context().timeline.breakdown()[:8]:
        print(f"{name:<32}  {seconds:>14.6e}  {count:>8d}")

    e0 = plain.thermo.history[0]["etotal"] / plain.natoms_total
    print(f"\nE/atom at step 0: {e0:.4f}  (LAMMPS reference: -4.6218)")
    assert abs(e0 - (-4.6218)) < 0.01


if __name__ == "__main__":
    main()
