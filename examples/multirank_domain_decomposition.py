#!/usr/bin/env python
"""Domain decomposition under the hood: one box, many simulated MPI ranks.

Runs the same EAM nickel crystal on 1, 2, 4, and 8 simulated ranks and
verifies the trajectories are identical — the invariant the spatial
decomposition, ghost exchange, and reverse communication must jointly
uphold.  Also prints the communication ledger: how many messages and bytes
the halo protocol actually moved, and what the alpha-beta fabric model
charged for them.

Run:  python examples/multirank_domain_decomposition.py
"""

from __future__ import annotations

import numpy as np

from repro.core import Ensemble, Lammps

EAM = """\
units metal
lattice fcc 3.52
region box block 0 4 0 4 0 4
create_box 1 box
create_atoms 1 box
mass 1 58.7
velocity all create 800 12345
pair_style eam/fs 4.5
pair_coeff * * 2.0 0.3
neighbor 1.0 bin
fix 1 all nve
thermo 25
"""


def gather_x(target) -> np.ndarray:
    ranks = target.ranks if hasattr(target, "ranks") else [target]
    out = np.zeros((ranks[0].natoms_total, 3))
    for lmp in ranks:
        atom = lmp.atom
        out[atom.tag[: atom.nlocal] - 1] = atom.x[: atom.nlocal]
    return out


def main() -> None:
    print("Reference: single rank")
    ref = Lammps(device=None, quiet=False)
    ref.commands_string(EAM)
    ref.command("run 50")
    x_ref = gather_x(ref)

    for nranks in (2, 4, 8):
        ens = Ensemble(nranks, device=None, network="slingshot11")
        ens.commands_string(EAM)
        ens.command("run 50")
        diff = np.abs(gather_x(ens) - x_ref).max()
        grid = ens.ranks[0].decomp.grid
        counts = [lmp.atom.nlocal for lmp in ens.ranks]
        ghosts = [lmp.atom.nghost for lmp in ens.ranks]
        led = ens.world.ledger
        print(f"\n{nranks} ranks, {grid[0]}x{grid[1]}x{grid[2]} brick grid:")
        print(f"  owned atoms per rank : {counts}")
        print(f"  ghost atoms per rank : {ghosts}")
        print(f"  max |x - x_ref|      : {diff:.2e}")
        print(f"  messages exchanged   : {led.messages:,} "
              f"({led.bytes_moved / 1e6:.1f} MB)")
        print(f"  modeled fabric time  : {led.total() * 1e3:.2f} ms "
              f"({', '.join(f'{k}: {v * 1e3:.2f}' for k, v in led.entries.items())})")
        assert diff < 1e-9, "decomposition must not change the trajectory"

    print("\nAll decompositions reproduce the single-rank trajectory exactly.")


if __name__ == "__main__":
    main()
