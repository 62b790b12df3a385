"""The LJ melt benchmark (LAMMPS's ``bench/in.lj``).

fcc argon at reduced density 0.8442, T* = 1.44, cutoff 2.5 sigma — the
workload behind the paper's Lennard-Jones case study.
"""

from __future__ import annotations


MELT_TEMPLATE = """\
units lj
lattice fcc 0.8442
region box block 0 {cells} 0 {cells} 0 {cells}
create_box 1 box
create_atoms 1 box
mass 1 1.0
velocity all create 1.44 87287
pair_style {pair_style} 2.5
pair_coeff 1 1 1.0 1.0
neighbor 0.3 bin
neigh_modify every 20 delay 0 check no
fix 1 all nve
thermo 100
"""


def setup_melt(lmp, cells: int = 4, pair_style: str = "lj/cut") -> None:
    """Drive ``lmp`` (Lammps or Ensemble) to a ready melt configuration."""
    lmp.commands_string(MELT_TEMPLATE.format(cells=cells, pair_style=pair_style))
