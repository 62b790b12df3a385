"""Velocity initialization (the ``velocity`` command).

Velocities are generated from a *global*, tag-indexed table so that results
are independent of the rank decomposition: every rank draws the same
Maxwell-Boltzmann sample for a given atom tag, then the table-level center
of mass is removed and the table is rescaled to the exact target
temperature.  Multi-rank and single-rank runs therefore start from
bit-identical states — the property the decomposition-equivalence tests
rely on.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InputError
from repro.core.units import UnitSystem
from repro.kokkos.segment import fixed_dot


def maxwell_table(
    natoms: int,
    masses_by_tag: np.ndarray,
    temp: float,
    seed: int,
    units: UnitSystem,
) -> np.ndarray:
    """Global velocity table indexed by (tag - 1).

    Zero total momentum, exactly the requested temperature (with the
    3N - 3 center-of-mass degrees of freedom removed, as LAMMPS does).
    """
    if natoms < 1:
        raise InputError("velocity create with no atoms")
    if temp < 0:
        raise InputError("negative target temperature")
    rng = np.random.default_rng(seed)
    m = np.asarray(masses_by_tag, dtype=float)
    if m.shape != (natoms,):
        raise InputError(f"mass table shape {m.shape} != ({natoms},)")
    sigma = np.sqrt(units.boltz * temp / (m * units.mvv2e))
    v = rng.standard_normal((natoms, 3)) * sigma[:, None]
    # remove center-of-mass drift
    vcm = (m[:, None] * v).sum(axis=0) / m.sum()
    v -= vcm
    if temp > 0 and natoms > 1:
        msq = fixed_dot(m, np.einsum("ij,ij->i", v, v))
        dof = 3.0 * natoms - 3.0
        current = units.mvv2e * msq / (dof * units.boltz)
        if current > 0:
            v *= np.sqrt(temp / current)
    return v
