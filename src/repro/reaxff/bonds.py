"""Two-body bond energy from the bond-order table.

``E_bond = -De_ij * BO_ij`` summed over bonds.  A bond is evaluated exactly
once globally via the tag tie-break (the owner of the lower-tag end
computes), with the force applied to both ends; ghost-end forces flow back
through the reverse communication.
"""

from __future__ import annotations

import numpy as np

from repro.kokkos.segment import scatter_add, scatter_sub
from repro.potentials.pair import accumulate_virial
from repro.reaxff.bond_order import BondList
from repro.reaxff.params import ReaxParams


def compute_bonds(
    x: np.ndarray,
    types: np.ndarray,
    tags: np.ndarray,
    nlocal: int,
    bonds: BondList,
    params: ReaxParams,
    f: np.ndarray,
    virial: np.ndarray,
) -> float:
    """Accumulate bond forces into ``f``; returns the bond energy."""
    if bonds.nbonds == 0:
        return 0.0
    i, j = bonds.i, bonds.j.astype(np.int64)
    own = np.flatnonzero((i < nlocal) & (np.take(tags, i) < np.take(tags, j)))
    if own.size == 0:
        return 0.0
    i, j = np.take(i, own), np.take(j, own)
    bo, dbo = np.take(bonds.bo, own), np.take(bonds.dbo, own)
    dx, r = np.take(bonds.dx, own, axis=0), np.take(bonds.r, own)
    de = params.de_ij(np.take(types, i), np.take(types, j))
    energy = float(-(de * bo).sum())
    # dE/dr = -De dBO/dr; F_i = -dE/dr * dx/r
    fpair = de * dbo / r
    fvec = fpair[:, None] * dx
    scatter_add(f, i, fvec, assume_sorted=True)
    scatter_sub(f, j, fvec)
    accumulate_virial(virial, np.take(x, i, axis=0), fvec)
    accumulate_virial(virial, np.take(x, j, axis=0), -fvec)
    return energy
