"""Bispectrum components: the Clebsch-Gordan triple products (equation 3).

``B_{j1,j2,j} = Z_{j1,j2}^j : U_j^*`` evaluated through the precomputed
sparse contraction tensor.  The result is real (only the real part is summed;
the tests hold the un-folded complex sum's imaginary residue to zero) and
invariant under rotations of the neighborhood — the property that makes SNAP
a valid descriptor.
"""

from __future__ import annotations

import numpy as np

from repro.snap.indexing import SnapIndex


def compute_bispectrum(U: np.ndarray, twojmax: int) -> np.ndarray:
    """(natoms, nbispectrum) real bispectrum from per-atom U totals."""
    idx = SnapIndex(twojmax)
    plan, zout, ibstarts = idx.bi_plan
    Z = plan.contract(U, plan.weights(), len(zout))
    Uz = U[zout]
    return np.add.reduceat(
        Z.real * Uz.real + Z.imag * Uz.imag, ibstarts, axis=0
    ).T.copy()
