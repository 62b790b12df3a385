"""ComputeUi: accumulate per-pair Wigner matrices into per-atom U.

Step (1) of the paper's four-step SNAP evaluation: every (atom, neighbor)
pair's ``u_j`` set is weighted by the radial switching function and summed
into the per-atom total ``U_j``; the central atom contributes the identity
(``wself`` on the diagonal).  On GPUs this accumulation is the
atomic-addition-limited kernel whose work batching (each thread summing
``batch`` neighbors locally before one atomic add) gives the 2.23x H100
uplift of Table 2 (priced by ``snap/kk``'s ComputeUi profile).  Arrays
follow section 4.3.1: quantum number first, atom (or pair) index fastest.
"""

from __future__ import annotations

import numpy as np

from repro.kokkos.segment import _sorted_segments
from repro.snap.indexing import SnapIndex
from repro.snap.wigner import switching, wigner_levels


def compute_ui(
    rij: np.ndarray,
    pair_i: np.ndarray,
    natoms: int,
    rcut: float,
    twojmax: int,
    *,
    rmin0: float = 0.0,
    wself: float = 1.0,
) -> np.ndarray:
    """Per-atom totals ``U`` (idxu_max, natoms) complex, atom axis fastest.

    ``pair_i`` must be sorted (the row-major list ordering), so each atom's
    neighbors are one contiguous run of the pair axis and the per-atom sum
    is one ``reduceat`` along it instead of atomic adds.
    """
    idx = SnapIndex(twojmax)
    U = np.zeros((idx.idxu_max, natoms), dtype=np.complex128)
    if len(pair_i):
        r = np.sqrt(np.einsum("ij,ij->i", rij, rij))
        sfac, _ = switching(r, rcut, rmin0)
        starts, targets = _sorted_segments(pair_i)
        for J, u, _ in wigner_levels(rij, rcut, rmin0=rmin0, twojmax=twojmax):
            lo, hi = idx.idxu_block[J], idx.idxu_block[J + 1]
            U[lo:hi, targets] = np.add.reduceat(
                sfac * u.reshape(hi - lo, -1), starts, axis=1
            )
    U[idx.diag_indices()] += wself
    return U

