"""ComputeUi: accumulate per-pair Wigner matrices into per-atom U.

Step (1) of the paper's four-step SNAP evaluation: every (atom, neighbor)
pair's ``u_j = S v_j`` set, weighted by the radial switching function, is
summed into the per-atom total ``U_j`` (as ``sfac v``, then ``S`` once per
atom); the central atom contributes the identity (``wself``).  On GPUs
this accumulation is the atomic-addition-limited kernel whose work
batching (each thread summing ``batch`` neighbors locally before one
atomic add) gives the 2.23x H100 uplift of Table 2 (priced by
``snap/kk``'s ComputeUi profile).  Arrays follow section 4.3.1: quantum
number first, atom (or pair) index fastest.

Two symmetries cut the work.  Every ``v`` is mirror-symmetric bit for bit,
so only the half range ``idx.half`` is summed, and only it is returned:
both consumers, ComputeYi and the energy, read the half rows (the
bispectrum unfolds the rest).  And ``u(-r) = u(r)^dagger`` (the
Cayley-Klein matrix of ``-r`` is the inverse of that of ``r``), so a pair
is recursed once, from one end: the reversed pair's contribution to its
center — the ``partner`` — is the conjugate-transpose of the forward
pair's, and because the conjugate-transpose is linear it is applied once,
to the per-atom sum.
"""

from __future__ import annotations

import numpy as np

from repro.kokkos.segment import _sorted_segments
from repro.snap.indexing import SnapIndex
from repro.snap.wigner import cayley_klein, switching, wigner_levels


def compute_ui(
    rij: np.ndarray,
    pair_i: np.ndarray,
    natoms: int,
    rcut: float,
    twojmax: int,
    *,
    rmin0: float = 0.0,
    wself: float = 1.0,
    partner: np.ndarray | None = None,
) -> np.ndarray:
    """Per-atom totals ``U``, its half rows (len(idx.half), natoms) complex,
    atom axis fastest: row ``k`` is the flat quantum number ``idx.half[k]``.

    ``pair_i`` must be sorted (the row-major list ordering), so each atom's
    neighbors are one contiguous run of the pair axis and the per-atom sum
    is one ``reduceat`` along it instead of atomic adds.  ``partner[k]``, if
    given, is the atom that also receives pair ``k`` reversed,
    ``(sfac u)^dagger``; ``natoms`` marks a pair without one.
    """
    idx = SnapIndex(twojmax)
    npairs = len(pair_i)
    Uh = np.zeros((len(idx.half), natoms), dtype=np.complex128)
    if npairs:
        r, ca, cb, _, _ = cayley_klein(rij, rcut, rmin0)
        sfac, _ = switching(r, rcut, rmin0)
        starts, targets = _sorted_segments(pair_i)
        if partner is not None:
            order = np.argsort(partner, kind="stable")
            order = order[: np.count_nonzero(partner < natoms)]
            pstarts, ptargets = _sorted_segments(partner[order])
            Wh = np.zeros_like(Uh)
        for J, v in wigner_levels(sfac, ca, cb, twojmax):
            lo, hi = idx.half_block[J], idx.half_block[J + 1]
            sv = v.reshape(-1, npairs)[: hi - lo]
            Uh[lo:hi, targets] = np.add.reduceat(sv, starts, axis=1)
            if partner is not None and len(order):
                Wh[lo:hi, ptargets] = np.add.reduceat(
                    np.take(sv, order, axis=1), pstarts, axis=1
                )
        Uh *= idx.half_scale
        if partner is not None:
            Uh += idx.dagger_half(idx.half_scale * Wh)
    diag = idx.diag_indices()
    Uh[np.searchsorted(idx.half, diag[idx.fold[diag] > 0])] += wself
    return Uh
