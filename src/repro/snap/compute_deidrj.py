"""ComputeFusedDeidrj: per-pair force contraction (steps 3+4, fused).

For each (atom, neighbor) pair the weighted Wigner derivative is

    dU_pair/dr = (dsfac/dr) rhat (x) u_pair + sfac * du_pair,

(the ComputeDuidrj recursion), and the force contribution contracts it
against the folded adjoint of the center atom over the half range:

    dE/dr = dsfac rhat Re(Y . u) + sfac Re(Y . du).

Both dot products are taken level by level as the recursion produces them,
all three Cartesian directions in one pass — the paper's
ComputeFusedDeidrj, which eliminated the redundant recomputation of u and
the repeated loads of Y between the per-direction kernels (Table 2's
1.49x / 1.74x uplift) — so neither ``dU`` nor the stacked ``du`` is ever
materialised, and pairs go in chunks of bounded footprint: the Python
analogue of eliminating global-memory staging (section 4.3.3).

A pair recursed once (``compute_ui``'s ``partner``) carries both ends:
its partner's ``U`` holds ``(sfac u)^dagger``, whose contraction with the
partner's ``Y`` is the contraction of ``sfac u`` itself with ``Ytilde``
(``compute_yi.compute_ytilde``), so one recursion feeds ``Y_i +
Ytilde_partner`` and yields the whole pair force.
"""

from __future__ import annotations

import numpy as np

from repro.snap.compute_yi import compute_ytilde
from repro.snap.indexing import SnapIndex, chunk_len
from repro.snap.wigner import switching, wigner_levels


def compute_fused_deidrj(
    rij: np.ndarray,
    pair_i: np.ndarray,
    Y: np.ndarray,
    rcut: float,
    twojmax: int,
    *,
    rmin0: float = 0.0,
    partner: np.ndarray | None = None,
) -> np.ndarray:
    """``dE/dr_k`` for every pair, shape (npairs, 3) real.

    ``rij = x_neighbor - x_center``; the caller applies Newton's third law
    (force on the neighbor, opposite force on the center).  With
    ``partner`` (as in :func:`~repro.snap.compute_ui.compute_ui`; ``natoms``
    where a pair has none) the pair is contracted once against ``Y[center]
    + Ytilde[partner]``, so the result is the derivative of both atoms'
    energies; a pair without a partner reads a zero column.
    """
    idx = SnapIndex(twojmax)
    npairs = rij.shape[0]
    dedr = np.empty((npairs, 3))
    # Re(Y v) = conj(Y) . v over the interleaved (re, im) float view
    Yc = np.conj(Y)
    if partner is not None:
        Ytc = np.zeros((Y.shape[0], Y.shape[1] + 1), dtype=np.complex128)
        Ytc[:, :-1] = np.conj(compute_ytilde(Y, twojmax))
    # (the top level's (J+1)^2 x 3 complex derivative block, per pair)
    chunk = chunk_len(48 * (twojmax + 1) ** 2)
    for lo in range(0, npairs, chunk):
        sl = slice(lo, min(lo + chunk, npairs))
        rij_c = rij[sl]
        n = rij_c.shape[0]
        y = np.take(Yc, pair_i[sl], axis=1)
        if partner is not None:
            y += np.take(Ytc, partner[sl], axis=1)
        y = y.view(np.float64)  # (nhalf, 2n)
        yu = np.zeros(2 * n)
        ydu = np.zeros((3, 2 * n))
        for J, u, du in wigner_levels(
            rij_c, rcut, rmin0=rmin0, twojmax=twojmax, derivatives=True
        ):
            klo, khi = idx.half_block[J], idx.half_block[J + 1]
            nk, yj = khi - klo, y[klo:khi]
            yu += np.einsum(
                "kc,kc->c", yj, u.reshape(-1, n)[:nk].view(np.float64)
            )
            ydu += np.einsum(
                "kc,kdc->dc", yj, du.reshape(-1, 3, n)[:nk].view(np.float64)
            )
        r = np.sqrt(np.einsum("ij,ij->i", rij_c, rij_c))
        sfac, dsfac = switching(r, rcut, rmin0)
        dedr[sl] = (
            dsfac * yu.reshape(n, 2).sum(axis=1) * (rij_c.T / r)
            + sfac * ydu.reshape(3, n, 2).sum(axis=2)
        ).T
    return dedr
