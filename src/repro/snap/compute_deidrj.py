"""ComputeFusedDeidrj: per-pair force contraction (steps 3+4, fused).

For each (atom, neighbor) pair the weighted Wigner matrices are ``sfac u``
and the force contribution contracts their derivative against the folded
adjoint ``W`` of the center atom over the half range:

    dE/dr = dsfac rhat Re(W . u) + sfac Re(W . du).

The second term is taken in reverse mode.  With the levels binomial-scaled,
``u = S v`` (``S`` per quantum number, applied once per call to ``Y`` and
``Ytilde``), ``L = Re(S W . v)`` is a function of the Cayley-Klein
parameters through ``v_J[:, ma] = ca v_{J-1}[:, ma] - cb v_{J-1}[:,
ma-1]``, so one value recursion, kept per chunk, and one sweep ``J =
2J_max .. 1`` carrying the adjoint ``A_J`` (``dL = Re sum A_J dv_J``) give

    A_{J-1} = ca A_J[:, :J] - cb A_J[:, 1:]  (+ S W on its half rows),
    A_ca += sum v_{J-1} A_J[:, :J],  A_cb -= sum v_{J-1} A_J[:, 1:],

and ``Re(W . du/dr_d) = Re(A_ca dca_d + A_cb dcb_d)``: one complex
direction per level, and no ``du`` block at all.  Every level is linear in
``v_0 = sfac``, so ``A_ca``, ``A_cb`` carry ``sfac`` and ``L = Re(A_0)``:
no contraction, and no top level (only ``L`` reads it).  An odd level's
mirror row is a function of the row before it, so its adjoint folds back
onto that row.  That is the paper's ComputeFusedDeidrj — ``u`` computed
once and ``Y`` loaded once for all three directions — with the adjoint of
section 4.3's ``Y`` carried one step further, through the recursion
itself.  Pairs go in chunks of bounded footprint (the chunk's levels), and
every sum is per pair, so no result depends on the chunking.

A pair recursed once (``compute_ui``'s ``partner``) carries both ends:
its partner's ``U`` holds ``(sfac u)^dagger``, whose contraction with the
partner's ``Y`` is the contraction of ``sfac u`` itself with ``Ytilde``
(``compute_yi.compute_ytilde``), so one recursion feeds ``W = Y_i +
Ytilde_partner`` and yields the whole pair force.
"""

from __future__ import annotations

import numpy as np

from repro.snap.compute_yi import compute_ytilde
from repro.snap.indexing import SnapIndex, chunk_len
from repro.snap.wigner import cayley_klein, level_rows, mirror_sign, switching, wigner_levels


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
    blk, S = idx.half_block, idx.half_scale
    npairs = rij.shape[0]
    dedr = np.empty((npairs, 3))
    Ys = S * Y
    if partner is not None:
        Yt = np.zeros((Y.shape[0], Y.shape[1] + 1), dtype=np.complex128)
        np.multiply(S, compute_ytilde(Y, twojmax), out=Yt[:, :-1])
    # (the chunk's levels: every row the sweep reads, per pair)
    chunk = chunk_len(16 * sum(level_rows(J) * (J + 1) for J in range(twojmax)))
    r, ca, cb, dca, dcb = cayley_klein(rij, rcut, rmin0)
    sfac, dsfac = switching(r, rcut, rmin0)
    # no chunk of one pair unless the call is: numpy sums one pair's block
    # pairwise, a wider one row by row, and no bit may follow the chunking
    los = list(range(0, npairs, max(chunk, 2)))
    if len(los) > 1 and npairs - los[-1] == 1:
        los.pop()
    for lo, hi in zip(los, los[1:] + [npairs]):
        sl, n = slice(lo, hi), hi - lo
        w = np.take(Ys, pair_i[sl], axis=1)
        if partner is not None:
            w += np.take(Yt, partner[sl], axis=1)
        levels = [v for _, v in wigner_levels(sfac[sl], ca[sl], cb[sl], twojmax - 1)]
        ca_c, cb_c = ca[sl].reshape(1, 1, n), cb[sl].reshape(1, 1, n)  # levels' rank
        # the reverse sweep, seeded with S W on the top level's half rows
        adj = np.zeros((twojmax // 2 + 1, twojmax + 1, n), dtype=np.complex128)
        adj.reshape(-1, n)[: blk[-1] - blk[-2]] = w[blk[-2] :]
        a_ca, a_cb = np.zeros((2, n), dtype=np.complex128)
        for J in range(twojmax, 0, -1):
            h = J // 2 + 1
            ga, gb = adj[:h, :J], adj[:h, 1:]
            p = levels[J - 1]  # (h, J, n): exactly the rows level J read
            a_ca += (p * ga).reshape(-1, n).sum(axis=0)
            a_cb -= (p * gb).reshape(-1, n).sum(axis=0)
            adj = ca_c * ga - cb_c * gb
            adj.reshape(-1, n)[: blk[J] - blk[J - 1]] += w[blk[J - 1] : blk[J]]
            if (J - 1) % 2:  # level J - 1's mirror row folds onto its source
                adj[h - 2] += (mirror_sign(J - 1) * np.conj(adj[h - 1]))[::-1]
        # L = Re(A_0 . 1): A_0 does not depend on v_0, A_ca and A_cb carry it
        radial = dsfac[sl] * adj[0, 0].real * (rij[sl].T / r[sl])
        dedr[sl] = (radial + (a_ca * dca[:, sl] + a_cb * dcb[:, sl]).real).T
    return dedr
