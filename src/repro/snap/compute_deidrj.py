"""ComputeFusedDeidrj: per-pair force contraction (steps 3+4, fused).

For each (atom, neighbor) pair the weighted Wigner matrices are ``sfac u``
and the force contribution contracts their derivative against the folded
adjoint ``W`` of the center atom over the half range:

    dE/dr = dsfac rhat Re(W . u) + sfac Re(W . du).

The second term is taken in reverse mode.  ``L = Re(W . u)`` is a function
of the Cayley-Klein parameters through the recursion, so one value
recursion, kept per chunk, and one sweep ``J = 2J_max .. 1`` carrying the
adjoint ``A_J`` (``dL = Re sum A_J du_J``) give

    A_{J-1} = rpq_a ca A_J[:, :J] + rpq_b cb A_J[:, 1:]  (+ W on its half rows),
    A_ca += sum rpq_a u_{J-1} A_J[:, :J],  A_cb likewise,

and ``Re(W . du/dr_d) = Re(A_ca dca_d + A_cb dcb_d)``: one complex
direction per level, where a forward derivative recursion carries three,
and no ``du`` block at all.  An odd level's mirror row, which the level
above reads, is a function of the row before it, so its adjoint folds back
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
from repro.snap.wigner import (
    cayley_klein, level_rows, level_tables, switching, wigner_levels,
)


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
    blk = idx.half_block
    npairs = rij.shape[0]
    dedr = np.empty((npairs, 3))
    if partner is not None:
        Yt = np.zeros((Y.shape[0], Y.shape[1] + 1), dtype=np.complex128)
        Yt[:, :-1] = compute_ytilde(Y, twojmax)
    # (the chunk's levels: every row wigner_levels yields, per pair)
    chunk = chunk_len(
        16 * sum(level_rows(J) * (J + 1) for J in range(twojmax + 1))
    )
    for lo in range(0, npairs, chunk):
        sl = slice(lo, min(lo + chunk, npairs))
        r, ca, cb, dca, dcb = cayley_klein(rij[sl], rcut, rmin0)
        n = r.shape[0]
        w = np.take(Y, pair_i[sl], axis=1)
        if partner is not None:
            w += np.take(Yt, partner[sl], axis=1)
        levels = [u for _, u in wigner_levels(ca, cb, twojmax)]
        wu = np.zeros(n, dtype=np.complex128)
        for J, u in enumerate(levels):
            wu += np.einsum(
                "kc,kc->c", w[blk[J] : blk[J + 1]],
                u.reshape(-1, n)[: blk[J + 1] - blk[J]],
            )
        # the reverse sweep, seeded with W on the top level's half rows
        adj = np.zeros((twojmax // 2 + 1, twojmax + 1, n), dtype=np.complex128)
        adj.reshape(-1, n)[: blk[-1] - blk[-2]] = w[blk[-2] :]
        a_ca = np.zeros(n, dtype=np.complex128)
        a_cb = np.zeros(n, dtype=np.complex128)
        for J in range(twojmax, 0, -1):
            rpq_a, rpq_b, _ = level_tables(J)
            h = J // 2 + 1
            ga = rpq_a * adj[:h, :J]
            gb = rpq_b * adj[:h, 1:]
            p = levels[J - 1]  # (h, J, n): exactly the rows level J read
            a_ca += np.einsum("ijc,ijc->c", p, ga)
            a_cb += np.einsum("ijc,ijc->c", p, gb)
            adj = ca * ga
            adj += cb * gb
            adj.reshape(-1, n)[: blk[J] - blk[J - 1]] += w[blk[J - 1] : blk[J]]
            if (J - 1) % 2:  # level J - 1's mirror row folds onto its source
                sign = level_tables(J - 1)[2]
                adj[h - 2] += (sign * np.conj(adj[h - 1]))[::-1]
        sfac, dsfac = switching(r, rcut, rmin0)
        dedr[sl] = (
            dsfac * wu.real * (rij[sl].T / r)
            + sfac * (a_ca * dca + a_cb * dcb).real
        ).T
    return dedr
