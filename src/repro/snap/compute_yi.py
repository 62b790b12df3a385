"""ComputeYi: the adjoint array (step 2 of the SNAP evaluation).

The energy is trilinear in the U totals,

    E_i = sum_b beta_b sum_t C_t U[in1] U[in2] conj(U[out]),

so ``dE_i = Re(sum_m Y[m] dU[m])`` with ``Y[m]`` the gradient terms where
``U[m]`` appears bare plus the conjugate of those where it appears
conjugated.  ``U[j, J-mb, J-ma] = (-1)^(mb+ma) conj U[j, mb, ma]`` carries
over to ``Y`` (every term holds a product of two CG factors), so an entry
and its mirror image contribute complex-conjugate amounts: the half range
``idx.half``, weighted ``idx.fold``, is the whole sum (section 4.3's
folding into a single Y).  The same symmetry makes every row of ``[U; conj
U]`` plus or minus a row of ``[U[half]; conj U[half]]``, so the contraction
reads 2 len(half) rows, not 2 idxu_max.  The CG coefficients conserve (m,
m'), so :class:`~repro.snap.indexing.ContractionPlan` forms each product of
an (m, m') class once, contiguously, and the class's rows are one GEMM.
"""

from __future__ import annotations

import numpy as np

from repro.snap.indexing import SnapIndex


def compute_yi(Uh: np.ndarray, beta: np.ndarray, twojmax: int) -> np.ndarray:
    """Folded adjoint ``Y`` (len(idx.half), natoms); row ``k`` pairs with
    the flat quantum number ``idx.half[k]``.  ``Uh`` is ComputeUi's half
    rows (len(idx.half), natoms)."""
    idx = SnapIndex(twojmax)
    if beta.shape != (idx.nbispectrum,):
        raise ValueError(
            f"beta has {beta.shape}, expected ({idx.nbispectrum},)"
        )
    plan = idx.yi_plan
    return plan.contract(np.concatenate((Uh, np.conj(Uh))), plan.weights(beta))


def compute_ytilde(Y: np.ndarray, twojmax: int) -> np.ndarray:
    """The folded adjoint of a *reversed* pair, ``Ytilde`` (len(idx.half),
    natoms): the partner atom's ``U`` holds ``v^dagger`` for the pair's
    weighted ``v = sfac u``, so ``dE = Re(Y . d(v^dagger)) = Re(Ytilde .
    dv)`` with ``Ytilde[m] = conj Y[dagger m]`` — a fixed row map of ``[Y;
    conj Y]`` (``SnapIndex.dagger_half``)."""
    return SnapIndex(twojmax).dagger_half(Y)
