"""Un-folded SNAP contractions: the reference the folded wall path is held to.

The three-pass COO form the engine used before the half-symmetry fold —
every symmetry image enumerated, one scatter per slot, no plan — kept here
(and only here) because it is transparently the gradient of

    E_i = Re sum_t beta[ib_t] C_t U[in1_t] U[in2_t] conj(U[out_t])

for *arbitrary* U, on or off the symmetry manifold.  All arrays use the
engine's layout: quantum number first, atom axis fastest.
:func:`every_direction_forces` is the pair-level reference for the wall
path's one-recursion-per-pair forces.
"""

from __future__ import annotations

import numpy as np

from repro.snap.compute_deidrj import compute_fused_deidrj
from repro.snap.compute_ui import compute_ui
from repro.snap.compute_yi import compute_yi
from repro.snap.indexing import SnapIndex
from repro.snap.wigner import wigner_levels


def stacked_wigner(rij: np.ndarray, rcut: float, twojmax: int):
    """``(u, du)``: every level of :func:`wigner_levels` stacked in flat
    quantum-number order — (idxu_max, npairs) and (idxu_max, 3, npairs) —
    with the mirror rows of ``du`` the recursion never builds filled in."""
    n = len(rij)
    us, dus = [], []
    for J, u, du in wigner_levels(rij, rcut, twojmax=twojmax, derivatives=True):
        full = np.empty((J + 1, J + 1, 3, n), dtype=np.complex128)
        for mb in range(J // 2 + 1):
            for ma in range(J + 1):
                full[mb, ma] = du[mb, ma]
                full[J - mb, J - ma] = (-1.0) ** (mb + ma) * np.conj(du[mb, ma])
        us.append(u.reshape(-1, n))
        dus.append(full.reshape(-1, 3, n))
    return np.concatenate(us), np.concatenate(dus)


def coo_bispectrum(U: np.ndarray, twojmax: int) -> np.ndarray:
    """(natoms, nbispectrum) *complex* triple products, nothing folded."""
    idx = SnapIndex(twojmax)
    t = idx.tensor
    B = np.zeros((idx.nbispectrum, U.shape[1]), dtype=np.complex128)
    np.add.at(B, t.ib, t.coeff[:, None] * U[t.in1] * U[t.in2] * np.conj(U[t.out]))
    return B.T


def coo_energy(U: np.ndarray, beta: np.ndarray, twojmax: int) -> np.ndarray:
    """Per-atom energies; well defined for off-manifold ``U``."""
    return np.real(coo_bispectrum(U, twojmax) @ beta)


def coo_adjoints(
    U: np.ndarray, beta: np.ndarray, twojmax: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(Y12, Y3)``: partials of the energy with respect to U / conj(U),

        dE_i = Re( sum_m Y12[m] dU[m] + Y3[m] conj(dU[m]) ).
    """
    t = SnapIndex(twojmax).tensor
    w = (beta[t.ib] * t.coeff)[:, None]
    u1, u2, cu3 = U[t.in1], U[t.in2], np.conj(U[t.out])
    y12 = np.zeros_like(U)
    y3 = np.zeros_like(U)
    np.add.at(y12, t.in1, w * u2 * cu3)
    np.add.at(y12, t.in2, w * u1 * cu3)
    np.add.at(y3, t.out, w * u1 * u2)
    return y12, y3


def every_direction_forces(lmp) -> np.ndarray:
    """Forces by tag, (natoms_total, 3), of a one-rank ``pair snap`` state
    with every directed in-cutoff pair recursed from its own center — no
    pair kept once, no partner — and ghost forces folded onto owners."""
    atom, pair = lmp.atom, lmp.pair
    i, j = lmp.neigh_list.ij_pairs()
    rij = atom.x[j] - atom.x[i]
    cut = np.einsum("ij,ij->i", rij, rij) < pair.rcut**2
    i, j, rij = i[cut], j[cut], rij[cut]
    U = compute_ui(rij, i, atom.nlocal, pair.rcut, pair.twojmax)
    Y = compute_yi(U, pair.beta, pair.twojmax)
    dedr = compute_fused_deidrj(rij, i, Y, pair.rcut, pair.twojmax)
    f = np.zeros((lmp.natoms_total, 3))
    np.add.at(f, atom.tag[i] - 1, dedr)
    np.subtract.at(f, atom.tag[j] - 1, dedr)
    return f


def mirror(twojmax: int) -> tuple[np.ndarray, np.ndarray]:
    """``(mbar, sign)`` per flat index: ``u[mbar] = sign * conj(u[m])`` with
    ``m = (j, mb, ma)``, ``mbar = (j, j - mb, j - ma)``, ``sign =
    (-1)^(mb + ma)``."""
    idx = SnapIndex(twojmax)
    mbar = np.empty(idx.idxu_max, dtype=np.int64)
    sign = np.empty(idx.idxu_max)
    for j in range(twojmax + 1):
        for mb in range(j + 1):
            for ma in range(j + 1):
                m = idx.flat(j, mb, ma)
                mbar[m] = idx.flat(j, j - mb, j - ma)
                sign[m] = (-1.0) ** (mb + ma)
    return mbar, sign
