"""Un-folded SNAP contractions: the reference the folded wall path is held to.

The three-pass COO form the engine used before the half-symmetry fold —
every symmetry image enumerated, one scatter per slot, no plan — kept here
(and only here) because it is transparently the gradient of

    E_i = Re sum_t beta[ib_t] C_t U[in1_t] U[in2_t] conj(U[out_t])

for *arbitrary* U, on or off the symmetry manifold.  All arrays use the
engine's layout: quantum number first, atom axis fastest.  The Wigner
levels here are forward mode — every row of ``u`` and the product-rule
derivative ``du`` carried through the recursion — so the wall path's
reverse sweep (:mod:`repro.snap.compute_deidrj`) is held to a derivative
it does not compute itself: :func:`forward_deidrj` contracts one adjoint
per pair, :func:`every_direction_forces` whole-system forces.
"""

from __future__ import annotations

import numpy as np

from repro.snap.indexing import SnapIndex
from repro.snap.wigner import cayley_klein, switching


def forward_levels(rij: np.ndarray, rcut: float, twojmax: int):
    """Yield ``(J, u_J, du_J)``, every row: ``u_J`` (J+1, J+1, npairs) and
    ``du_J`` (J+1, J+1, 3, npairs).  Rows ``mb <= J/2`` follow the
    recursion and its product rule; the rest, and the right half of an
    even level's middle row, are the mirror image ``x[J-mb, J-ma] =
    (-1)^(mb+ma) conj x[mb, ma]`` (VMK 4.4), so both are exactly
    mirror-symmetric."""
    n = len(rij)
    _, ca, cb, dca, dcb = cayley_klein(rij, rcut, 0.0)
    u = np.ones((1, 1, n), dtype=np.complex128)
    du = np.zeros((1, 1, 3, n), dtype=np.complex128)
    yield 0, u, du
    for J in range(1, twojmax + 1):
        h = J // 2 + 1
        mb = np.arange(h)[:, None]
        ma = np.arange(J)[None, :]
        ra = np.sqrt((J - ma) / (J - mb))[..., None]
        rb = -np.sqrt((ma + 1) / (J - mb))[..., None]
        p, dp = u[:h], du[:h]
        u = np.zeros((J + 1, J + 1, n), dtype=np.complex128)
        du = np.zeros((J + 1, J + 1, 3, n), dtype=np.complex128)
        u[:h, :J] = ra * (ca * p)
        u[:h, 1:] += rb * (cb * p)
        du[:h, :J] = ra[..., None] * (dca * p[:, :, None] + ca * dp)
        du[:h, 1:] += rb[..., None] * (dcb * p[:, :, None] + cb * dp)
        for x in (u, du):
            for b in range(J + 1):
                for a in range(J + 1):
                    if b > J - b or (b == J - b and a > J - a):
                        x[b, a] = (-1.0) ** (b + a) * np.conj(x[J - b, J - a])
        yield J, u, du


def stacked_wigner(rij: np.ndarray, rcut: float, twojmax: int):
    """``(u, du)``: every level of :func:`forward_levels` stacked in flat
    quantum-number order — (idxu_max, npairs) and (idxu_max, 3, npairs)."""
    n = len(rij)
    us, dus = [], []
    for J, u, du in forward_levels(rij, rcut, twojmax):
        us.append(u.reshape(-1, n))
        dus.append(du.reshape(-1, 3, n))
    return np.concatenate(us), np.concatenate(dus)


def forward_deidrj(
    rij: np.ndarray, w: np.ndarray, rcut: float, twojmax: int
) -> np.ndarray:
    """(npairs, 3): ``dsfac rhat Re(w . u) + sfac Re(w . du)`` over the half
    rows, one adjoint column ``w`` (len(half), npairs) per pair, with the
    forward-mode ``du``."""
    half = SnapIndex(twojmax).half
    u, du = stacked_wigner(rij, rcut, twojmax)
    r = np.linalg.norm(rij, axis=1)
    sfac, dsfac = switching(r, rcut, 0.0)
    wu = np.real(np.einsum("kp,kp->p", w, u[half]))
    wdu = np.real(np.einsum("kp,kdp->pd", w, du[half]))
    return (dsfac * wu)[:, None] * (rij / r[:, None]) + sfac[:, None] * wdu


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
    pair kept once, no partner — and ghost forces folded onto owners; ``U``,
    its adjoints and the force contraction all from the forward-mode levels
    and the COO form, none from the wall path's kernels."""
    atom, pair = lmp.atom, lmp.pair
    i, j = lmp.neigh_list.ij_pairs()
    rij = atom.x[j] - atom.x[i]
    cut = np.einsum("ij,ij->i", rij, rij) < pair.rcut**2
    i, j, rij = i[cut], j[cut], rij[cut]
    idx = SnapIndex(pair.twojmax)
    u, du = stacked_wigner(rij, pair.rcut, pair.twojmax)
    r = np.linalg.norm(rij, axis=1)
    sfac, dsfac = switching(r, pair.rcut, 0.0)
    U = np.zeros((idx.idxu_max, atom.nlocal), dtype=np.complex128)
    np.add.at(U.T, i, (sfac * u).T)
    U[idx.diag_indices()] += 1.0
    y12, y3 = coo_adjoints(U, pair.beta, pair.twojmax)
    dU = (dsfac * (rij.T / r))[None] * u[:, None] + sfac * du
    dedr = np.real(
        np.einsum("mp,mdp->pd", y12[:, i], dU)
        + np.einsum("mp,mdp->pd", y3[:, i], np.conj(dU))
    )
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
