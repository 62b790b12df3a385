"""Four-body torsions with compressed-quad pre-processing (section 4.2.1).

A quad is a bonded chain ``k - i - j - l`` around a central bond (i, j):
(i, k) bonded, (i, j) bonded, (j, l) bonded, with a constraint on the
product of the three bond orders.  "For HNS, in practice fewer than 5% of
possible quads satisfy each constraint, which leads to a high degree of
divergence" — hence the paper's two pre-processing kernels (count quads,
then store them into a View of int4) feeding a fully convergent force
kernel parallelized *over quads*, with all quads of a central bond
contiguous for cache reuse.  That exact pipeline is what
:func:`build_quads` and :func:`compute_torsions` implement.

Energy per quad:

    E = V2_ij * BO_ik * BO_ij * BO_jl * sin^2(omega)

with ``omega`` the dihedral angle of the chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kokkos.segment import scatter_add
from repro.potentials.pair import accumulate_virial
from repro.reaxff.bond_order import BondList
from repro.reaxff.params import ReaxParams


@dataclass
class QuadTable:
    """Compressed quads: the paper's "View of int4" plus leg entries.

    ``atoms`` is the (n, 4) int32 table of (k, i, j, l) indices; the three
    ``leg*`` arrays index bond-list entries so the force kernel reuses the
    cached bond geometry (fully convergent, no recomputation).
    """

    atoms: np.ndarray
    leg_ik: np.ndarray
    leg_ij: np.ndarray
    leg_jl: np.ndarray
    #: candidate quads examined before the bond-order-product constraint
    candidates: int

    @property
    def nquads(self) -> int:
        return len(self.leg_ij)


def build_quads(
    tags: np.ndarray,
    nlocal: int,
    bonds: BondList,
    params: ReaxParams,
) -> QuadTable:
    """Pre-processing kernels: enumerate, constrain, compress.

    Central bonds are bond entries (i, j) with ``i`` local and
    ``tag_i < tag_j`` (each physical chain is built exactly once globally).
    """
    i_all, j_all = bonds.i, bonds.j.astype(np.int64)
    central = (i_all < nlocal) & (np.take(tags, i_all) < np.take(tags, j_all))
    ce = np.flatnonzero(central)
    if ce.size == 0:
        z = np.zeros(0, dtype=np.int64)
        return QuadTable(np.zeros((0, 4), np.int32), z, z, z, 0)

    ci = np.take(i_all, ce)
    cj = np.take(j_all, ce)
    nb = np.diff(bonds.first)
    cnt_i = np.take(nb, ci)
    cnt_j = np.take(nb, cj)
    per_bond = cnt_i * cnt_j
    total = int(per_bond.sum())
    candidates = total
    if total == 0:
        z = np.zeros(0, dtype=np.int64)
        return QuadTable(np.zeros((0, 4), np.int32), z, z, z, candidates)

    # Kernel 1 (count) + scan: expansion offsets, quads contiguous per
    # central bond.
    rep = np.repeat(np.arange(ce.size), per_bond)
    csum = np.zeros(ce.size, dtype=np.int64)
    np.cumsum(per_bond[:-1], out=csum[1:])
    rank = np.arange(total, dtype=np.int64) - np.repeat(csum, per_bond)
    cnt_jr = np.take(cnt_j, rep)
    a = rank // cnt_jr  # index among i's bonds
    b = rank % cnt_jr  # index among j's bonds

    ii = np.take(ci, rep)
    jj = np.take(cj, rep)
    leg_ik = np.take(bonds.first, ii) + a
    leg_jl = np.take(bonds.first, jj) + b
    leg_ij = np.take(ce, rep)
    k = np.take(j_all, leg_ik)
    l = np.take(j_all, leg_jl)

    # Kernel 2 (fill): apply the validity and bond-order-product constraints
    # and store surviving quads.
    valid = (leg_ik != leg_ij) & (k != jj) & (l != ii) & (k != l)
    boprod = np.take(bonds.bo, leg_ik) * np.take(bonds.bo, leg_ij) * np.take(bonds.bo, leg_jl)
    valid &= boprod > params.bo_prod_cut
    sel = np.flatnonzero(valid)
    atoms = np.stack([np.take(col, sel) for col in (k, ii, jj, l)], axis=1).astype(np.int32)
    return QuadTable(
        atoms=atoms,
        leg_ik=np.take(leg_ik, sel),
        leg_ij=np.take(leg_ij, sel),
        leg_jl=np.take(leg_jl, sel),
        candidates=candidates,
    )


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of ``(n, 3)`` rows in its multiply-then-subtract order
    (bitwise equal), without its generic axis handling."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=1)


def compute_torsions(
    x: np.ndarray,
    types: np.ndarray,
    bonds: BondList,
    quads: QuadTable,
    params: ReaxParams,
    f: np.ndarray,
    virial: np.ndarray | None,
) -> float:
    """Convergent quad kernel: dihedral energy + forces on (k, i, j, l).  On
    an untallied step (``virial=None``) there is no energy or virial: 0.0."""
    if quads.nquads == 0:
        return 0.0
    # chain vectors: b1 = x_i - x_k, b2 = x_j - x_i, b3 = x_l - x_j,
    # reusing cached bond geometry (dx = x_center - x_neighbor).
    b1 = np.take(bonds.dx, quads.leg_ik, axis=0)
    b2 = -np.take(bonds.dx, quads.leg_ij, axis=0)
    b3 = -np.take(bonds.dx, quads.leg_jl, axis=0)

    n1 = _cross(b1, b2)
    n2 = _cross(b2, b3)
    n1sq = np.einsum("ij,ij->i", n1, n1)
    n2sq = np.einsum("ij,ij->i", n2, n2)
    # degenerate (collinear) chains contribute nothing
    ok = np.flatnonzero((n1sq > 1e-12) & (n2sq > 1e-12))
    if ok.size == 0:
        return 0.0
    k, i, j, l = (np.take(quads.atoms[:, c], ok).astype(np.int64) for c in range(4))
    b1, b2, b3, n1, n2 = (np.take(v, ok, axis=0) for v in (b1, b2, b3, n1, n2))
    n1sq, n2sq = np.take(n1sq, ok), np.take(n2sq, ok)
    leg_ik, leg_ij, leg_jl = (np.take(e, ok) for e in (quads.leg_ik, quads.leg_ij, quads.leg_jl))

    inv = 1.0 / np.sqrt(n1sq * n2sq)
    cosw = np.einsum("ij,ij->i", n1, n2) * inv
    np.clip(cosw, -1.0, 1.0, out=cosw)
    sin2 = 1.0 - cosw * cosw

    bo1 = np.take(bonds.bo, leg_ik)
    bo2 = np.take(bonds.bo, leg_ij)
    bo3 = np.take(bonds.bo, leg_jl)
    v2 = 0.5 * (np.take(params.v2, np.take(types, i)) + np.take(params.v2, np.take(types, j)))
    prod = bo1 * bo2 * bo3

    # --- gradient of cos(omega) -------------------------------------------
    g1 = (n2 * inv[:, None]) - (cosw / n1sq)[:, None] * n1  # dcos/dn1
    g2 = (n1 * inv[:, None]) - (cosw / n2sq)[:, None] * n2  # dcos/dn2
    dcdb1 = _cross(b2, g1)
    dcdb2 = _cross(g1, b1) + _cross(b3, g2)
    dcdb3 = _cross(g2, b2)

    decos = -2.0 * v2 * prod * cosw  # dE/dcos(omega)
    dEdb1 = decos[:, None] * dcdb1
    dEdb2 = decos[:, None] * dcdb2
    dEdb3 = decos[:, None] * dcdb3

    # chain to positions: b1 = x_i - x_k, b2 = x_j - x_i, b3 = x_l - x_j
    dEdxk = -dEdb1
    dEdxi = dEdb1 - dEdb2
    dEdxj = dEdb2 - dEdb3
    dEdxl = dEdb3

    # --- bond-order chain terms -------------------------------------------
    # dE/dBO_leg = v2 * (prod / bo_leg) * sin2; dBO/dr along the leg vector.
    def bo_leg_force(leg: np.ndarray, bo_leg: np.ndarray) -> np.ndarray:
        debo = v2 * (prod / bo_leg) * sin2
        dbo_r = debo * np.take(bonds.dbo, leg) / np.take(bonds.r, leg)
        return dbo_r[:, None] * np.take(bonds.dx, leg, axis=0)

    # leg (i, k): dx = x_i - x_k
    t_ik = bo_leg_force(leg_ik, bo1)
    dEdxi += t_ik
    dEdxk -= t_ik
    # leg (i, j): dx = x_i - x_j
    t_ij = bo_leg_force(leg_ij, bo2)
    dEdxi += t_ij
    dEdxj -= t_ij
    # leg (j, l): dx = x_j - x_l
    t_jl = bo_leg_force(leg_jl, bo3)
    dEdxj += t_jl
    dEdxl -= t_jl

    for idx, dE in ((k, dEdxk), (i, dEdxi), (j, dEdxj), (l, dEdxl)):
        scatter_add(f, idx, -dE)
        if virial is not None:
            accumulate_virial(virial, np.take(x, idx, axis=0), -dE)
    return 0.0 if virial is None else float((v2 * prod * sin2).sum())
