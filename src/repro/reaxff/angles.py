"""Three-body valence angles with compressed-triplet pre-processing.

Energy per triplet (j - c - k, centered on c):

    E = k_ang(c) * BO_cj * BO_ck * (cos theta - cos theta_0)^2

Section 4.2.1's pattern, scaled down one body: a cheap divergent
pre-processing pass enumerates the (j, k) bonded pairs around each local
center into a compressed table; the force kernel then runs fully convergent
over triplets, with contiguous per-center entries promoting cache reuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kokkos.segment import scatter_add
from repro.potentials.pair import accumulate_virial
from repro.reaxff.bond_order import BondList
from repro.reaxff.params import ReaxParams


@dataclass
class TripletTable:
    """Compressed triplets: indices into the bond-list entry array."""

    #: bond-entry index of the (c, j) leg and the (c, k) leg
    leg1: np.ndarray
    leg2: np.ndarray
    #: center atom per triplet
    center: np.ndarray
    #: number of candidate triplets examined (for cost profiles)
    candidates: int

    @property
    def ntriplets(self) -> int:
        return len(self.center)


def build_triplets(bonds: BondList, nlocal: int) -> TripletTable:
    """Count -> scan -> fill enumeration of bonded (j < k) pairs per center.

    Vectorized ragged expansion: for a center with ``b`` bonds there are
    ``b * (b - 1) / 2`` triplets, laid out contiguously per center.
    """
    nb = np.diff(bonds.first[: nlocal + 1]).astype(np.int64)
    per_center = nb * (nb - 1) // 2
    total = int(per_center.sum())
    candidates = total
    if total == 0:
        z = np.zeros(0, dtype=np.int64)
        return TripletTable(z, z, z, candidates)

    centers = np.repeat(np.arange(nlocal), per_center)
    # rank of each triplet within its center: 0 .. per_center-1
    csum = np.zeros(nlocal, dtype=np.int64)
    np.cumsum(per_center[:-1], out=csum[1:])
    rank = np.arange(total, dtype=np.int64) - np.repeat(csum, per_center)
    # unrank (m, n) with m < n from the triangular index:
    # rank = n*(n-1)/2 + m  (n is the larger leg index)
    n_leg = np.floor((1.0 + np.sqrt(1.0 + 8.0 * rank)) / 2.0).astype(np.int64)
    # guard rounding at triangular boundaries
    over = n_leg * (n_leg - 1) // 2 > rank
    n_leg[over] -= 1
    m_leg = rank - n_leg * (n_leg - 1) // 2
    base = np.take(bonds.first, centers)
    return TripletTable(
        leg1=base + m_leg,
        leg2=base + n_leg,
        center=centers,
        candidates=candidates,
    )


def compute_angles(
    x: np.ndarray,
    types: np.ndarray,
    nlocal: int,
    bonds: BondList,
    triplets: TripletTable,
    params: ReaxParams,
    f: np.ndarray,
    virial: np.ndarray,
) -> float:
    """Convergent triplet kernel: energy + forces on (c, j, k)."""
    if triplets.ntriplets == 0:
        return 0.0
    c = triplets.center
    e1, e2 = triplets.leg1, triplets.leg2
    j = np.take(bonds.j, e1).astype(np.int64)
    k = np.take(bonds.j, e2).astype(np.int64)
    u = np.take(bonds.dx, e1, axis=0)  # x_c - x_j
    v = np.take(bonds.dx, e2, axis=0)  # x_c - x_k
    ru = np.take(bonds.r, e1)
    rv = np.take(bonds.r, e2)
    bo1, dbo1 = np.take(bonds.bo, e1), np.take(bonds.dbo, e1)
    bo2, dbo2 = np.take(bonds.bo, e2), np.take(bonds.dbo, e2)

    tc = np.take(types, c)
    kang = np.take(params.k_ang, tc)
    cos0 = np.take(params.cos0, tc)

    inv = 1.0 / (ru * rv)
    cosq = np.einsum("ij,ij->i", u, v) * inv
    diff = cosq - cos0
    energy = float((kang * bo1 * bo2 * diff * diff).sum())

    # dE/dcos and bond-order chain terms
    decos = 2.0 * kang * bo1 * bo2 * diff
    debo1 = kang * bo2 * diff * diff  # dE/dBO_cj
    debo2 = kang * bo1 * diff * diff

    # dcos/du = v/(ru rv) - cos * u / ru^2 ; similarly for v
    dcdu = v * inv[:, None] - (cosq / (ru * ru))[:, None] * u
    dcdv = u * inv[:, None] - (cosq / (rv * rv))[:, None] * v

    # bond-length chains: dE/dru = dE/dBO * dBO/dr, direction u/ru
    dEdu = decos[:, None] * dcdu + (debo1 * dbo1 / ru)[:, None] * u
    dEdv = decos[:, None] * dcdv + (debo2 * dbo2 / rv)[:, None] * v

    fc = -(dEdu + dEdv)
    fj = dEdu
    fk = dEdv
    scatter_add(f, c, fc, assume_sorted=True)  # centers are laid out contiguously
    scatter_add(f, j, fj)
    scatter_add(f, k, fk)
    accumulate_virial(virial, np.take(x, c, axis=0), fc)
    accumulate_virial(virial, np.take(x, j, axis=0), fj)
    accumulate_virial(virial, np.take(x, k, axis=0), fk)
    return energy
