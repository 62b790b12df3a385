"""Bond-order evaluation and the bond neighbor list (paper section 4.2).

The bond order between atoms decays smoothly with distance,

    BO(r) = exp(pbo1 * (r / r0_ij)^pbo2),        pbo1 < 0,

and a pair is a "bond" only when BO exceeds ``bo_cut``.  The *bond
neighbor list* is the compressed per-atom table of such bonds — the first
of the paper's pre-processing kernels: a divergent but cheap filtering pass
whose output lets the expensive 3-/4-body kernels run fully convergent.

Both implementations of the build are provided:

* :func:`build_bond_list_reference` — the "divergent" one-pass filter
  (what a naive per-thread loop does);
* :func:`build_bond_list` — the production count -> scan -> fill
  pre-processing pipeline, matching section 4.2.1's two-kernel structure.

They produce identical tables (property-tested); they differ in the cost
profile they report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.neighbor import NeighborList
from repro.reaxff.params import ReaxParams


@dataclass
class BondList:
    """Compressed per-atom bond table (CSR over local atoms).

    Entries are *directed*: the bond (i, j) appears in row i and — when j is
    also local — in row j.  All per-bond geometry needed downstream is
    cached so the 3-/4-body kernels never recompute distances.
    """

    nlocal: int
    #: CSR row offsets (int64 — appendix B).
    first: np.ndarray
    #: flat center-atom index per entry
    i: np.ndarray
    #: flat bonded-neighbor index (int32, may be a ghost)
    j: np.ndarray
    #: bond order per entry
    bo: np.ndarray
    #: dBO/dr per entry
    dbo: np.ndarray
    #: displacement x_i - x_j and distance
    dx: np.ndarray
    r: np.ndarray
    #: build statistics for kernel cost profiles
    candidates: int = 0

    @property
    def nbonds(self) -> int:
        return len(self.j)

    def numbonds(self) -> np.ndarray:
        return np.diff(self.first)

    def row(self, i: int) -> slice:
        return slice(int(self.first[i]), int(self.first[i + 1]))


def bond_order(
    r: np.ndarray, ti: np.ndarray, tj: np.ndarray, params: ReaxParams
) -> tuple[np.ndarray, np.ndarray]:
    """``(BO, dBO/dr)`` for distances ``r`` between types ``ti``/``tj``."""
    r0 = params.r0_ij(ti, tj)
    ratio = r / r0
    inner = params.pbo1 * ratio**params.pbo2
    bo = np.exp(inner)
    dbo = bo * params.pbo1 * params.pbo2 * ratio ** (params.pbo2 - 1.0) / r0
    return bo, dbo


def _filter_candidates(
    x: np.ndarray,
    types: np.ndarray,
    nlist: NeighborList,
    params: ReaxParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Shared geometry pass: pairs within the bond search cutoff."""
    i, j = nlist.ij_pairs()
    dx = x[i] - x[j]
    rsq = np.einsum("ij,ij->i", dx, dx)
    mask = rsq < params.rcut_bond**2
    return i[mask], j[mask], dx[mask], np.sqrt(rsq[mask]), len(i)


def build_bond_list_reference(
    x: np.ndarray,
    types: np.ndarray,
    nlist: NeighborList,
    params: ReaxParams,
) -> BondList:
    """Divergent one-pass build: evaluate BO for every candidate, filter."""
    i, j, dx, r, candidates = _filter_candidates(x, types, nlist, params)
    bo, dbo = bond_order(r, types[i], types[j], params)
    keep = bo > params.bo_cut
    i, j, bo, dbo, dx, r = i[keep], j[keep], bo[keep], dbo[keep], dx[keep], r[keep]
    order = np.argsort(i, kind="stable")
    i, j, bo, dbo, dx, r = i[order], j[order], bo[order], dbo[order], dx[order], r[order]
    first = np.zeros(nlist.nlocal + 1, dtype=np.int64)
    np.cumsum(np.bincount(i, minlength=nlist.nlocal), out=first[1:])
    return BondList(
        nlocal=nlist.nlocal,
        first=first,
        i=i,
        j=j.astype(np.int32),
        bo=bo,
        dbo=dbo,
        dx=dx,
        r=r,
        candidates=candidates,
    )


def build_bond_list(
    x: np.ndarray,
    types: np.ndarray,
    nlist: NeighborList,
    params: ReaxParams,
) -> BondList:
    """Pre-processed build: count kernel -> exclusive scan -> fill kernel.

    This is the section 4.2.1 pipeline shape: the first kernel counts
    accepted bonds per atom, the offsets come from a scan, the (resized)
    table is filled by a second kernel.  All vectorized, and bit-identical
    to the reference build.

    ``nlist`` must hold every pair that has ``BO > bo_cut`` *now*.  A list
    built at ``params.bond_search_cut + skin`` does, for as long as no
    pair has closed in by more than the skin since its build — the same
    skin contract the nonbonded pair list relies on.  Each call re-applies
    the exact ``rcut_bond`` and ``bo_cut`` masks, so any list meeting the
    contract yields the same table, entry for entry.
    """
    i, j, dx, r, candidates = _filter_candidates(x, types, nlist, params)
    bo, dbo = bond_order(r, types[i], types[j], params)
    keep = bo > params.bo_cut

    # Kernel 1: per-atom accepted-bond counts.
    counts = np.bincount(i[keep], minlength=nlist.nlocal)
    # Scan: row offsets (the "resize if necessary" step sizes the table).
    first = np.zeros(nlist.nlocal + 1, dtype=np.int64)
    np.cumsum(counts, out=first[1:])
    total = int(first[-1])

    # Kernel 2: fill.  Within a row, entries keep candidate order (a stable
    # per-row slot assignment — the vectorized equivalent of the thread-safe
    # queue guaranteeing per-atom contiguity).
    ik = i[keep]
    order = np.argsort(ik, kind="stable")
    out_i = ik[order]
    sel = np.flatnonzero(keep)[order]
    table = BondList(
        nlocal=nlist.nlocal,
        first=first,
        i=out_i,
        j=j[sel].astype(np.int32),
        bo=bo[sel],
        dbo=dbo[sel],
        dx=dx[sel],
        r=r[sel],
        candidates=candidates,
    )
    assert table.nbonds == total
    return table
