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
from repro.graph.pairwise import PROLOGUE, fresh, index_bounds
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


def bond_order(
    r: np.ndarray, ti, tj, params: ReaxParams, *, r0: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(BO, dBO/dr)`` for distances ``r`` between types ``ti``/``tj``
    (or, given ``r0``, the pairs' combined radii)."""
    r0 = params.r0_ij(ti, tj) if r0 is None else r0
    ratio = r / r0
    inner = params.pbo1 * ratio**params.pbo2
    bo = np.exp(inner)
    dbo = bo * params.pbo1 * params.pbo2 * ratio ** (params.pbo2 - 1.0) / r0
    return bo, dbo


def build_bond_list_reference(
    x: np.ndarray,
    types: np.ndarray,
    nlist: NeighborList,
    params: ReaxParams,
) -> BondList:
    """Divergent one-pass build: evaluate BO for every candidate, filter.

    Plain forms only (``x[i] - x[j]``, boolean masks, a sort), so the
    oracle shares no geometry code with :func:`build_bond_list`.
    """
    i, j = nlist.ij_pairs()
    dx = x[i] - x[j]
    rsq = np.einsum("ij,ij->i", dx, dx)
    mask = rsq < params.rcut_bond**2
    i, j, dx, r = i[mask], j[mask], dx[mask], np.sqrt(rsq[mask])
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
        candidates=len(mask),
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
    to the reference build.  The candidate geometry is the shared
    :data:`~repro.graph.pairwise.PROLOGUE`, and ``r0_ij`` is gathered once
    per rebuild of ``nlist`` (``types`` must be constant between them).

    ``nlist`` must hold every pair that has ``BO > bo_cut`` *now*.  A list
    built at ``params.bond_search_cut + skin`` does, for as long as no
    pair has closed in by more than the skin since its build — the same
    skin contract the nonbonded pair list relies on.  Each call re-applies
    the exact masks, so any list meeting the contract yields the same
    table, entry for entry.  The distance mask is ``bond_search_cut``: no
    pair beyond it has ``BO > bo_cut`` (the reference masks at ``rcut_bond``
    and gets the same table).
    """

    def bind():
        i0, j0 = nlist.ij_pairs()
        base = {"i0": i0, "j0": j0, "cutsq0": params.bond_search_cut**2, "take": fresh}
        index_bounds(base)  # keep, and pin params' id, as nonbonded_geometry does
        return base, params, params.r0_ij(np.take(types, i0), np.take(types, j0))

    base, _, r0 = nlist.pair_cache().memo(("reaxff.bonds", id(params)), bind)
    geo = dict(base, x=x)
    for fn in PROLOGUE:
        fn(geo)
    # C-ordered (n, 3) rows, as nonbonded_geometry takes them
    i, j, dx, r = geo["i_n"], geo["j_n"], geo["dx_n"].T.copy(), np.sqrt(geo["rsq_n"])
    bo, dbo = bond_order(r, None, None, params, r0=np.take(r0, geo["idx"]))
    keep = np.flatnonzero(bo > params.bo_cut)
    ik = np.take(i, keep)

    # Kernel 1: per-atom accepted-bond counts.
    counts = np.bincount(ik, minlength=nlist.nlocal)
    # Scan: row offsets (the "resize if necessary" step sizes the table).
    first = np.zeros(nlist.nlocal + 1, dtype=np.int64)
    np.cumsum(counts, out=first[1:])
    total = int(first[-1])

    # Kernel 2: fill.  Within a row, entries keep candidate order (a stable
    # per-row slot assignment — the vectorized equivalent of the thread-safe
    # queue guaranteeing per-atom contiguity).
    order = np.argsort(ik, kind="stable")
    sel = np.take(keep, order)
    table = BondList(
        nlocal=nlist.nlocal,
        first=first,
        i=np.take(ik, order),
        j=np.take(j, sel).astype(np.int32),
        bo=np.take(bo, sel),
        dbo=np.take(dbo, sel),
        dx=np.take(dx, sel, axis=0),
        r=np.take(r, sel),
        candidates=len(base["i0"]),
    )
    assert table.nbonds == total
    return table
