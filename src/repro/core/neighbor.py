"""Binned neighbor lists: half/full styles, newton on/off (paper section 4.1).

LAMMPS builds Verlet lists by binning atoms into cells no smaller than the
interaction cutoff and scanning the 27-cell stencil.  Ghost atoms are
explicit (appended by the border communication), so no minimum-image math
appears here — exactly like LAMMPS.

Two list styles:

* **full** — every neighbor of every owned atom appears; the force of ``i``
  on ``k`` is computed separately from ``k`` on ``i``.  No write conflicts,
  duplicated work; the GPU-friendly default for cheap pair styles.
* **half** — each pair appears exactly once, exploiting Newton's third law.
  Local pairs keep ``i < j``; pairs with a ghost are kept by a coordinate
  tie-break so exactly one of the two images survives.  With ``newton on``
  the ghost's force is reverse-communicated to its owner; with ``newton
  off`` both ranks compute the pair and each updates only its own atom.

Storage is CSR: 64-bit row offsets with 32-bit neighbor indices — the exact
integer-width split the paper's appendix B arrives at for exascale-size
allocations.  A padded 2-D View (atoms x maxneigh) is also available, whose
layout flips between CPU (rows contiguous) and GPU (interleaved) as in
section 4.1's data-layout discussion.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import count

import numpy as np

from repro.core.bin_grid import BinGrid
from repro.core.errors import NeighborError, OverflowGuardError
from repro.kokkos.core import ExecutionSpace, Host
from repro.kokkos.view import View

#: Candidate budget per filter pass; sizes the row chunk (``_build_shared``).
_CHUNK_CANDIDATES = 131_072

#: Process-wide rebuild stamp source for :attr:`NeighborList.generation`.
_GENERATION = count(1)


@dataclass
class NeighborList:
    """CSR neighbor list over owned atoms."""

    #: "half" or "full".
    style: str
    newton: bool
    cutoff: float
    nlocal: int
    #: Row offsets, length nlocal+1, int64 (appendix B: these are the
    #: structures that overflow 32 bits at exascale).
    first: np.ndarray
    #: Flat neighbor indices into the local+ghost arrays, int32.
    neighbors: np.ndarray
    #: Monotonic build stamp (process-wide).  Everything whose lifetime is
    #: "until the next neighbor rebuild" — the :class:`PairCache`, the kernel
    #: graph's fused-plan cache — can key on this instead of holding the list
    #: object itself.
    generation: int = -1

    @property
    def numneigh(self) -> np.ndarray:
        return np.diff(self.first)

    @property
    def total_pairs(self) -> int:
        return int(self.first[-1])

    @property
    def mean_neighbors(self) -> float:
        return self.total_pairs / max(self.nlocal, 1)

    @property
    def maxneigh(self) -> int:
        """Widest row of the list, computed once per build.

        Sizes the padded 2-D views and feeds the thermo overflow-guard
        reporting ("ave neighs/atom, max neighs") — a fixed-capacity
        engine would overflow when this exceeds its per-row allocation.
        """
        cached = getattr(self, "_maxneigh", None)
        if cached is None:
            cached = self._maxneigh = (
                int(self.numneigh.max()) if self.nlocal else 0
            )
        return cached

    def neighbors_of(self, i: int) -> np.ndarray:
        return self.neighbors[self.first[i] : self.first[i + 1]]

    def ij_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(i, j)`` arrays covering every stored (i, neighbor) entry.

        Memoized for the life of the build (the row expansion is
        neighbor-constant; force kernels call this every step).
        """
        cached = getattr(self, "_ij_pairs", None)
        if cached is None:
            i = np.repeat(np.arange(self.nlocal), self.numneigh)
            cached = self._ij_pairs = (i, self.neighbors.astype(np.int64))
        return cached

    def pair_cache(self) -> "PairCache":
        """The per-rebuild :class:`PairCache` attached to this list.

        Lazily created; a neighbor rebuild produces a fresh
        :class:`NeighborList`, so attachment doubles as invalidation.
        """
        cached = getattr(self, "_pair_cache", None)
        if cached is None:
            cached = self._pair_cache = PairCache(self)
        return cached

    def as_padded_view(self, space: ExecutionSpace = Host) -> View:
        """Padded 2-D (nlocal, maxneigh) View in a space's natural layout.

        On Host the row for one atom is contiguous (cache-friendly serial
        traversal); on Device the first index is fastest so consecutive
        threads read consecutive addresses (coalescing) — the "transparent
        data layout adjustment" of section 4.1.  Cached per build and space.
        """
        cache: dict = getattr(self, "_padded_views", None) or {}
        if not hasattr(self, "_padded_views"):
            self._padded_views = cache
        view = cache.get(space)
        if view is not None:
            return view
        maxn = self.maxneigh
        view = View((self.nlocal, maxn), dtype=np.int32, space=space, label="neigh2d")
        view.data[...] = -1
        i, j = self.ij_pairs()
        if self.total_pairs:
            # column of each entry within its row: global offset minus the
            # row start, vectorized (no per-row Python arange)
            col = np.arange(self.total_pairs, dtype=np.int64) - self.first[i]
            view.data[i, col] = j.astype(np.int32)
        cache[space] = view
        return view


class PairCache:
    """Neighbor-constant pair arrays, memoized for the life of one build.

    Everything here depends only on the neighbor list and on arrays that are
    constant between rebuilds (atom types, pair-style cutoffs), yet the force
    kernels used to re-derive all of it every call — per-pair type gathers,
    cutoff-matrix rows, the j-side sort.  One instance hangs off each
    :class:`NeighborList` (see :meth:`NeighborList.pair_cache`); rebuilds
    create a fresh list and therefore a fresh, empty cache.
    """

    def __init__(self, nlist: "NeighborList") -> None:
        # weak: the list owns this cache, and a strong back-reference would
        # park every retired list (and the constants cached here) in a
        # reference cycle until some later full garbage collection
        self.nlist = weakref.proxy(nlist)
        self._types: tuple[np.ndarray, np.ndarray] | None = None
        self._cutsq: dict[int, np.ndarray] = {}
        self._j_order: np.ndarray | None = None
        self._memo: dict = {}

    def ij(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(i, j)`` over stored pairs (shared with ``ij_pairs``)."""
        return self.nlist.ij_pairs()

    def memo(self, key, build):
        """``build()`` once per rebuild, keyed by ``key``.

        Where pair styles park their per-rebuild constants (bound pairwise
        kernels, pre-gathered coefficient vectors): the value lives exactly
        as long as this list does.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def type_pairs(self, types: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-stored-pair ``(itype, jtype)``.

        Atom types are constant between neighbor rebuilds (migration and
        sorting trigger a rebuild), so the first gather is reused verbatim.
        """
        if self._types is None:
            i, j = self.ij()
            self._types = (types[i], types[j])
        return self._types

    def cutsq_pairs(self, cut: np.ndarray) -> np.ndarray:
        """Per-stored-pair squared cutoff from a style's cutoff matrix.

        Keyed by the matrix object: coefficients are finalized at ``init()``
        and stable for the run, and distinct styles get distinct rows.
        """
        key = id(cut)
        cached = self._cutsq.get(key)
        if cached is None:
            itype, jtype = self.type_pairs_known()
            flat = cut.ravel().take(itype * cut.shape[1] + jtype)
            cached = self._cutsq[key] = flat**2
        return cached

    def type_pairs_known(self) -> tuple[np.ndarray, np.ndarray]:
        if self._types is None:
            raise NeighborError("PairCache.type_pairs(types) must run first")
        return self._types

    def j_order(self) -> np.ndarray:
        """Stable permutation sorting stored pairs by destination ``j``.

        The reverse (j-side) reduction segments contributions by the
        neighbor index; the stable sort keeps each destination's
        contributions in pair order, so segmented sums reproduce the atomic
        path's accumulation order.  Worth amortizing when per-pair rows are
        wide (one gather + one ``reduceat`` replaces a bincount per column);
        3-wide force rows go through the bincount path instead.
        """
        if self._j_order is None:
            _, j = self.ij()
            self._j_order = np.argsort(j, kind="stable")
        return self._j_order


def build_neighbor_list(
    x: np.ndarray,
    nlocal: int,
    cutoff: float,
    *,
    style: str = "full",
    newton: bool = False,
    chunk: int | None = None,
    grid: BinGrid | None = None,
) -> NeighborList:
    """Build a neighbor list over ``x`` (owned atoms first, then ghosts).

    ``x`` must already include the ghost shell out to ``cutoff`` — the
    caller (border communication) guarantees any atom within the cutoff of
    an owned atom is present.

    ``grid`` is an optional pre-built :class:`BinGrid` over the *same*
    coordinates (typically at a larger bin size — the per-rebuild shared
    grid): reusing it skips the bin assembly entirely.  A grid whose atom
    partitioning does not match is ignored and a private one is built.
    """
    if style not in ("half", "full"):
        raise NeighborError(f"unknown neighbor list style {style!r}")
    if cutoff <= 0.0:
        raise NeighborError("cutoff must be positive")
    x = np.asarray(x, dtype=float)
    nall = x.shape[0]
    if not 0 <= nlocal <= nall:
        raise NeighborError(f"nlocal {nlocal} outside [0, {nall}]")
    if nall > np.iinfo(np.int32).max:
        raise OverflowGuardError(
            "local+ghost atom count exceeds 32-bit neighbor index range; "
            "this build models appendix B's int32 column indices"
        )
    if nlocal == 0:
        nlist = NeighborList(
            style, newton, cutoff, 0, np.zeros(1, np.int64), np.zeros(0, np.int32)
        )
    else:
        nlist = _build_shared(x, nlocal, cutoff, style, newton, chunk, grid)
    nlist.generation = next(_GENERATION)
    return nlist


def _build_shared(
    x: np.ndarray,
    nlocal: int,
    cutoff: float,
    style: str,
    newton: bool,
    chunk: int | None,
    grid: BinGrid | None,
) -> NeighborList:
    """Shared-grid builder: x-run stencil scan + counting-merge CSR assembly.

    The unit of the all-members scan is a stencil x-run — one contiguous
    slot range per ``(dy, dz)`` row of the stencil (:meth:`BinGrid.runs`):
    25 ranges per row for a full list at reach 2, not 125 cell visits.

    Half lists scan the in-cell tail (slot order plays ``j > i``) plus the
    lexicographically "upper" runs for *all* members, generating each
    same-rank pair exactly once — no build-full-then-filter.  Ghost pairs
    are decided by the coordinate tie-break (grid-independent, so both
    ranks agree), which forces one extra ghost-only sweep of the lower
    cells, cell by cell (ghost tails are not contiguous across cells); with
    newton on only the same-z-layer lower cells can win the tie-break.

    Chunks partition the row range, so each chunk owns a contiguous CSR
    segment: its kept pairs need only a (small) per-chunk stable sort by
    row before sliding straight into the flat neighbor array — no global
    argsort over all candidates.  The sort is what fixes a row's order
    (tail, then runs in stencil-offset order with slots ascending, then
    lower-cell ghosts in offset order), whatever the chunk size.
    """
    nall = x.shape[0]
    grid_builds = 0
    if (
        grid is None
        or grid.nall != nall
        or (style == "half" and grid.nlocal != nlocal)
    ):
        # half-cutoff bins, as in LAMMPS: a 2-ring stencil over finer cells
        # covers ~42% less volume than 1-ring over cutoff-sized cells, so
        # the distance filter sees far fewer candidates
        grid = BinGrid(x, nlocal, 0.5 * cutoff)
        grid_builds = 1
    cutsq = cutoff * cutoff
    candidates = 0
    # Component columns: 1-D gathers through the candidate index arrays are
    # markedly cheaper than (n, 3) row gathers, and the distance filter is
    # the dominant cost of the build.  The j side uses the *slot-ordered*
    # copies — candidate slots are contiguous per stencil cell, so those
    # gathers stream nearly sequential memory.
    xs0, xs1, xs2 = grid.columns()
    so0, so1, so2 = grid.slot_columns()

    half = style == "half"
    kind = "upper" if half else "full"
    # newton on: a strictly lower z-bin means a strictly smaller z
    # coordinate, which can never win the z-first tie-break
    lower = grid.lower_offsets(cutoff, same_z_only=newton) if half else ()

    # Size the row chunk to the candidate budget: one concatenated filter
    # pass per chunk is fastest when its temporaries stay cache-resident.
    # Estimated candidates per row = atoms/bin x stencil cells, and every
    # (row, run) / (row, lower cell) bound is charged like a candidate.
    if chunk is None:
        stencil = int(np.prod(2 * grid.reach(cutoff) + 1))
        cells = stencil // 2 + 1 + len(lower) if half else stencil
        bounds = grid.runs(cutoff, kind)[0].shape[1] + len(lower)
        density = max(nall / float(np.prod(grid.nbins)), 1.0)
        chunk = max(int(_CHUNK_CANDIDATES / (density * cells + bounds)), 32)

    numneigh = np.zeros(nlocal, dtype=np.int64)
    chunk_rows: list[np.ndarray] = []
    for lo in range(0, nlocal, chunk):
        hi = min(lo + chunk, nlocal)
        rows = np.arange(lo, hi, dtype=np.int64)
        batches = [grid.scan_runs(rows, cutoff, kind)]
        if half:
            batches = [grid.self_tail(rows), *batches, grid.scan(rows, lower)]
        batches = [b for b in batches if b is not None]
        if not batches:
            chunk_rows.append(np.zeros(0, dtype=np.int64))
            continue
        ib = np.concatenate([b[0] for b in batches])
        js = np.concatenate([b[1] for b in batches])
        candidates += len(ib)
        d0 = xs0[ib] - so0[js]
        d1 = xs1[ib] - so1[js]
        d2 = xs2[ib] - so2[js]
        d0 *= d0
        d1 *= d1
        d0 += d1
        d2 *= d2
        d0 += d2
        # distance filter first; the slot->atom gather and style fix-ups
        # below then run over the surviving fraction only (an order of
        # magnitude fewer pairs)
        sel = np.flatnonzero(d0 < cutsq)
        ib, jb = ib[sel], grid.order[js[sel]]
        if style == "full":
            nz = ib != jb
            ib, jb = ib[nz], jb[nz]
        elif newton:
            # ghost pairs: LAMMPS's coordinate tie-break — exactly one of
            # the two images (across ranks or across the periodic wrap)
            # survives globally; the ghost side's force is
            # reverse-communicated to its owner.
            gsel = np.flatnonzero(jb >= nlocal)
            if len(gsel):
                ig, jg = ib[gsel], jb[gsel]
                zi, zj = xs2[ig], xs2[jg]
                yi, yj = xs1[ig], xs1[jg]
                win = (zj > zi) | (
                    (zj == zi)
                    & ((yj > yi) | ((yj == yi) & (xs0[jg] > xs0[ig])))
                )
                keep = np.ones(len(ib), dtype=bool)
                keep[gsel[~win]] = False
                ib, jb = ib[keep], jb[keep]
        # kept pairs are a small fraction of the candidates: a stable sort
        # here costs little and restores row-major order within the chunk
        order = np.argsort(ib, kind="stable")
        ib, jb = ib[order], jb[order]
        numneigh[lo:hi] += np.bincount(ib - lo, minlength=hi - lo)
        chunk_rows.append(jb)

    first = np.zeros(nlocal + 1, dtype=np.int64)
    np.cumsum(numneigh, out=first[1:])
    neighbors = (
        np.concatenate(chunk_rows).astype(np.int32)
        if chunk_rows
        else np.zeros(0, dtype=np.int32)
    )

    nl = NeighborList(style, newton, cutoff, nlocal, first, neighbors)
    nl.build_stats = {"candidates": candidates, "grid_builds": grid_builds}
    return nl


def brute_force_pairs(x: np.ndarray, nlocal: int, cutoff: float) -> set[tuple[int, int]]:
    """O(n^2) reference: all (i local, j != i) pairs within cutoff.

    Test oracle for the binned builder.
    """
    x = np.asarray(x, dtype=float)
    out: set[tuple[int, int]] = set()
    cutsq = cutoff * cutoff
    for i in range(nlocal):
        d = x - x[i]
        rsq = np.einsum("ij,ij->i", d, d)
        for j in np.flatnonzero(rsq < cutsq):
            if j != i:
                out.add((i, int(j)))
    return out


@dataclass
class Neighbor:
    """Rebuild policy manager (LAMMPS's ``neighbor``/``neigh_modify``)."""

    skin: float
    every: int = 1
    delay: int = 0
    #: Rebuild only when an atom moved further than skin/2 since last build.
    check: bool = True
    last_build_x: np.ndarray | None = None
    last_build_step: int = -1
    builds: int = 0
    dangerous: int = 0

    def decide(self, step: int, x_local: np.ndarray) -> bool:
        """Whether the neighbor list must be rebuilt this step."""
        if self.last_build_x is None:
            return True
        if step - self.last_build_step < self.delay:
            return False
        if self.every > 1 and (step - self.last_build_step) % self.every:
            return False
        if not self.check:
            return True
        if x_local.shape != self.last_build_x.shape:
            return True
        disp = x_local - self.last_build_x
        max_sq = float(np.max(np.einsum("ij,ij->i", disp, disp))) if len(disp) else 0.0
        return max_sq > (0.5 * self.skin) ** 2

    def record_build(self, step: int, x_local: np.ndarray) -> None:
        self.last_build_x = x_local.copy()
        self.last_build_step = step
        self.builds += 1
