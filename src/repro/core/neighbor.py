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

Both are built in one pass per chunk of rows over the shared
:class:`~repro.core.bin_grid.BinGrid`: each row's candidates are the slot
ranges of its cell's row in :meth:`BinGrid.ranges`, expanded once in row
order and cut by one distance filter, so the survivors land in the CSR
arrays without a sort.

Storage is CSR: 64-bit row offsets with 32-bit neighbor indices — the exact
integer-width split the paper's appendix B arrives at for exascale-size
allocations.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import count

import numpy as np

from repro.core.bin_grid import BinGrid, box_counts
from repro.core.errors import NeighborError, OverflowGuardError

#: Candidate budget per filter pass; sizes the row chunk (``_build_shared``).
_CHUNK_CANDIDATES = 65_536

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
    #: Monotonic build stamp (process-wide).  Anything whose lifetime is
    #: "until the next neighbor rebuild" (ReaxFF's bond-search list and
    #: nonbonded scratch) can key on this instead of holding the list
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

        Feeds the run summary's overflow-guard
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

    def split(self, nlocal) -> list["NeighborList"]:
        """A box batch's list cut into each box's own list, rows
        ``nlocal[b]`` of box ``b`` in turn: its solo list, bit for bit, with
        a generation of its own."""
        parts, r = [], 0
        for n in map(int, nlocal):
            a, b = self.first[r], self.first[r + n]
            part = NeighborList(self.style, self.newton, self.cutoff, n,
                                self.first[r : r + n + 1] - a, self.neighbors[a:b])
            part.generation, r = next(_GENERATION), r + n
            parts.append(part)
        return parts

    def pair_cache(self) -> "PairCache":
        """The per-rebuild :class:`PairCache` attached to this list.

        Lazily created; a neighbor rebuild produces a fresh
        :class:`NeighborList`, so attachment doubles as invalidation.
        """
        cached = getattr(self, "_pair_cache", None)
        if cached is None:
            cached = self._pair_cache = PairCache(self)
        return cached


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


def build_neighbor_list(
    x: np.ndarray,
    nlocal,
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

    ``nlocal`` may be a batch of boxes (:func:`box_counts`): the list holds
    each box's rows in turn, as its solo build, with box-local neighbors;
    :meth:`NeighborList.split` cuts it into the boxes' lists.

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
    own, off = box_counts(nlocal, nall)
    if nall > np.iinfo(np.int32).max:
        raise OverflowGuardError(
            "local+ghost atom count exceeds 32-bit neighbor index range; "
            "this build models appendix B's int32 column indices"
        )
    if not own.any():
        nlist = NeighborList(
            style, newton, cutoff, 0, np.zeros(1, np.int64), np.zeros(0, np.int32)
        )
    else:
        nlist = _build_shared(x, own, off, cutoff, style, newton, chunk, grid)
    nlist.generation = next(_GENERATION)
    return nlist


def _build_shared(
    x: np.ndarray,
    own: np.ndarray,
    off: np.ndarray,
    cutoff: float,
    style: str,
    newton: bool,
    chunk: int | None,
    grid: BinGrid | None,
) -> NeighborList:
    """Shared-grid builder: one table-driven stencil pass per row chunk.

    Every row's candidates are a handful of slot ranges read from the
    grid's per-cell table (:meth:`BinGrid.ranges`): a full row's stencil
    x-runs — one contiguous range per ``(dy, dz)`` row of the stencil, 25
    per row at reach 2, not 125 cell visits — or a half row's in-cell tail
    (slot order plays ``j > i``), lexicographically "upper" runs and the
    lower cells' ghost tails.  Half lists thereby generate each same-rank
    pair exactly once — no build-full-then-filter.  Ghost pairs are decided
    by the coordinate tie-break (grid-independent, so both ranks agree);
    with newton on only the same-z-layer lower cells can win it.

    A chunk gathers its rows' ``(rows, nranges)`` bounds and expands them
    once, row-major, so the candidates — and the survivors of the one
    distance filter — are already in the row order of DESIGN §3.3 (tail,
    then runs in stencil-offset order with slots ascending, then lower-cell
    ghosts in offset order), whatever the chunk size.  Chunks partition the
    row range, so each chunk's survivors slide straight into its contiguous
    CSR segment: no sort, no global argsort over all candidates.  A chunk
    may span boxes: a box's slots are its solo ones, shifted (DESIGN §3.3).
    """
    nall = x.shape[0]
    grid_builds = 0
    if (
        grid is None
        or grid.nall != nall
        or grid.box_off.tolist() != off.tolist()
        or (style == "half" and grid.box_nlocal.tolist() != own.tolist())
    ):
        # half-cutoff bins, as in LAMMPS: a 2-ring stencil over finer cells
        # covers ~42% less volume than 1-ring over cutoff-sized cells, so
        # the distance filter sees far fewer candidates
        grid = BinGrid(x, np.stack([own, np.diff(off)], axis=1), 0.5 * cutoff)
        grid_builds = 1
    cutsq = cutoff * cutoff
    candidates = 0
    half = style == "half"
    range_lo, range_hi, table_row, rows = grid.ranges(cutoff, half, newton, own)
    nranges = range_lo.shape[1]
    nrows = len(rows)
    # Component columns: the i side is a run of consecutive rows (a slice,
    # repeated over each row's candidate count) and the j side gathers the
    # *slot-ordered* copies — candidate slots are contiguous per range, so
    # those 1-D gathers stream nearly sequential memory.
    xs0, xs1, xs2 = (c[rows] for c in grid.columns())
    so0, so1, so2 = grid.slot_columns()
    rslot = grid.islot[rows]

    # Size the row chunk to the candidate budget: one filter pass per chunk
    # is fastest when its temporaries stay cache-resident.  Estimated
    # candidates per row = atoms/bin x stencil cells (a half row: the upper
    # half, its own cell and the lower cells, counted whole), and every
    # (row, range) bound is charged like a candidate.
    wx, wy, wz = (2 * int(k) + 1 for k in grid.reach(cutoff))
    own_run = wy * (wz // 2) + wy // 2  # a full row's (dy, dz) = (0, 0) x-run
    if chunk is None:
        stencil = wx * wy * wz
        lower = (wx * wy if newton else stencil) // 2
        cells = stencil // 2 + 1 + lower if half else stencil
        density = max(nall / float(grid.bin_base[-1]), 1.0)
        chunk = max(int(_CHUNK_CANDIDATES / (density * cells + nranges)), 32)

    numneigh = np.zeros(nrows, dtype=np.int64)
    chunk_rows: list[np.ndarray] = []
    for lo in range(0, nrows, chunk):
        hi = min(lo + chunk, nrows)
        cells_of = table_row[lo:hi]
        rlo = range_lo[cells_of]
        if half:
            rlo[:, 0] = rslot[lo:hi] + 1
        cnt = (range_hi[cells_of] - rlo).ravel()
        # range k of the flattened (row, range) table holds slots
        # rlo[k] .. rlo[k] + cnt[k] - 1 at flat positions ends[k] - cnt[k] ..
        ends = np.cumsum(cnt)
        total = int(ends[-1])
        candidates += total
        row_end = ends[nranges - 1 :: nranges]
        per_row = np.diff(row_end, prepend=0)
        js = np.repeat(rlo.ravel() - (ends - cnt), cnt)
        js += np.arange(total, dtype=np.int64)
        # x_j - x_i, squared and summed in place: fresh arrays this size
        # cost more to fault in than the arithmetic (the negation of
        # x_i - x_j is exact, so the squares carry the same bits)
        d0 = so0[js]
        d0 -= np.repeat(xs0[lo:hi], per_row)
        d0 *= d0
        d1 = so1[js]
        d1 -= np.repeat(xs1[lo:hi], per_row)
        d1 *= d1
        d0 += d1
        d1 = so2[js]
        d1 -= np.repeat(xs2[lo:hi], per_row)
        d1 *= d1
        d0 += d1
        # distance filter first; the row lookup, slot->atom gather and style
        # fix-ups below then run over the surviving fraction only (an order
        # of magnitude fewer pairs)
        if not half:  # each row's own slot, in its own x-run, fails the filter
            k = np.arange(hi - lo) * nranges + own_run
            d0[(ends - cnt)[k] + rslot[lo:hi] - rlo[:, own_run]] = np.inf
        sel = np.flatnonzero(d0 < cutsq)
        kept = np.diff(np.searchsorted(sel, row_end), prepend=0)
        ib = np.repeat(np.arange(lo, hi, dtype=np.int64), kept)
        ks = js[sel]
        jb = grid.slot_local[ks]
        if half and newton:
            # ghost pairs: LAMMPS's coordinate tie-break — exactly one of
            # the two images (across ranks or across the periodic wrap)
            # survives globally; the ghost side's force is
            # reverse-communicated to its owner.
            gsel = np.flatnonzero(grid.slot_ghost[ks])
            if len(gsel):
                ig, kg = ib[gsel], ks[gsel]
                zi, zj = xs2[ig], so2[kg]
                yi, yj = xs1[ig], so1[kg]
                win = (zj > zi) | (
                    (zj == zi)
                    & ((yj > yi) | ((yj == yi) & (so0[kg] > xs0[ig])))
                )
                keep = np.ones(len(ib), dtype=bool)
                keep[gsel[~win]] = False
                ib, jb = ib[keep], jb[keep]
        numneigh[lo:hi] = np.bincount(ib - lo, minlength=hi - lo)
        chunk_rows.append(jb)

    first = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(numneigh, out=first[1:])
    neighbors = np.concatenate(chunk_rows).astype(np.int32)

    nl = NeighborList(style, newton, cutoff, nrows, first, neighbors)
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
