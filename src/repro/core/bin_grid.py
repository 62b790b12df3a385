"""Shared bin grid for neighbor-list construction (paper section 4.1).

One :class:`BinGrid` is assembled per neighbor rebuild, at the largest
requested cutoff (the ghost cutoff), and shared by every list built that
step — the pair list and the ReaxFF bond-search list.  Multi-cutoff
consumers filter one candidate set instead of
re-binning, which is how LAMMPS's ``NBin``/``NStencil`` split works.

The assembly is a counting sort, not a global comparison sort: atoms are
keyed by ``2 * bin + is_ghost`` and ordered with a stable LSD radix pass
(NumPy's stable ``argsort`` of 16-bit keys), so every bin's segment stores its
owned atoms first and its ghosts after.  That locals-first layout is what
lets half-stencil builds scan the *ghost tail* of a cell without touching
its owned atoms, and it makes the bin-major permutation double as the
rebuild's spatial sort ordering (LAMMPS's ``atom_modify sort``).

Bins are anisotropic: each dimension gets ``floor(span / bin_size)`` bins
of width ``>= bin_size``; :meth:`reach` picks the per-dimension ring count
covering each requested cutoff, so one grid — typically at *half* the
ghost cutoff, LAMMPS's bin size, which trades a wider stencil for ~40%
less candidate volume — serves every cutoff with a proportionate stencil.

The stencil itself is data, not a loop: :meth:`ranges` tabulates, per
cell, the slot ranges a row in that cell scans (x-runs, in-cell tail,
lower ghost tails) in the list's row order, so a builder expands a chunk
of rows with a few array operations and no per-cell work.

One grid may bin a batch of boxes (a replica batch's members) with the box
as the slowest bin coordinate: each keeps its solo geometry and key, so the
one sort gives every box its solo slot order.  Solo is the one-box case.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import NeighborError


def box_counts(nlocal, nall: int) -> tuple[np.ndarray, np.ndarray]:
    """``(nlocal, off)`` per box of a build over ``nall`` atoms: ``nlocal`` is
    one owned count (one box: every atom) or ``(nlocal, nall)`` per box, the
    boxes' atoms concatenated box-major; box ``b``'s start at ``off[b]``."""
    counts = np.asarray(nlocal if np.ndim(nlocal) else (nlocal, nall), dtype=np.int64)
    own, size = counts.reshape(-1, 2).T
    off = np.concatenate(([0], np.add.accumulate(size)))
    for n, m in zip(own.tolist(), size.tolist()):
        if not 0 <= n <= m:
            raise NeighborError(f"nlocal {n} outside [0, {m}]")
    if off[-1] != nall:
        raise NeighborError(f"boxes hold {off[-1]} atoms but x has {nall}")
    return own, off


def _binned(x: np.ndarray, bin_size: float, nlocal, off: np.ndarray) -> tuple:
    """``(origin, nbins, size, base, cell3, binid)``: per box, the geometry of
    the grid covering its atoms ``x[off[b]:off[b + 1]]`` (``(nbox, 3)`` each;
    a box without atoms gets one bin); per atom, its cell in its box's grid
    and its bin in one box-major numbering, box ``b``'s from ``base[b]``."""
    nbox, counts = len(off) - 1, off[1:] - off[:-1]
    origin, top = np.zeros((2, nbox, 3))
    starts = off[:-1][counts > 0]
    origin[counts > 0] = np.minimum.reduceat(x, starts, axis=0) - 1e-9
    top[counts > 0] = np.maximum.reduceat(x, starts, axis=0) + 1e-9
    span = top - origin  # NaN or inf if a coordinate is
    if not np.isfinite(span).all():
        # a NaN/inf coordinate would otherwise be clipped into some bin
        # and the atom silently lose its neighbors
        bad = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
        box = int(np.searchsorted(off, bad, side="right")) - 1
        local = bad - int(off[box])
        who = "" if nlocal is None else "ghost " if local >= nlocal[box] else "owned "
        raise NeighborError(
            f"non-finite coordinates {x[bad].tolist()} on {who}atom {local}"
            f"{f' of box {box}' if nbox > 1 else ''}: cannot bin atoms for the "
            "neighbor build"
        )
    np.maximum(span, bin_size, out=span)
    nbins = np.maximum((span / bin_size).astype(np.int64), 1)
    size = span / nbins
    base = np.zeros(nbox + 1, dtype=np.int64)
    np.add.accumulate(np.multiply.reduce(nbins, axis=1), out=base[1:])
    per_atom = _per_atom(nbins, counts)
    cell3 = ((x - _per_atom(origin, counts)) / _per_atom(size, counts)).astype(np.int64)
    # x >= origin, so only the top edge can round past the last bin
    np.minimum(cell3, per_atom - 1, out=cell3)
    binid = _per_atom(base[:-1], counts) + cell3[:, 0]
    binid += per_atom[:, 0] * (cell3[:, 1] + per_atom[:, 1] * cell3[:, 2])
    return origin, nbins, size, base, cell3, binid


def _per_atom(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each box's row of ``values`` once per atom, box-major (a repeat:
    fancy row gathers cost 5x more); one box's row as is, to broadcast."""
    return values if len(counts) == 1 else np.repeat(values, counts, axis=0)


def spatial_sort_order(x: np.ndarray, bin_size: float, nlocal=None) -> np.ndarray:
    """Bin-major stable permutation of ``x`` (the rebuild's spatial sort).

    Atoms in the same cell keep their relative order; cells run row-major,
    so downstream gathers over the neighbor list touch nearly contiguous
    memory (section 4.1's atom-sorting cache-locality argument).  ``x`` may
    hold a batch of boxes' owned atoms, box-major, ``nlocal[b]`` each: the
    box is the slowest bin coordinate, so the one sort permutes each box
    within its own segment, exactly as its solo sort.
    """
    x = np.asarray(x, dtype=float)
    counts = np.asarray([len(x)] if nlocal is None else nlocal, dtype=np.int64)
    off = np.concatenate(([0], np.add.accumulate(counts)))
    *_, base, _, binid = _binned(x, bin_size, counts, off)
    return stable_order(binid, int(base[-1]))


def stable_order(key: np.ndarray, nkeys: int) -> np.ndarray:
    """Stable argsort of integer keys in ``[0, nkeys)``.  NumPy's stable
    sort is an LSD radix sort only for keys of 16 bits or fewer (wider ones
    take a merge sort, 2-10x slower here); a stable order is unique, so the
    narrowing changes no slot."""
    if nkeys <= 1 << 16:
        key = key.astype(np.uint16)
    return np.argsort(key, kind="stable")


class BinGrid:
    """Counting-sort bin assembly over one rank's local + ghost atoms, or
    over a batch of boxes, each binned as if alone (its solo geometry and
    key; box ``b``'s bins start at ``bin_base[b]``, its slots at
    ``box_off[b]``, in its solo order)."""

    #: Process-wide construction counter.  The acceptance criterion "one
    #: bin-grid build per neighbor rebuild" is asserted against deltas of
    #: this, the profiling analogue of a Kokkos Tools region count.
    builds_total: int = 0

    def __init__(self, x: np.ndarray, nlocal, bin_size: float) -> None:
        BinGrid.builds_total += 1
        x = np.asarray(x, dtype=float)
        nall = x.shape[0]
        self.x = x
        self.nall = nall
        self.bin_size = float(bin_size)
        self.box_nlocal, self.box_off = box_counts(nlocal, nall)
        self.nlocal = int(self.box_nlocal.sum())
        self._ranges: dict = {}  # (style, newton, reach, rows) -> ranges()
        self.origin, self.nbins, self.size, self.bin_base, self.cell3, self.binid = (
            _binned(x, self.bin_size, self.box_nlocal, self.box_off)
        )
        box = _per_atom(np.arange(len(self.box_nlocal)), np.diff(self.box_off))
        local = np.arange(nall, dtype=np.int64) - self.box_off[box]  # solo index
        ghost = local >= self.box_nlocal[box]
        # Composite key: bin-major, owned atoms before ghosts within a bin.
        # A stable argsort of 16-bit keys is an LSD radix — chained counting
        # sorts, no comparison sort over the whole atom set.
        key = 2 * self.binid + ghost
        nkeys = 2 * int(self.bin_base[-1])
        self.order = stable_order(key, nkeys)
        # Segment bounds in `order`: bin b's owned atoms occupy
        # [starts2[2b], starts2[2b+1]), its ghosts [starts2[2b+1], starts2[2b+2]).
        self.starts2 = np.concatenate(([0], np.add.accumulate(np.bincount(key, minlength=nkeys))))
        # Inverse permutation: each atom's slot in `order` (self-cell scans
        # enumerate "atoms stored after me in my bin").
        self.islot = np.empty(nall, dtype=np.int64)
        self.islot[self.order] = np.arange(nall, dtype=np.int64)
        #: per slot: its atom's box-local index, and whether it is a ghost
        self.slot_local = local[self.order]
        self.slot_ghost = ghost[self.order]

    # ------------------------------------------------------------ coordinates
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-component coordinate columns in atom order, memoized.

        1-D gathers through these are markedly cheaper than ``(n, 3)`` row
        gathers; every list built from this grid shares one copy.
        """
        cached = getattr(self, "_columns", None)
        if cached is None:
            cached = self._columns = (
                np.ascontiguousarray(self.x[:, 0]),
                np.ascontiguousarray(self.x[:, 1]),
                np.ascontiguousarray(self.x[:, 2]),
            )
        return cached

    def slot_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinate columns in *slot* (bin-major) order, memoized.

        Candidate j-indices come out of :meth:`ranges` as slots, which are
        contiguous runs per stencil range — gathering coordinates in slot
        order touches nearly sequential memory instead of hopping through
        the unsorted atom array.
        """
        cached = getattr(self, "_slot_columns", None)
        if cached is None:
            x0, x1, x2 = self.columns()
            cached = self._slot_columns = (
                x0[self.order],
                x1[self.order],
                x2[self.order],
            )
        return cached

    # ------------------------------------------------------------- stencils
    def reach(self, cutoff: float) -> np.ndarray:
        """Stencil rings per dimension covering ``cutoff`` in every box (a
        box of smaller reach only gains candidates beyond the cutoff)."""
        return np.maximum(
            np.ceil(cutoff / self.size - 1e-12).astype(np.int64), 1
        ).max(axis=0)

    def ranges(
        self, cutoff: float, half: bool, newton: bool, nrows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, hi, row, atom)``: the slot ranges every list row scans, per cell.

        The list's rows are box ``b``'s first ``nrows[b]`` atoms, box-major
        (``atom``: their indices in ``x``).  ``lo`` and ``hi`` are ``(ncells,
        nranges)`` bounds over, per box, the box of cells holding its rows;
        ``row[r]`` is row ``r``'s cell in that table.  A cell's ranges are in
        the list's row order (DESIGN §3.3).  Cells are stored x-fastest with
        contiguous per-cell segments, so the cells ``(x0..x1, dy, dz)`` around
        a cell are *one* slot range — an x-run — and a cell's ghosts are the
        tail of its segment.  A full row is every run
        ``(-kx..kx, dy, dz)``, self cell included, in stencil-offset order
        (``dz``, then ``dy`` ascending).  A half row is its own cell (``hi``
        is the cell's end; ``lo`` is a placeholder the builder replaces per
        atom with ``islot + 1``), then the lexicographically positive runs,
        ``(1..kx, 0, 0)`` first, then one ghost tail per lower cell — the
        offsets lexicographically negative in ``(dz, dy, dx)``, in that
        order, whose pairs the coordinate tie-break decides; newton on keeps
        only the ``dz == 0`` layer (a strictly lower z-bin can never win the
        z-first tie-break).  Runs are clipped at the box grid's x edges;
        ranges that leave it are empty.  Memoized per ``(style, newton,
        reach, nrows)``: built once per grid with one broadcast, no per-cell
        Python, shared by every row of every list.
        """
        kx, ky, kz = (int(k) for k in self.reach(cutoff))
        nrows = np.asarray(nrows, dtype=np.int64)
        key = (half, half and newton, kx, ky, kz, nrows.tobytes())
        if key in self._ranges:
            return self._ranges[key]
        # per range: cells [x0, x1) relative to the row's own x, the target
        # (dy, dz) line, and where the first cell's part starts (0: all its
        # members, 1: its ghost tail)
        if half:
            table = [(0, 1, 0, 0, 0)]
            table += [
                (-kx if (z, y) > (0, 0) else 1, kx + 1, y, z, 0)
                for z in range(kz + 1)
                for y in range(-ky, ky + 1)
                if (z, y) >= (0, 0)
            ]
            table += [
                (x, x + 1, y, z, 1)
                for z in range(0 if newton else -kz, 1)
                for y in range(-ky, ky + 1)
                for x in range(-kx, kx + 1)
                if (z, y, x) < (0, 0, 0)
            ]
        else:
            table = [
                (-kx, kx + 1, y, z, 0)
                for z in range(-kz, kz + 1)
                for y in range(-ky, ky + 1)
            ]
        x0, x1, dy, dz, part = np.array(table, dtype=np.int64).T
        first = np.add.accumulate(nrows) - nrows
        atom = np.arange(int(nrows.sum()), dtype=np.int64)
        atom += _per_atom(self.box_off[:-1] - first, nrows)
        # per box holding rows, the box of cells holding them (a bulk
        # domain's outer cells hold only ghosts), padded to the widest box:
        # the table is (box, yz line, x column, range), x fastest
        held = np.flatnonzero(nrows)
        cells = self.cell3[atom]
        low = np.minimum.reduceat(cells, first[held], axis=0)[:, None, None, :]
        ext = np.maximum.reduceat(cells, first[held], axis=0)[:, None, None, :] - low + 1
        lines, width = int((ext[..., 1] * ext[..., 2]).max()), int(ext[..., 0].max())
        rb = _per_atom(np.arange(len(held)), nrows[held])
        rel = cells - low[rb, 0, 0]
        row = (rb * lines + rel[:, 1] + ext[rb, 0, 0, 1] * rel[:, 2]) * width + rel[:, 0]
        # per (box, yz line, range): the target line's first cell, doubled
        # into starts2 units (cell c's members are [starts2[2c],
        # starts2[2c + 2]), its ghosts [starts2[2c + 1], starts2[2c + 2]));
        # per (box, x column, range): the clipped x range [xa, xb) —
        # broadcast, they index every cell's bounds
        nx, ny, nz = (self.nbins[held, None, None, d] for d in range(3))
        yz = np.arange(lines, dtype=np.int64)[:, None]
        ty, tz = low[..., 1] + yz % ext[..., 1] + dy, low[..., 2] + yz // ext[..., 1] + dz
        in_grid = ((ty >= 0) & (ty < ny) & (tz >= 0) & (tz < nz))[:, :, None, :]
        line2 = (2 * (self.bin_base[held, None, None] + nx * (ty + ny * tz)))[:, :, None, :]
        cx = low[..., 0] + np.arange(width, dtype=np.int64)[:, None]
        xa, xb = np.maximum(cx + x0, 0)[:, None], np.minimum(cx + x1, nx)[:, None]
        # int32 bounds: slots fit (nall is capped at the int32 range, as the
        # neighbor columns are), and the table is half the bytes to hold and
        # gather
        starts2 = self.starts2.astype(np.int32)
        # one index buffer for both ends, and empties (a range off the grid
        # or clipped away) as hi = lo: the newton-off half table is 76
        # ranges per cell, so every full-size temporary shows in peak RSS
        index = line2 + (2 * xa + part)
        lo = np.take(starts2, index, mode="clip")
        np.add(line2, 2 * xb, out=index)
        hi = np.take(starts2, index, mode="clip")
        del index
        empty = np.logical_not(in_grid & (xa < xb))
        np.copyto(hi, lo, where=empty)
        lo, hi = lo.reshape(-1, len(x0)), hi.reshape(-1, len(x0))
        self._ranges[key] = lo, hi, row, atom
        return self._ranges[key]
