"""Shared bin grid for neighbor-list construction (paper section 4.1).

One :class:`BinGrid` is assembled per neighbor rebuild, at the largest
requested cutoff (the ghost cutoff), and shared by every list built that
step — the pair list and the ReaxFF bond-search list.  Multi-cutoff
consumers filter one candidate set instead of
re-binning, which is how LAMMPS's ``NBin``/``NStencil`` split works.

The assembly is a counting sort, not a global comparison sort: atoms are
keyed by ``2 * bin + is_ghost`` and ordered with a stable LSD radix pass
(NumPy's stable integer ``argsort``), so every bin's segment stores its
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
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import NeighborError


def _geometry(
    x: np.ndarray, bin_size: float, nlocal: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(origin, nbins, size)`` of the grid covering ``x``."""
    origin = x.min(axis=0) - 1e-9
    top = x.max(axis=0) + 1e-9
    if not np.isfinite((origin, top)).all():
        # a NaN/inf coordinate would otherwise be clipped into some bin
        # and the atom silently lose its neighbors
        bad = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
        who = "" if nlocal is None else "ghost " if bad >= nlocal else "owned "
        raise NeighborError(
            f"non-finite coordinates {x[bad].tolist()} on {who}atom {bad}: "
            "cannot bin atoms for the neighbor build"
        )
    span = np.maximum(top - origin, bin_size)
    nbins = np.maximum((span / bin_size).astype(np.int64), 1)
    return origin, nbins, span / nbins


def _cells_of(
    x: np.ndarray, origin: np.ndarray, nbins: np.ndarray, size: np.ndarray
) -> np.ndarray:
    cell3 = ((x - origin) / size).astype(np.int64)
    np.clip(cell3, 0, nbins - 1, out=cell3)
    return cell3


def spatial_sort_order(x: np.ndarray, bin_size: float) -> np.ndarray:
    """Bin-major stable permutation of ``x`` (the rebuild's spatial sort).

    Atoms in the same cell keep their relative order; cells run row-major,
    so downstream gathers over the neighbor list touch nearly contiguous
    memory (section 4.1's atom-sorting cache-locality argument).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    origin, nbins, size = _geometry(x, bin_size)
    cell3 = _cells_of(x, origin, nbins, size)
    binid = cell3[:, 0] + nbins[0] * (cell3[:, 1] + nbins[1] * cell3[:, 2])
    return np.argsort(binid, kind="stable")


class BinGrid:
    """Counting-sort bin assembly over one rank's local + ghost atoms."""

    #: Process-wide construction counter.  The acceptance criterion "one
    #: bin-grid build per neighbor rebuild" is asserted against deltas of
    #: this, the profiling analogue of a Kokkos Tools region count.
    builds_total: int = 0

    def __init__(self, x: np.ndarray, nlocal: int, bin_size: float) -> None:
        BinGrid.builds_total += 1
        x = np.asarray(x, dtype=float)
        nall = x.shape[0]
        self.x = x
        self.nall = nall
        self.nlocal = nlocal
        self.bin_size = float(bin_size)
        self._ranges: dict = {}  # (style, newton, reach, rows) -> ranges()
        if nall == 0:
            self.origin = np.zeros(3)
            self.nbins = np.ones(3, dtype=np.int64)
            self.size = np.full(3, self.bin_size)
            self.cell3 = np.zeros((0, 3), dtype=np.int64)
            self.binid = np.zeros(0, dtype=np.int64)
            self.order = np.zeros(0, dtype=np.int64)
            self.islot = np.zeros(0, dtype=np.int64)
            self.starts2 = np.zeros(3, dtype=np.int64)
            return
        self.origin, self.nbins, self.size = _geometry(x, self.bin_size, nlocal)
        strides = np.array([1, self.nbins[0], self.nbins[0] * self.nbins[1]])
        self.cell3 = _cells_of(x, self.origin, self.nbins, self.size)
        self.binid = self.cell3 @ strides
        nbins_total = int(self.nbins.prod())
        # Composite key: bin-major, owned atoms before ghosts within a bin.
        # Stable integer argsort is an LSD radix — chained counting sorts,
        # no comparison sort over the whole atom set.
        key = self.binid * 2
        if nlocal < nall:
            key[nlocal:] += 1
        self.order = np.argsort(key, kind="stable")
        # Segment bounds in `order`: bin b's owned atoms occupy
        # [starts2[2b], starts2[2b+1]), its ghosts [starts2[2b+1], starts2[2b+2]).
        counts = np.bincount(key, minlength=2 * nbins_total)
        self.starts2 = np.zeros(2 * nbins_total + 1, dtype=np.int64)
        np.cumsum(counts, out=self.starts2[1:])
        # Inverse permutation: each atom's slot in `order` (self-cell scans
        # enumerate "atoms stored after me in my bin").
        self.islot = np.empty(nall, dtype=np.int64)
        self.islot[self.order] = np.arange(nall, dtype=np.int64)

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
        """Stencil rings per dimension covering ``cutoff``."""
        return np.maximum(
            np.ceil(cutoff / self.size - 1e-12).astype(np.int64), 1
        )

    def ranges(
        self, cutoff: float, half: bool, newton: bool, nrows: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, hi, row)``: the slot ranges every list row scans, per cell.

        ``lo`` and ``hi`` are ``(ncells, nranges)`` bounds over the box of
        cells holding atoms ``[0, nrows)`` (the list's rows); ``row[i]`` is
        atom ``i``'s cell in that table.  A cell's ranges are in the list's
        row order (DESIGN §3.3).  Cells are stored x-fastest with contiguous
        per-cell segments, so the cells ``(x0..x1, dy, dz)`` around a cell
        are *one* slot range — an x-run — and a cell's ghosts are the tail
        of its segment.  A full row is every run ``(-kx..kx, dy, dz)``, self
        cell included, in stencil-offset order (``dz``, then ``dy``
        ascending).  A half row is its own cell (``hi`` is the cell's end;
        ``lo`` is a placeholder the builder replaces per atom with
        ``islot + 1``), then the lexicographically positive runs,
        ``(1..kx, 0, 0)`` first, then one ghost tail per lower cell — the
        offsets lexicographically negative in ``(dz, dy, dx)``, in that
        order, whose pairs the coordinate tie-break decides; newton on keeps
        only the ``dz == 0`` layer (a strictly lower z-bin can never win the
        z-first tie-break).  Runs are clipped at the grid's x edges; ranges
        that leave the grid are empty.  Memoized per ``(style, newton,
        reach, nrows)``: built once per grid with one broadcast, no per-cell
        Python, shared by every row of every list.
        """
        kx, ky, kz = (int(k) for k in self.reach(cutoff))
        key = (half, half and newton, kx, ky, kz, nrows)
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
        nx, ny, nz = (int(n) for n in self.nbins)
        # the row cells' box: a bulk domain's outer cells hold only ghosts
        cells = self.cell3[:nrows]
        lx, ly, lz = (int(c) for c in cells.min(axis=0))
        bx, by, bz = (int(c) + 1 for c in np.ptp(cells, axis=0))
        row = (cells[:, 0] - lx) + bx * ((cells[:, 1] - ly) + by * (cells[:, 2] - lz))
        # per (yz line, range): the target line's first cell, doubled into
        # starts2 units (cell c's members are [starts2[2c], starts2[2c + 2]),
        # its ghosts [starts2[2c + 1], starts2[2c + 2])); per (cx, range): the
        # clipped x range [xa, xb) — broadcast, they index every cell's bounds
        yz = np.arange(by * bz, dtype=np.int64)[:, None]
        ty, tz = ly + yz % by + dy, lz + yz // by + dz
        in_grid = (ty >= 0) & (ty < ny) & (tz >= 0) & (tz < nz)
        line2 = (2 * nx * (ty + ny * tz))[:, None, :]
        cx = lx + np.arange(bx, dtype=np.int64)[:, None]
        xa, xb = np.maximum(cx + x0, 0), np.minimum(cx + x1, nx)
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
        empty = np.logical_not(in_grid[:, None, :] & (xa < xb))
        np.copyto(hi, lo, where=empty)
        self._ranges[key] = lo.reshape(-1, len(x0)), hi.reshape(-1, len(x0)), row
        return self._ranges[key]
