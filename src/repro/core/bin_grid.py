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
``atom_modify sort`` spatial ordering.

Bins are anisotropic: each dimension gets ``floor(span / bin_size)`` bins
of width ``>= bin_size``; :meth:`reach` picks the per-dimension ring count
covering each requested cutoff, so one grid — typically at *half* the
ghost cutoff, LAMMPS's bin size, which trades a wider stencil for ~40%
less candidate volume — serves every cutoff with a proportionate stencil.
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
    """Bin-major stable permutation of ``x`` (``atom_modify sort``).

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
        self._runs: dict = {}  # (kind, reach) -> slot bounds, see runs()
        if nall == 0:
            self.origin = np.zeros(3)
            self.nbins = np.ones(3, dtype=np.int64)
            self.size = np.full(3, self.bin_size)
            self.strides = np.array([1, 1, 1], dtype=np.int64)
            self.cell3 = np.zeros((0, 3), dtype=np.int64)
            self.binid = np.zeros(0, dtype=np.int64)
            self.order = np.zeros(0, dtype=np.int64)
            self.islot = np.zeros(0, dtype=np.int64)
            self.starts2 = np.zeros(3, dtype=np.int64)
            return
        self.origin, self.nbins, self.size = _geometry(x, self.bin_size, nlocal)
        self.strides = np.array(
            [1, self.nbins[0], self.nbins[0] * self.nbins[1]], dtype=np.int64
        )
        self.cell3 = _cells_of(x, self.origin, self.nbins, self.size)
        self.binid = self.cell3 @ self.strides
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

        Candidate j-indices come out of the scans as slots, which are
        contiguous runs per stencil cell — gathering coordinates in slot
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

    def lower_offsets(self, cutoff: float, same_z_only: bool) -> np.ndarray:
        """Cell offsets lexicographically negative in ``(dz, dy, dx)``.

        The half of the stencil that :meth:`runs` ``"upper"`` leaves out.  A
        half list needs these cells only for their *ghost* members, whose
        pairs are kept by the grid-independent coordinate tie-break rather
        than cell order; ghost tails are not contiguous across cells, so
        :meth:`scan` visits them one cell at a time.  ``same_z_only`` drops
        the ``dz < 0`` layers (newton on: a strictly lower z-bin can never
        win the z-first tie-break).
        """
        kx, ky, kz = (int(k) for k in self.reach(cutoff))
        return np.array(
            [
                (dx, dy, dz)
                for dz in range(0 if same_z_only else -kz, 1)
                for dy in range(-ky, ky + 1)
                for dx in range(-kx, kx + 1)
                if (dz, dy, dx) < (0, 0, 0)
            ],
            dtype=np.int64,
        )

    def runs(self, cutoff: float, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """Slot bounds ``(lo, hi)``, each ``(ncells, nruns)``, of every cell's x-runs.

        Cells are stored x-fastest with contiguous per-cell segments, so the
        cells ``(x0..kx, dy, dz)`` around a cell are *one* slot range — the
        unit of the all-members scan.  A cell's runs are listed in
        stencil-offset order (``dz``, then ``dy`` ascending): ``"full"`` is
        every ``(-kx..kx, dy, dz)``, self cell included; ``"upper"`` is the
        lexicographically positive half, ``(1..kx, 0, 0)`` first.  Runs are
        clipped at the grid's x edges; a run whose ``(dy, dz)`` row leaves
        the grid is empty.  Memoized per ``(kind, reach)``: built once per
        grid with one broadcast, shared by every row of every list.
        """
        kx, ky, kz = (int(k) for k in self.reach(cutoff))
        key = (kind, kx, ky, kz)
        if key not in self._runs:
            full = kind == "full"
            x0, dy, dz = np.array(
                [
                    (-kx if full or (z, y) > (0, 0) else 1, y, z)
                    for z in range(-kz if full else 0, kz + 1)
                    for y in range(-ky, ky + 1)
                    if full or (z, y) >= (0, 0)
                ],
                dtype=np.int64,
            ).T
            nx, ny, nz = (int(n) for n in self.nbins)
            # per (yz row, run): first cell of the target row; per (cx, run):
            # the clipped x range as cell numbers [xa, xb) — xa == xb at the
            # edge is an empty slot range by itself, out-of-grid rows are masked
            yz = np.arange(ny * nz, dtype=np.int64)[:, None]
            ty, tz = yz % ny + dy, yz // ny + dz
            ok = ((ty >= 0) & (ty < ny) & (tz >= 0) & (tz < nz))[:, None, :]
            row = np.where(ok, nx * (ty + ny * tz)[:, None, :], 0)
            cx = np.arange(nx, dtype=np.int64)[:, None]
            xa, xb = np.clip(cx + x0, 0, nx), np.minimum(cx + kx + 1, nx)
            start = self.starts2[::2]  # cell c occupies [start[c], start[c + 1])
            lo = start[row + xa]
            hi = np.where(ok, start[row + xb], lo)
            self._runs[key] = lo.reshape(-1, len(x0)), hi.reshape(-1, len(x0))
        return self._runs[key]

    # ---------------------------------------------------------------- scans
    def scan_runs(self, rows: np.ndarray, cutoff: float, kind: str):
        """``(i, jslot)``: each row against every member of its cell's x-runs.

        The j side is in *slot* space (positions in :attr:`order` — pair with
        :meth:`slot_columns`; map survivors back with ``order[jslot]``).
        Entries are ordered rows ascending, a row's runs in stencil-offset
        order, slots ascending within a run — consecutive runs are ascending
        cells, so a row's candidates are ascending in slot throughout.
        """
        lo, hi = self.runs(cutoff, kind)
        cells = self.binid[rows]
        return self._expand(
            np.repeat(rows, lo.shape[1]), lo[cells].ravel(), hi[cells].ravel()
        )

    def scan(self, rows: np.ndarray, offsets: np.ndarray):
        """``(i, jslot)``: each row against the *ghost tail* of each offset cell.

        The counting-sort key stores a cell's owned atoms first, so its
        ghosts are the tail of its segment.  Slot-space j side as in
        :meth:`scan_runs`; entries are offset-major, rows ascending.
        """
        ci = self.cell3[rows]  # (m, 3)
        nb3 = ci[None, :, :] + offsets[:, None, :]  # (k, m, 3)
        ok = np.all((nb3 >= 0) & (nb3 < self.nbins), axis=2)
        ko, mo = np.nonzero(ok)
        seg = 2 * (nb3[ko, mo] @ self.strides)
        return self._expand(rows[mo], self.starts2[seg + 1], self.starts2[seg + 2])

    def self_tail(self, rows: np.ndarray):
        """``(i, jslot)`` over atoms stored *after* each row in its own cell.

        The intra-cell half of the half stencil: slot order plays the role
        of ``j > i``, so every same-cell pair is generated exactly once and
        the cell's ghost tail is swept in the same pass.
        """
        seg = 2 * self.binid[rows]
        return self._expand(rows, self.islot[rows] + 1, self.starts2[seg + 2])

    def _expand(self, iv: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        """Flatten (row, slot range) pairs into ``(i, jslot)`` candidate arrays.

        The j side stays in slot space: the distance filter runs against
        :meth:`slot_columns` and only the (much smaller) surviving set pays
        the ``order`` gather back to atom indices.
        """
        cnt = hi - lo
        total = int(cnt.sum())
        if not total:
            return None
        # range k holds slots lo[k] .. hi[k]-1 at flat positions csum[k] ..
        jslot = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
        jslot += np.arange(total, dtype=np.int64)
        return np.repeat(iv, cnt), jslot
