"""3-D brick spatial decomposition (Plimpton 1995, the LAMMPS default).

The global orthogonal box is cut into a ``px x py x pz`` grid of equal
sub-bricks, one per rank.  Rank placement follows LAMMPS's convention:
x fastest, z slowest.  Each rank talks to its 6 face neighbors (with periodic
wraparound), which is the stencil the halo-exchange cost model and the
functional ghost exchange both use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def factor_ranks(n: int, box_lengths: tuple[float, float, float]) -> tuple[int, int, int]:
    """Factor ``n`` ranks into a 3-D grid minimizing communication surface.

    Same objective as LAMMPS's default processor mapping: among all ordered
    factorizations ``px*py*pz == n``, pick the one minimizing the total
    subdomain surface area for the given box aspect ratio.
    """
    if n < 1:
        raise ValueError("rank count must be >= 1")
    lx, ly, lz = box_lengths
    if min(lx, ly, lz) <= 0:
        raise ValueError("box lengths must be positive")
    best: tuple[int, int, int] | None = None
    best_surface = np.inf
    for px in range(1, n + 1):
        if n % px:
            continue
        rem = n // px
        for py in range(1, rem + 1):
            if rem % py:
                continue
            pz = rem // py
            sx, sy, sz = lx / px, ly / py, lz / pz
            surface = sx * sy + sy * sz + sx * sz
            if surface < best_surface:
                best_surface = surface
                best = (px, py, pz)
    assert best is not None
    return best


@dataclass(frozen=True)
class BrickDecomposition:
    """Mapping between ranks and sub-bricks of an orthogonal periodic box."""

    boxlo: tuple[float, float, float]
    boxhi: tuple[float, float, float]
    grid: tuple[int, int, int]

    @classmethod
    def create(
        cls,
        boxlo: tuple[float, float, float],
        boxhi: tuple[float, float, float],
        nranks: int,
    ) -> "BrickDecomposition":
        lengths = tuple(h - l for l, h in zip(boxlo, boxhi))
        if min(lengths) <= 0:
            raise ValueError(f"degenerate box: lo={boxlo} hi={boxhi}")
        grid = factor_ranks(nranks, lengths)  # type: ignore[arg-type]
        return cls(tuple(boxlo), tuple(boxhi), grid)

    @property
    def nranks(self) -> int:
        px, py, pz = self.grid
        return px * py * pz

    # ------------------------------------------------------------- mapping
    def coords_of(self, rank: int) -> tuple[int, int, int]:
        """Grid coordinates of a rank (x fastest, z slowest)."""
        px, py, pz = self.grid
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range")
        ix = rank % px
        iy = (rank // px) % py
        iz = rank // (px * py)
        return ix, iy, iz

    def rank_of(self, ix: int, iy: int, iz: int) -> int:
        """Rank at periodic-wrapped grid coordinates."""
        px, py, pz = self.grid
        return (ix % px) + (iy % py) * px + (iz % pz) * px * py

    def subdomain(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` corners of a rank's brick."""
        ix, iy, iz = self.coords_of(rank)
        lo = np.empty(3)
        hi = np.empty(3)
        for d, i in enumerate((ix, iy, iz)):
            length = (self.boxhi[d] - self.boxlo[d]) / self.grid[d]
            lo[d] = self.boxlo[d] + i * length
            hi[d] = self.boxlo[d] + (i + 1) * length
        return lo, hi

    def owner_of(self, x: np.ndarray) -> np.ndarray:
        """Owning rank for each (wrapped) position, shape (n, 3) -> (n,)."""
        x = np.asarray(x)
        lo = np.asarray(self.boxlo)
        hi = np.asarray(self.boxhi)
        lengths = hi - lo
        frac = (x - lo) / lengths
        frac -= np.floor(frac)  # periodic wrap into [0, 1)
        grid = np.asarray(self.grid)
        cell = np.minimum((frac * grid).astype(np.int64), grid - 1)
        px, py, _ = self.grid
        return cell[:, 0] + cell[:, 1] * px + cell[:, 2] * px * py
