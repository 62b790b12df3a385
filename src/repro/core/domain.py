"""Simulation box, periodic boundary handling, regions, and lattices.

Orthogonal boxes only (the paper's benchmarks are all orthogonal).  The
domain owns the global box; per-rank subdomains come from
:class:`repro.parallel.decomp.BrickDecomposition`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import DomainError, LammpsError


@dataclass
class Domain:
    """The global orthogonal periodic box."""

    boxlo: np.ndarray = field(default_factory=lambda: np.zeros(3))
    boxhi: np.ndarray = field(default_factory=lambda: np.ones(3))
    periodic: tuple[bool, bool, bool] = (True, True, True)
    defined: bool = False

    def set_box(self, boxlo, boxhi, periodic=(True, True, True)) -> None:
        boxlo = np.asarray(boxlo, dtype=float)
        boxhi = np.asarray(boxhi, dtype=float)
        if boxlo.shape != (3,) or boxhi.shape != (3,):
            raise DomainError("box corners must be 3-vectors")
        if np.any(boxhi <= boxlo):
            raise DomainError(f"degenerate box: lo={boxlo}, hi={boxhi}")
        self.boxlo = boxlo
        self.boxhi = boxhi
        self.periodic = tuple(bool(p) for p in periodic)
        self.defined = True

    @property
    def lengths(self) -> np.ndarray:
        return self.boxhi - self.boxlo

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Remap positions into the primary box along periodic dimensions."""
        return wrap(np.asarray(x, dtype=float), self.boxlo, self.lengths, self.periodic)


def wrap(x: np.ndarray, lo, length, periodic) -> np.ndarray:
    """A copy of ``x`` remapped into ``[lo, lo + length)`` along its periodic
    dimensions; the bounds broadcast, one box's or each atom's own box's."""
    return np.where(periodic, lo + np.mod(x - lo, length), x)


def require_finite(x: np.ndarray, tag: np.ndarray, owner: str) -> None:
    """Refuse owned rows ``x`` (atom tags ``tag``) before their wrap if one
    is non-finite: it wraps into no box, so the exchange would drop it.  The
    error names ``owner`` (the step and rank or replica) and the atom tag."""
    ok = np.isfinite(x).all(axis=1)
    if not ok.all():
        k = int(np.flatnonzero(~ok)[0])
        raise LammpsError(f"{owner} owns atom {int(tag[k])} at non-finite {x[k].tolist()}")


@dataclass(frozen=True)
class BlockRegion:
    """Axis-aligned block region (the ``region ... block`` command)."""

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def create(cls, lo, hi) -> "BlockRegion":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(hi <= lo):
            raise DomainError(f"degenerate region: lo={lo}, hi={hi}")
        return cls(lo, hi)

    def inside(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        return np.all((x >= self.lo) & (x < self.hi), axis=-1)


#: Basis vectors (fractions of the unit cell) for the supported lattices.
LATTICE_BASES: dict[str, np.ndarray] = {
    "sc": np.array([[0.0, 0.0, 0.0]]),
    "bcc": np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]]),
    "fcc": np.array(
        [
            [0.0, 0.0, 0.0],
            [0.5, 0.5, 0.0],
            [0.5, 0.0, 0.5],
            [0.0, 0.5, 0.5],
        ]
    ),
}


@dataclass(frozen=True)
class Lattice:
    """A Bravais lattice with a cubic unit cell of edge ``a``.

    In ``lj`` units the lattice is specified by reduced density (LAMMPS
    convention): ``a = (basis_count / density) ** (1/3)``.
    """

    style: str
    a: float

    @classmethod
    def create(cls, style: str, scale: float, lj_units: bool) -> "Lattice":
        if style not in LATTICE_BASES:
            raise DomainError(
                f"unknown lattice {style!r}; known: {', '.join(sorted(LATTICE_BASES))}"
            )
        if scale <= 0:
            raise DomainError("lattice scale must be positive")
        if lj_units:
            nbasis = len(LATTICE_BASES[style])
            a = (nbasis / scale) ** (1.0 / 3.0)
        else:
            a = scale
        return cls(style=style, a=a)

    @property
    def basis(self) -> np.ndarray:
        return LATTICE_BASES[self.style]

    def positions_in_region(self, region: BlockRegion) -> np.ndarray:
        """All lattice sites inside a block region (vectorized fill)."""
        lo_cell = np.floor(region.lo / self.a).astype(int) - 1
        hi_cell = np.ceil(region.hi / self.a).astype(int) + 1
        axes = [np.arange(lo_cell[d], hi_cell[d]) for d in range(3)]
        ii, jj, kk = np.meshgrid(*axes, indexing="ij")
        cells = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1).astype(float)
        sites = (cells[:, None, :] + self.basis[None, :, :]).reshape(-1, 3) * self.a
        return sites[region.inside(sites)]
