"""Per-rank atom storage (LAMMPS's ``Atom``/``AtomVec``).

Arrays are structure-of-arrays NumPy (positions, velocities, forces, types,
charges, global tags) sized ``nlocal + nghost``: owned atoms first, then the
ghost shell received from neighboring ranks / periodic images.  Global atom
tags are 64-bit from the start — LAMMPS's ``bigint`` exascale-preparedness
lesson (appendix B) applied preemptively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import LammpsError

#: Fields communicated for ghost atoms at border time.
BORDER_FIELDS = ("x", "tag", "type", "q")
#: Fields a forward communication refreshes each step.
FORWARD_FIELDS = ("x",)


class AtomVec:
    """Structure-of-arrays atom container for one rank."""

    #: dtype per field; tags are bigint (appendix B), types never exceed
    #: 32 bits, per-atom reals are double precision throughout (the paper's
    #: kernels are FP64).
    FIELD_DTYPES = {
        "x": np.float64,
        "v": np.float64,
        "f": np.float64,
        "q": np.float64,
        # EAM scratch: electron density and embedding derivative, which is
        # forward-communicated between the two force loops (figure 1).
        "rho": np.float64,
        "fp": np.float64,
        "tag": np.int64,
        "type": np.int32,
    }
    VECTOR_FIELDS = ("x", "v", "f")

    def __init__(self, ntypes: int = 1) -> None:
        if ntypes < 1:
            raise LammpsError("ntypes must be >= 1")
        self.ntypes = ntypes
        self.nlocal = 0
        self.nghost = 0
        #: per-type masses, 1-indexed like LAMMPS (index 0 unused).
        self.mass = np.ones(ntypes + 1)
        self._capacity = 0
        self.x = np.zeros((0, 3))
        self.v = np.zeros((0, 3))
        self.f = np.zeros((0, 3))
        self.q = np.zeros(0)
        self.rho = np.zeros(0)
        self.fp = np.zeros(0)
        self.tag = np.zeros(0, dtype=np.int64)
        self.type = np.zeros(0, dtype=np.int32)
        #: bumped on every reallocation so aliases (AtomKokkos) can refresh.
        self.generation = 0
        #: bumped on every spatial reorder of the owned atoms; index-keyed
        #: consumers (comm sendlists, minimizer velocity state) compare this
        #: to detect that their cached indices went stale.
        self.reorder_generation = 0
        #: the permutation applied by the most recent :meth:`reorder_local`
        #: (``new[k] = old[perm[k]]``), for consumers that can remap.
        self.last_reorder_perm: np.ndarray | None = None
        #: registered custom per-atom fields (name -> ``(capacity, width)``
        #: array).  Custom fields are owned-atom state that participates in
        #: :meth:`grow`, :meth:`reorder_local`, and :meth:`replace_local`
        #: (they migrate with their atoms through ``exchange``); they are
        #: never border/forward-communicated, so ghost rows stay zero.
        self.custom: dict[str, np.ndarray] = {}

    # ------------------------------------------------------- custom fields
    def add_custom(
        self, name: str, width: int, dtype: np.dtype | type = np.float64
    ) -> np.ndarray:
        """Register a per-atom custom field; idempotent per name.

        Returns the backing array, but callers must re-fetch through
        ``self.custom[name]`` after any :meth:`grow` — reallocation replaces
        the array (exactly like the built-in fields and their aliases).
        """
        arr = self.custom.get(name)
        if arr is not None:
            if arr.shape[1] != width or arr.dtype != np.dtype(dtype):
                raise LammpsError(
                    f"custom field {name!r} re-registered with different "
                    f"shape/dtype ({arr.shape[1]}/{arr.dtype} vs {width}/"
                    f"{np.dtype(dtype)})"
                )
            return arr
        if width < 1:
            raise LammpsError(f"custom field {name!r} needs width >= 1")
        arr = np.zeros((self._capacity, width), dtype=dtype)
        self.custom[name] = arr
        return arr

    # ------------------------------------------------------------- sizing
    @property
    def nall(self) -> int:
        """Owned + ghost atoms."""
        return self.nlocal + self.nghost

    def grow(self, nmin: int) -> None:
        """Ensure capacity for ``nmin`` atoms (amortized doubling)."""
        if nmin <= self._capacity:
            return
        new_cap = max(nmin, max(16, self._capacity * 2))
        for name in self.FIELD_DTYPES:
            old = getattr(self, name)
            shape = (new_cap, 3) if name in self.VECTOR_FIELDS else (new_cap,)
            new = np.zeros(shape, dtype=self.FIELD_DTYPES[name])
            new[: old.shape[0]] = old
            setattr(self, name, new)
        for name, old in self.custom.items():
            new = np.zeros((new_cap, old.shape[1]), dtype=old.dtype)
            new[: old.shape[0]] = old
            self.custom[name] = new
        self._capacity = new_cap
        self.generation += 1

    # ------------------------------------------------------------ insertion
    def add_local(
        self,
        x: np.ndarray,
        types: np.ndarray | int = 1,
        tags: np.ndarray | None = None,
    ) -> None:
        """Append owned atoms (ghosts must not exist yet)."""
        if self.nghost:
            raise LammpsError("cannot add local atoms while ghosts exist")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = x.shape[0]
        start = self.nlocal
        self.grow(start + n)
        self.x[start : start + n] = x
        if np.isscalar(types):
            self.type[start : start + n] = int(types)
        else:
            types = np.asarray(types)
            if types.shape != (n,):
                raise LammpsError(f"types shape {types.shape} != ({n},)")
            if types.min() < 1 or types.max() > self.ntypes:
                raise LammpsError(
                    f"atom types must be in [1, {self.ntypes}]"
                )
            self.type[start : start + n] = types
        if tags is None:
            self.tag[start : start + n] = np.arange(start + 1, start + n + 1)
        else:
            self.tag[start : start + n] = np.asarray(tags, dtype=np.int64)
        self.nlocal += n

    def replace_local(
        self,
        x: np.ndarray,
        v: np.ndarray,
        types: np.ndarray,
        tags: np.ndarray,
        q: np.ndarray | None = None,
        custom: dict[str, np.ndarray] | None = None,
    ) -> None:
        """Overwrite the owned set wholesale (atom migration).

        ``custom`` carries per-atom custom-field rows alongside the base
        fields (each value ``(n, width)``, row k belonging to atom k);
        fields arriving from a peer that this rank has not registered yet
        are registered on the fly, and registered fields absent from the
        payload are zeroed — migrated atoms must never inherit a previous
        occupant's rows.
        """
        n = x.shape[0]
        self.nghost = 0
        self.nlocal = 0
        self.grow(n)
        self.x[:n] = x
        self.v[:n] = v
        self.type[:n] = types
        self.tag[:n] = tags
        self.q[:n] = q if q is not None else 0.0
        for arr in self.custom.values():
            arr[:n] = 0
        for name, rows in (custom or {}).items():
            dst = self.add_custom(name, rows.shape[1], rows.dtype)
            dst[:n] = rows
        self.nlocal = n

    # ------------------------------------------------------------ reordering
    def reorder_local(self, perm: np.ndarray) -> None:
        """Permute the owned atoms in place (``atom_modify sort``).

        ``perm`` maps new slots to old (``new[k] = old[perm[k]]``).  Must run
        while no ghosts exist — between ``exchange`` and ``borders`` — so
        ghost indices and comm sendlists are rebuilt against the new order by
        construction rather than remapped.  The permutation is applied
        in place so AtomKokkos dual views (which alias these arrays) stay
        valid.
        """
        if self.nghost:
            raise LammpsError("cannot reorder atoms while ghosts exist")
        n = self.nlocal
        if perm.shape != (n,):
            raise LammpsError(f"reorder perm shape {perm.shape} != ({n},)")
        for name in self.FIELD_DTYPES:
            arr = getattr(self, name)
            arr[:n] = arr[:n][perm]
        for arr in self.custom.values():
            arr[:n] = arr[:n][perm]
        self.reorder_generation += 1
        self.last_reorder_perm = perm

    # -------------------------------------------------------------- ghosts
    def clear_ghosts(self) -> None:
        self.nghost = 0

    def add_ghosts(self, fields: dict[str, np.ndarray]) -> None:
        """Append ghost atoms from unpacked border buffers."""
        n = fields["x"].shape[0]
        start = self.nall
        self.grow(start + n)
        for name, arr in fields.items():
            getattr(self, name)[start : start + n] = arr
        self.nghost += n

    # -------------------------------------------------------------- physics
    def masses_of(self, first: int = 0, last: int | None = None) -> np.ndarray:
        """Per-atom masses for a slice (resolved through the type table)."""
        last = self.nlocal if last is None else last
        return self.mass[self.type[first:last]]

    def zero_forces(self) -> None:
        self.f[: self.nall] = 0.0

    def kinetic_energy(self, mvv2e: float) -> float:
        """Kinetic energy of owned atoms."""
        m = self.masses_of()
        vsq = np.einsum("ij,ij->i", self.v[: self.nlocal], self.v[: self.nlocal])
        return 0.5 * mvv2e * float(np.dot(m, vsq))
