"""Kokkos-side atom storage: DualViews aliasing the plain arrays.

Figure 1 of the paper: ``AtomVecAtomicKokkos`` stores atomic data in
``Kokkos::DualView``s whose *host* mirrors alias the raw pointers that the
classic (non-Kokkos) styles read.  That aliasing is what lets Kokkos and
non-Kokkos styles coexist in one input script: a plain style writes through
the old pointer, marks the field host-modified, and the next Kokkos style's
``sync(device)`` moves exactly that data — nothing more (section 3.2).

Here the host View of each DualView wraps the *same ndarray object* the
:class:`~repro.core.atom.AtomVec` exposes, so the aliasing is literal.
When ``AtomVec.grow`` reallocates, the generation counter changes and the
DualViews are rebuilt on next access.
"""

from __future__ import annotations

from repro.core.atom import AtomVec
from repro.kokkos.core import ExecutionSpace
from repro.kokkos.dual_view import DualView
from repro.kokkos.view import View


class AtomKokkos:
    """DualView façade over an :class:`AtomVec`."""

    def __init__(self, atom: AtomVec) -> None:
        self.atom = atom
        self._duals: dict[str, DualView] = {}
        self._generation = -1

    def _rebuild(self) -> None:
        self._duals = {
            # the host View aliases the AtomVec allocation (no copy)
            name: DualView(getattr(self.atom, name), label=f"atom_{name}")
            for name in AtomVec.FIELD_DTYPES
        }
        self._generation = self.atom.generation

    def dual(self, name: str) -> DualView:
        """The DualView for a field, rebuilt after any reallocation."""
        if self._generation != self.atom.generation:
            self._rebuild()
        if name not in self._duals:
            raise KeyError(f"unknown atom field {name!r}")
        return self._duals[name]

    # -------------------------------------------------- datamask protocol
    def sync(self, space: ExecutionSpace, fields: tuple[str, ...]) -> None:
        """Make ``fields`` current in ``space`` (a style's read datamask)."""
        for name in fields:
            self.dual(name).sync(space)

    def modified(self, space: ExecutionSpace, fields: tuple[str, ...]) -> None:
        """Mark ``fields`` written in ``space`` (a style's modify datamask)."""
        for name in fields:
            self.dual(name).modify(space)

    def view(self, name: str, space: ExecutionSpace) -> View:
        return self.dual(name).view(space)
