"""DualView: paired host/device storage with modify/sync tracking.

Paper section 3.2: "The Kokkos variants of styles in LAMMPS generally
contain host and device variants of data encapsulated in a
``Kokkos::DualView`` ... it has functionality to keep track of when data was
modified, and thus when data has to be synced ... simply calling sync inside
a LAMMPS style when it needs to access a data field will only incur the
overhead of actual memory transfer if the data was last modified in the
other memory space.  Thus, no global knowledge of the required data transfer
patterns is necessary."

That protocol is reproduced bit-for-bit: monotonically increasing
modification counters per space, ``sync()`` copying only when stale, and —
in host-only builds — the whole mechanism collapsing to a no-op because both
"sides" share one allocation.
"""

from __future__ import annotations

import numpy as np

from repro.kokkos.core import Device, ExecutionSpace, Host, device_context
from repro.kokkos.view import View
from repro.tools import registry as kp


class DualViewModifyError(RuntimeError):
    """The modify-both-spaces hazard: both sides written with no sync between.

    ``modify(Host)`` followed by ``modify(Device)`` (or vice versa) without
    an intervening ``sync`` means each side holds updates the other lacks;
    whichever direction syncs next would silently clobber one side.  Real
    Kokkos debug builds abort here ("Concurrent modification of host and
    device views"); we raise with the view named so the offending style is
    identifiable.
    """


class DualView:
    """Host + device views of one logical array, with staleness tracking."""

    __slots__ = ("h_view", "d_view", "label", "_modified", "_host_only")

    def __init__(self, data: np.ndarray, *, label: str = "") -> None:
        """Wrap the host array ``data`` without copying it: the host view
        aliases it (figure 1's raw-pointer aliasing), so code holding
        ``data`` sees every host-side update.  ``data`` must be
        C-contiguous (the host layout), or the host view would be a copy."""
        ctx = device_context()
        self.label = label
        self._host_only = ctx.host_only
        self.h_view = View(data.shape, data.dtype, space=Host, label=label + "_h", data=data)
        if self.h_view.data is not data:
            raise ValueError(f"DualView {label!r}: the host array is not C-contiguous")
        if self._host_only:
            # Pure host build: device view aliases the host allocation, so
            # syncs can never copy anything (section 3.2, last paragraph).
            self.d_view = self.h_view
        else:
            self.d_view = View(data.shape, data.dtype, space=Device, label=label + "_d")
            self.d_view.data[...] = data
        self._modified = {Host: 0, Device: 0}

    # ------------------------------------------------------------- access
    def view(self, space: ExecutionSpace) -> View:
        return self.d_view if space is Device else self.h_view

    # ----------------------------------------------------- modify protocol
    def modify(self, space: ExecutionSpace) -> None:
        """Declare that ``space``'s copy has been written.

        Raises :class:`DualViewModifyError` on the modify-both-spaces
        hazard: writing ``space`` while the other side already holds newer,
        unsynced data would leave updates on both sides with no correct
        sync direction.
        """
        other = Device if space is Host else Host
        if self._modified[other] > self._modified[space]:
            raise DualViewModifyError(
                f"DualView {self.label or 'unnamed'!r}: modify({space.name}) "
                f"while {other.name} holds newer unsynced data "
                f"(modify({other.name}) was never followed by a sync) — both "
                f"sides would hold updates the other lacks, and the next sync "
                f"would silently clobber one of them; sync first "
                f"(sync({space.name})) before writing the {space.name} side"
            )
        self._modified[space] = self._modified[other] + 1

    def need_sync(self, space: ExecutionSpace) -> bool:
        """Whether ``space``'s copy is stale."""
        other = Device if space is Host else Host
        return self._modified[other] > self._modified[space]

    def sync(self, space: ExecutionSpace) -> bool:
        """Make ``space``'s copy current.  Returns True if a transfer ran.

        The transfer cost is charged to the device timeline so benchmarks
        can see host-device ping-pong — the failure mode of the pre-Kokkos
        GPU package the paper contrasts against.
        """
        if not self.need_sync(space):
            return False
        other = Device if space is Host else Host
        if not self._host_only:
            dst, src = self.view(space), self.view(other)
            dst.data[...] = src.data
            ctx = device_context()
            seconds = ctx.transfer_time(dst.nbytes)
            ctx.timeline.record(
                f"dualview_sync::{self.label or 'unnamed'}", seconds
            )
            if kp.TOOLS:
                kp.deep_copy(
                    space.name,
                    dst.label,
                    other.name,
                    src.label,
                    dst.nbytes,
                    seconds,
                )
        self._modified[space] = self._modified[other]
        return True
