"""Per-category phase timer for the thermo timing breakdown.

Real LAMMPS prints a post-loop "MPI task timing breakdown" crediting
simulated work to Pair / Neigh / Comm / Modify / Output.  Here the
"time" a phase consumes is modeled time: the kernel seconds in the device
timeline (:class:`repro.hardware.cost.DeviceTimeline`) plus the modeled
communication seconds in the world ledger
(:class:`repro.parallel.comm.CommLedger`).  Both keep O(1) running totals
(``cum_seconds``) exactly so this timer can snapshot the combined clock at
every phase boundary without walking the ledgers.

Phases never nest across categories: the run loop enters one category,
exits it, then enters the next.  That invariant keeps this breakdown in
exact agreement with the observability layer's space-time-stack, which
attributes by *top-level* region — the reconciliation test in
``tests/test_tools_observability.py`` holds both to it.  Sub-detail inside
a category uses plain tool regions, not timer phases.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.tools import registry as kp

#: The thermo breakdown categories, in LAMMPS's print order.
CATEGORIES = ("Pair", "Neigh", "Comm", "Modify", "Output")


class PhaseTimer:
    """Attributes modeled seconds to the category active when they accrue."""

    def __init__(self, world) -> None:
        self.world = world
        self.timers: dict[str, float] = {c: 0.0 for c in CATEGORIES}
        self._stack: list[str] = []
        self._mark = 0.0

    # ------------------------------------------------------------- clock
    def _now(self) -> float:
        """Combined modeled clock: device kernel time + modeled comm time."""
        from repro.kokkos.core import device_context

        return device_context().timeline.cum_seconds + self.world.ledger.cum_seconds

    def _credit(self) -> None:
        """Charge the segment since the last boundary to the current phase."""
        now = self._now()
        if self._stack:
            self.timers[self._stack[-1]] += now - self._mark
        self._mark = now

    # ------------------------------------------------------------ phases
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Scope modeled time to ``name``; also opens a matching tool region.

        Nesting is allowed only for re-entering the *same* category (inner
        scopes are then no-ops for attribution); see the module docstring
        for why cross-category nesting is forbidden.
        """
        if name not in self.timers:
            raise ValueError(f"unknown phase {name!r}; expected one of {CATEGORIES}")
        if self._stack and self._stack[-1] != name:
            raise RuntimeError(
                f"phase {name!r} opened inside {self._stack[-1]!r}: categories "
                "must be sequential or the breakdown diverges from the "
                "space-time-stack (see repro/core/timer.py docstring)"
            )
        self._credit()
        self._stack.append(name)
        if kp.TOOLS:
            kp.push_region(name)
        try:
            yield
        finally:
            self._credit()
            self._stack.pop()
            if kp.TOOLS:
                kp.pop_region()

    # ------------------------------------------------------------ totals
    def total(self) -> float:
        return sum(self.timers.values())

    def reset(self) -> None:
        self.timers = {c: 0.0 for c in CATEGORIES}
        self._stack.clear()
        self._mark = self._now()
