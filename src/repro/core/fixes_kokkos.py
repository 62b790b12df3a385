"""Kokkos-accelerated fixes.

A GPU-resident timestep (the KOKKOS package's design goal, section 1) keeps
the integration kernels on the device too — otherwise positions and forces
would ping-pong across the PCIe link every step.  ``fix nve/kk`` runs the
plain fix's velocity-Verlet update as the functor of the two small
bandwidth-bound device kernels a real run launches; it is selected
automatically by the ``/kk`` suffix.
"""

from __future__ import annotations

import repro.kokkos as kk
from repro.core.fixes import FixNVE
from repro.core.styles import register_fix
from repro.kokkos.core import Device, Host


@register_fix("nve/kk")
class FixNVEKokkos(FixNVE):
    """Velocity Verlet with device-resident update kernels."""

    def __init__(self, lmp, fix_id, group, args, execution_space: str = "device") -> None:
        super().__init__(lmp, fix_id, group, args)
        self.execution_space = Device if execution_space == "device" else Host

    def _charge(self, name: str, update) -> None:
        """Dispatch ``update`` (one plain-fix pass) as the charged kernel."""
        n = self.lmp.atom.nlocal
        kk.parallel_for(
            name,
            kk.RangePolicy(self.execution_space, 0, max(n, 1)),
            lambda idx: update(),
            profile=kk.KernelProfile(
                name=name,
                flops=9.0 * n,
                bytes_streamed=96.0 * n,  # x/v/f rows read+write
                parallel_items=float(max(n, 1)),
            ),
        )

    def initial_integrate(self) -> None:
        self._charge("FixNVEInitialIntegrate", super().initial_integrate)

    def final_integrate(self) -> None:
        self._charge("FixNVEFinalIntegrate", super().final_integrate)
