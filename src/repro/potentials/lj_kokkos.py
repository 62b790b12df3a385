"""Kokkos-accelerated Lennard-Jones: ``pair_style lj/cut/kk``.

The derived class supplies only the LJ force/energy expression
(:meth:`LJMixin.eval_setup`); the generic pairwise machinery — list style,
ScatterView deconfliction, cutoff checks, tallies, hierarchical-parallelism
variant — lives in :class:`~repro.potentials.pair_kokkos.PairKokkos`,
"a unified source for the logic and implementation of the multiple
execution policies" (section 4.1).
"""

from __future__ import annotations

from repro.core.styles import register_pair
from repro.potentials.lj import LJMixin
from repro.potentials.pair_kokkos import PairKokkos


@register_pair("lj/cut/kk")
class PairLJCutKokkos(LJMixin, PairKokkos):
    """LJ on the Kokkos path (device by default, host via ``/kk/host``)."""

    def kernel_name(self) -> str:
        return "PairComputeLJCut"
