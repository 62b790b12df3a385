"""The GPU accelerator package: force offload with per-step transfers.

Paper section 1: "The GPU package was released as part of LAMMPS in 2010 and
took the common approach of simply offloading the force calculation ...
Nearly all other kernels run on the host CPU.  This requires frequent data
copies between host and device in every timestep.  While reasonable speedups
were achieved ... this method has clear drawbacks given the limited transfer
speed and high latency between the separate memories of the CPU and the GPU."

This module implements exactly that strategy (``pair_style lj/cut/gpu``) as
the paper's historical baseline: positions ship host -> device before the
force kernel, forces ship device -> host after it, and everything else —
integration, neighbor bookkeeping, communication — stays host-resident.
The ablation benchmark ``benchmarks/test_ablation_gpu_package.py`` measures
what the KOKKOS package's GPU residency buys.
"""

from __future__ import annotations

import repro.kokkos as kk
from repro.core.styles import register_pair
from repro.kokkos.core import Device, device_context
from repro.potentials.lj import PairLJCut
from repro.potentials.pair_kokkos import FLOPS_PER_ATOM, FLOPS_PER_PAIR
from repro.tools import registry as kp


class GPUOffloadMixin:
    """Runs the inherited host pass as the offloaded force kernel.

    The force math itself is inherited unchanged from the plain host style
    (results are bit-identical to ``lj/cut``); what differs is the simulated
    cost: every step pays two PCIe-class transfers around the device kernel,
    and the device kernel runs with *half* lists (the GPU package kept the
    host's neighbor lists).  A host-only context runs the pass bare.
    """

    #: per-atom bytes shipped down (x + type) and up (f) each step
    H2D_BYTES_PER_ATOM = 28.0
    D2H_BYTES_PER_ATOM = 24.0

    def compute(self, eflag: bool = True, vflag: bool = True) -> None:
        host_pass = super().compute
        ctx = device_context()
        if ctx.host_only:
            host_pass(eflag, vflag)
            return
        atom = self.lmp.atom
        nlist = self.lmp.neigh_list
        nall = atom.nall
        stored_pairs = nlist.total_pairs if nlist is not None else 0

        # host -> device: positions and types of owned + ghost atoms
        h2d_bytes = int(self.H2D_BYTES_PER_ATOM * nall)
        h2d_seconds = ctx.transfer_time(h2d_bytes)
        ctx.timeline.record("gpu_package::h2d_positions", h2d_seconds)
        if kp.TOOLS:
            kp.deep_copy("Device", "x", "Host", "x", h2d_bytes, h2d_seconds)
        # the offloaded force kernel (one atom per thread, half list +
        # atomics — the GPU package reused the host's newton setting)
        profile = kk.KernelProfile(
            name="gpu_package::force_kernel",
            flops=FLOPS_PER_PAIR * stored_pairs + FLOPS_PER_ATOM * atom.nlocal,
            bytes_streamed=4.0 * stored_pairs + 48.0 * atom.nlocal,
            bytes_reusable=24.0 * stored_pairs,
            l1_working_set_kb=300.0,
            l2_working_set_mb=24.0 * atom.nlocal / 1e6,
            atomic_ops=6.0 * stored_pairs,
            parallel_items=float(max(atom.nlocal, 1)),
        )
        kk.parallel_for(
            "gpu_package::force_kernel",
            kk.RangePolicy(Device, 0, max(atom.nlocal, 1)),
            lambda idx: host_pass(eflag, vflag),
            profile=profile,
        )
        # device -> host: forces come back for the host-resident integrator
        d2h_bytes = int(self.D2H_BYTES_PER_ATOM * nall)
        d2h_seconds = ctx.transfer_time(d2h_bytes)
        ctx.timeline.record("gpu_package::d2h_forces", d2h_seconds)
        if kp.TOOLS:
            kp.deep_copy("Host", "f", "Device", "f", d2h_bytes, d2h_seconds)


@register_pair("lj/cut/gpu")
class PairLJCutGPU(GPUOffloadMixin, PairLJCut):
    """LJ with force-only GPU offload (the pre-Kokkos strategy)."""
