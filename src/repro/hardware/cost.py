"""Analytic kernel cost model (roofline + latency + atomics + caches).

DESIGN.md section 3 defines the contract: every Kokkos-style kernel declares
a :class:`KernelProfile` of its resource demands, and the
:class:`KernelCostModel` converts that profile plus a hardware description
into simulated device seconds.  Simulated kernel time is

``t = launches * launch_latency
    + max(t_flops, t_hbm, t_l2, t_atomic) / (saturation * occupancy)``

with

* ``t_flops``  — FP64 work over the device FP64 rate, derated by lane
  divergence (section 4.2.1's motivation for pre-processing kernels);
* ``t_hbm``    — bytes that actually reach HBM after the L1/L2 capacity
  model of :mod:`repro.hardware.cache`;
* ``t_l2``     — total L2-level traffic over L2 bandwidth (appendix C.1:
  the LJ force kernel is L2-throughput limited on GH200);
* ``t_atomic`` — FP64 atomic additions over the device atomic rate
  (section 4.1's full-vs-half neighbor list trade-off);
* ``saturation`` — a Hill curve in exposed parallelism capturing thread
  starvation at small problem sizes (figure 4);
* ``occupancy`` — the shared-memory occupancy throttle (figure 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.hardware.cache import (
    CacheConfig,
    l1_hit_fraction,
    l2_hit_fraction,
    shared_occupancy,
)
from repro.hardware.cpu import CPUSpec
from repro.hardware.gpu import GPUSpec


@dataclass(frozen=True)
class KernelProfile:
    """Resource demands of one kernel launch (totals, not per item).

    Kernels compute these from their actual workload statistics (atom count,
    average neighbors, quantum-number index space size, ...), so the model's
    inputs are grounded in the functional simulation.
    """

    name: str
    #: Total FP64 operations.
    flops: float = 0.0
    #: Compulsory HBM traffic in bytes (streaming loads/stores with no reuse).
    bytes_streamed: float = 0.0
    #: Traffic in bytes that caches *can* absorb given enough capacity
    #: (neighbor coordinates, U/Y matrices, lookup tables).
    bytes_reusable: float = 0.0
    #: Per-SM working set backing the reusable traffic, kB.
    l1_working_set_kb: float = 0.0
    #: Device-level working set for the L2 model, MB.
    l2_working_set_mb: float = 0.0
    #: Software-managed scratch demand per team, kB (0 = unused).
    shared_kb_per_team: float = 0.0
    #: FP64 atomic additions.
    atomic_ops: float = 0.0
    #: Extra combine-step traffic of ScatterView's duplicated strategy in
    #: bytes (the per-thread copies folded into the target, section 3.2) —
    #: priced as memory traffic, distinct from the atomic-rate term.
    duplicated_bytes: float = 0.0
    #: Exposed parallelism in independent work items (threads).
    parallel_items: float = 1.0
    #: Fraction of scheduled lanes doing useful work (1.0 = convergent).
    convergent_fraction: float = 1.0
    #: Number of kernel launches this profile represents.
    launches: int = 1
    #: Fraction of CPU peak FP64 this kernel's loop structure achieves on a
    #: multicore host (irregular neighbor gathers vectorize poorly ~0.05;
    #: dense quantum-number loops reach ~0.15).  Drives the figure 5
    #: normalization against the Skylake baseline.
    cpu_efficiency: float = 0.06
    #: Contiguous work items mapped to adjacent lanes (section 4.3.2's batch
    #: size v).  0 = not applicable.  Below the warp granularity, memory
    #: transactions fragment; the cost model derates cache throughput by
    #: ``v / (v + warp/4)``.
    batch_width: float = 0.0

    def scaled(self, factor: float) -> "KernelProfile":
        """Profile for ``factor``-times the work (same per-item character).

        Working sets scale with the work for device-level structures but the
        per-SM working set is a property of the blocking strategy and is kept
        fixed; parallelism scales with the work.
        """
        return replace(
            self,
            flops=self.flops * factor,
            bytes_streamed=self.bytes_streamed * factor,
            bytes_reusable=self.bytes_reusable * factor,
            l2_working_set_mb=self.l2_working_set_mb * factor,
            atomic_ops=self.atomic_ops * factor,
            duplicated_bytes=self.duplicated_bytes * factor,
            parallel_items=self.parallel_items * factor,
        )

    def __add__(self, other: "KernelProfile") -> "KernelProfile":
        """Aggregate two sequential launches (for ledger roll-ups)."""
        return KernelProfile(
            name=self.name if self.name == other.name else f"{self.name}+{other.name}",
            flops=self.flops + other.flops,
            bytes_streamed=self.bytes_streamed + other.bytes_streamed,
            bytes_reusable=self.bytes_reusable + other.bytes_reusable,
            l1_working_set_kb=max(self.l1_working_set_kb, other.l1_working_set_kb),
            l2_working_set_mb=max(self.l2_working_set_mb, other.l2_working_set_mb),
            shared_kb_per_team=max(self.shared_kb_per_team, other.shared_kb_per_team),
            atomic_ops=self.atomic_ops + other.atomic_ops,
            duplicated_bytes=self.duplicated_bytes + other.duplicated_bytes,
            parallel_items=max(self.parallel_items, other.parallel_items),
            convergent_fraction=min(self.convergent_fraction, other.convergent_fraction),
            launches=self.launches + other.launches,
            cpu_efficiency=min(self.cpu_efficiency, other.cpu_efficiency),
            batch_width=max(self.batch_width, other.batch_width),
        )


def fuse_profiles(
    profiles: list[KernelProfile],
    *,
    name: str,
    saved_intermediate_bytes: float = 0.0,
) -> KernelProfile:
    """Price a fused composite dispatch (kernel-graph elementwise fusion).

    The fused kernel does all the member stages' arithmetic but launches
    once, and buffers that live entirely inside the fused body never round-
    trip through memory between stages — ``saved_intermediate_bytes`` (a
    write plus a later read per eliminated buffer) comes off the streamed
    traffic.  Cache working sets and parallelism follow the ``__add__``
    aggregation rules (max, not sum: the stages share one index space).
    """
    if not profiles:
        raise ValueError("fuse_profiles needs at least one profile")
    total = profiles[0]
    for prof in profiles[1:]:
        total = total + prof
    return replace(
        total,
        name=name,
        launches=1,
        bytes_streamed=max(total.bytes_streamed - saved_intermediate_bytes, 0.0),
    )


def heuristic_carveout(profile: KernelProfile, gpu: GPUSpec) -> float:
    """The Kokkos-style runtime carveout heuristic (paper section 4.4).

    Kokkos picks the carveout from the kernel's scratch request: kernels with
    no shared-memory use get the whole pool as L1; scratch-staging kernels get
    enough shared memory for full occupancy (8 resident teams), capped at the
    hardware maximum.
    """
    if not gpu.unified_cache or profile.shared_kb_per_team <= 0.0:
        return 0.0
    want_kb = 8.0 * profile.shared_kb_per_team
    return min(1.0, want_kb / gpu.l1_kb)


@dataclass
class KernelCostModel:
    """Evaluates :class:`KernelProfile` objects against hardware specs."""

    #: Maximum L1 hit fraction (cold/write-allocate misses always remain).
    max_l1_hit: float = 0.95
    #: Maximum L2 hit fraction for L1 misses.
    max_l2_hit: float = 0.9
    #: Resident teams per SM needed for full occupancy.
    resident_teams_for_peak: int = 8

    # ---------------------------------------------------------------- GPU
    def gpu_time(
        self,
        profile: KernelProfile,
        gpu: GPUSpec,
        carveout: float | None = None,
    ) -> float:
        """Simulated seconds for one launch sequence on ``gpu``.

        ``carveout`` overrides the runtime heuristic, mirroring the paper's
        figure 3 experiment ("we overwrote that heuristic and simply forced a
        specific carveout value").
        """
        if carveout is None:
            carveout = heuristic_carveout(profile, gpu)
        cache = CacheConfig.for_gpu(gpu, carveout)

        # Memory hierarchy: reusable traffic filters through L1 then L2;
        # streamed traffic goes through L2 to HBM (no reuse, no L1 benefit).
        hit1 = l1_hit_fraction(cache.l1_kb, profile.l1_working_set_kb, self.max_l1_hit)
        l1_hits = profile.bytes_reusable * hit1
        l1_misses = profile.bytes_reusable * (1.0 - hit1)
        hit2 = l2_hit_fraction(gpu.l2_mb, profile.l2_working_set_mb, self.max_l2_hit)
        # the duplicated-strategy combine pass streams every copy through the
        # hierarchy once — extra traffic, but never atomic-rate limited
        hbm_bytes = (
            profile.bytes_streamed
            + profile.duplicated_bytes
            + l1_misses * (1.0 - hit2)
        )
        l2_bytes = profile.bytes_streamed + profile.duplicated_bytes + l1_misses

        t_hbm = hbm_bytes / (gpu.hbm_bw_tbs * 1e12)
        t_l2 = l2_bytes / (gpu.l2_bw_tbs * 1e12)
        t_l1 = l1_hits / (gpu.l1_bw_tbs * 1e12)
        if profile.batch_width > 0.0:
            # transaction-granularity derate: tiles narrower than the warp
            # fragment cache lines ("v needs to be large enough to achieve
            # well-behaved memory transactions", section 4.3.2)
            t_l1 /= profile.batch_width / (profile.batch_width + gpu.warp_size / 4.0)
        t_flops = profile.flops / (
            gpu.fp64_tflops * 1e12 * max(profile.convergent_fraction, 1e-6)
        )
        t_atomic = profile.atomic_ops / (gpu.atomic_gops * 1e9)

        sat = self._saturation(profile.parallel_items, gpu.saturation_half)
        occ = shared_occupancy(
            cache.shared_kb,
            profile.shared_kb_per_team,
            self.resident_teams_for_peak,
        )
        busy = max(t_hbm, t_l2, t_l1, t_flops, t_atomic) / (sat * occ)
        return profile.launches * gpu.launch_latency_us * 1e-6 + busy

    # ---------------------------------------------------------------- CPU
    def cpu_time(self, profile: KernelProfile, cpu: CPUSpec) -> float:
        """Simulated seconds on a CPU node.

        CPUs see no atomic penalty (LAMMPS uses one rank per core: forces are
        accumulated privately, paper section 4.1) and no shared-memory
        occupancy effects; the divergence penalty is also absent because
        scalar cores predicate cheaply.  Caches are generous per-thread, so
        reusable traffic mostly hits.
        """
        hit = l1_hit_fraction(cpu.core_cache_kb, profile.l1_working_set_kb, 0.98)
        misses = profile.bytes_reusable * (1.0 - hit)
        hit_llc = l2_hit_fraction(cpu.llc_mb, profile.l2_working_set_mb, self.max_l2_hit)
        mem_bytes = (
            profile.bytes_streamed
            + profile.duplicated_bytes
            + misses * (1.0 - hit_llc)
        )

        t_mem = mem_bytes / (cpu.mem_bw_tbs * 1e12)
        t_flops = profile.flops / (
            cpu.fp64_tflops * 1e12 * max(profile.cpu_efficiency, 1e-3)
        )
        # CPU parallelism saturates at the core count.
        sat = self._saturation(profile.parallel_items, cpu.max_threads / 2.0)
        busy = max(t_mem, t_flops) / sat
        return profile.launches * cpu.launch_latency_us * 1e-6 + busy

    def time(
        self,
        profile: KernelProfile,
        device: GPUSpec | CPUSpec,
        carveout: float | None = None,
    ) -> float:
        """Dispatch on device kind."""
        if isinstance(device, GPUSpec):
            return self.gpu_time(profile, device, carveout)
        return self.cpu_time(profile, device)

    @staticmethod
    def _saturation(parallel_items: float, half: float) -> float:
        """Hill curve: throughput fraction achieved at a given concurrency."""
        p = max(parallel_items, 1.0)
        return p / (p + max(half, 1.0))


def neighbor_build_profiles(
    *,
    pairs: int,
    nall: int,
    nlocal: int,
    sorted_atoms: bool = False,
) -> list[KernelProfile]:
    """Priced kernels of one neighbor rebuild (paper section 4.1).

    Three launches mirror the build pipeline:

    * ``NeighborBinAssembly`` — the counting-sort bin pass: stream the
      coordinates once, scatter-count into bin counters (the atomic term),
      then write the bin-major permutation and its inverse.  Charged once
      per rebuild: every list of the rebuild is served by the one shared
      :class:`~repro.core.bin_grid.BinGrid`.
    * ``NeighborBuild`` — the stencil scan + distance filter.  The formula
      is deliberately kept from the pre-overhaul model (it conservatively
      folds the bin counters in), so figure projections are comparable
      across the neighbor-subsystem change.
    * ``AtomSort`` — the ``atom_modify sort`` permutation: every per-atom
      field read and rewritten once, pure bandwidth.

    Returns the profiles in launch order; callers dispatch each through the
    Kokkos layer so the timeline records them individually.
    """
    profiles: list[KernelProfile] = []
    if sorted_atoms:
        # x/v/f rows (3 x 24 B) + q/rho/fp (3 x 8 B) + tag (8 B) + type (4 B),
        # read old + write new
        profiles.append(
            KernelProfile(
                name="AtomSort",
                bytes_streamed=2.0 * 108.0 * nlocal,
                parallel_items=float(max(nlocal, 1)),
            )
        )
    profiles.append(
        KernelProfile(
            name="NeighborBinAssembly",
            # coordinates in (24 B) + key/order/inverse passes (3 x 8 B)
            bytes_streamed=48.0 * nall,
            atomic_ops=float(nall),  # scatter-count into bin counters
            parallel_items=float(max(nall, 1)),
        )
    )
    profiles.append(
        KernelProfile(
            name="NeighborBuild",
            flops=12.0 * pairs,
            bytes_streamed=8.0 * pairs + 64.0 * nall,
            atomic_ops=float(nall),  # bin counters
            parallel_items=float(max(nlocal, 1)),
        )
    )
    return profiles


def overlapped_phase_time(
    t_comm: float, t_interior: float, t_boundary: float
) -> float:
    """Step-time accounting with comm/compute overlap.

    The halo exchange runs concurrently with the interior force pass, so
    the pair costs ``max(comm, interior)``; the boundary pass waits for the
    ghosts and is fully exposed.  This replaces the serial
    ``comm + interior + boundary`` accounting when overlap is on.
    """
    if min(t_comm, t_interior, t_boundary) < 0.0:
        raise ValueError("phase times must be non-negative")
    return max(t_comm, t_interior) + t_boundary


@dataclass
class DeviceTimeline:
    """Ledger of simulated device time, by kernel name.

    The Kokkos dispatch layer records into the *active* timeline (see
    :mod:`repro.kokkos.profiling`); benchmarks read totals and per-kernel
    breakdowns from here.
    """

    entries: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    #: Running total, maintained incrementally so phase timers can snapshot
    #: the clock in O(1) instead of summing the ledger per region boundary.
    cum_seconds: float = 0.0

    def record(self, name: str, seconds: float) -> None:
        if seconds < 0.0:
            raise ValueError(f"negative kernel time for {name!r}: {seconds}")
        self.entries[name] = self.entries.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + 1
        self.cum_seconds += seconds

    def total(self) -> float:
        return math.fsum(self.entries.values())

    def kernel_total(self, name: str) -> float:
        return self.entries.get(name, 0.0)

    def reset(self) -> None:
        self.entries.clear()
        self.counts.clear()
        self.cum_seconds = 0.0

    def breakdown(self) -> list[tuple[str, float, int]]:
        """Per-kernel ``(name, seconds, launches)`` sorted by cost."""
        return sorted(
            ((k, v, self.counts[k]) for k, v in self.entries.items()),
            key=lambda row: -row[1],
        )
