"""Reference-run capture and single-device projection.

A :class:`PotentialBenchmark` runs its workload functionally at a small
reference size with the Kokkos pair style and profile capture enabled,
merges the captured kernels into per-step :class:`KernelProfile` objects,
and exposes

* :meth:`ReferenceRun.step_time` — simulated seconds/step on any GPU (or the
  reference CPU node) at any atom count, with optional carveout override and
  style tuning, and
* :meth:`ReferenceRun.atom_steps_per_second` — the figure 4/5 metric.

Scaling assumption: per-atom workload character (neighbors per atom, QEq
iterations, quad sparsity) is size-independent for homogeneous workloads —
true of all three benchmarks, whose densities are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

import repro.kokkos as kk
import repro.potentials  # noqa: F401  (register pair styles)
import repro.reaxff  # noqa: F401
import repro.snap  # noqa: F401
from repro.core import Lammps
from repro.hardware.cost import KernelProfile
from repro.hardware.cpu import CPUSpec
from repro.hardware.gpu import GPUSpec, get_gpu
from repro.workloads.hns import setup_hns
from repro.workloads.melt import setup_melt
from repro.workloads.tantalum import setup_tantalum


@dataclass
class CommModel:
    """Per-step communication pattern for the cluster model."""

    #: forward halo exchanges per step (positions and fields out to ghosts)
    forward_halos: int = 1
    #: reverse halo exchanges per step (ghost forces back to owners)
    reverse_halos: int = 0
    #: iterative rounds per step (QEq CG: one vector halo + allreduces each)
    iterative_rounds: int = 0
    #: bytes per ghost atom moved in one forward halo
    bytes_per_ghost: float = 24.0
    #: allreduces per step outside the iterative rounds (rebuild check etc.)
    allreduces: int = 1
    #: pack/unpack kernel launches per halo exchange (6 faces x pack+unpack)
    kernels_per_halo: int = 12
    #: device kernels per iterative round (spmv, dots, axpys)
    iterative_kernel_launches: int = 11
    #: kernel-name prefixes whose work splits into interior/boundary passes
    #: when comm/compute overlap is on (the first ghost-reading kernel of
    #: the step; everything downstream already waits for other reasons)
    overlap_kernels: tuple[str, ...] = ("PairCompute",)


@dataclass
class ReferenceRun:
    """Captured per-step kernel profiles plus workload metadata."""

    potential: str
    natoms: int
    #: per-step profiles merged by kernel name
    profiles: dict[str, KernelProfile]
    #: atom number density (atoms per cubic length unit)
    density: float
    #: interaction cutoff (ghost shell width), length units
    cutoff: float
    #: device memory per atom, bytes (HBM capacity limit, figure 4)
    mem_per_atom: float
    comm: CommModel = field(default_factory=CommModel)

    # ------------------------------------------------------------ projection
    def scaled_profiles(self, natoms: int) -> list[KernelProfile]:
        ratio = natoms / self.natoms
        return [p.scaled(ratio) for p in self.profiles.values()]

    def max_atoms(self, gpu: GPUSpec) -> int:
        """Largest atom count fitting in HBM (the figure 4 ReaxFF wall)."""
        return int(gpu.hbm_bytes / self.mem_per_atom)

    def step_time(
        self,
        device: GPUSpec | CPUSpec | str,
        natoms: int,
        *,
        carveout: float | None = None,
    ) -> float:
        """Simulated seconds per timestep on one device."""
        if isinstance(device, str):
            device = get_gpu(device)
        model = kk.device_context().cost_model
        total = 0.0
        for prof in self.scaled_profiles(natoms):
            if isinstance(device, GPUSpec):
                total += model.gpu_time(prof, device, carveout)
            else:
                total += model.cpu_time(prof, device)
        return total

    def atom_steps_per_second(
        self,
        device: GPUSpec | CPUSpec | str,
        natoms: int,
        *,
        carveout: float | None = None,
    ) -> float:
        return natoms / self.step_time(device, natoms, carveout=carveout)

    def kernel_time(
        self,
        name: str,
        device: GPUSpec | str,
        natoms: int,
        *,
        carveout: float | None = None,
    ) -> float:
        """Seconds/step of a single kernel (figure 3, Table 2)."""
        if isinstance(device, str):
            device = get_gpu(device)
        prof = self.profiles[name].scaled(natoms / self.natoms)
        return kk.device_context().cost_model.gpu_time(prof, device, carveout)

    def splittable_step_time(
        self,
        device: GPUSpec | str,
        natoms: int,
        *,
        carveout: float | None = None,
    ) -> float:
        """Seconds/step of the kernels the overlap scheme can phase-split.

        Matches per-step profiles against the comm model's
        ``overlap_kernels`` prefixes; the remainder of :meth:`step_time` is
        work that cannot hide the halo (it either precedes the exchange or
        depends on downstream communication).
        """
        if isinstance(device, str):
            device = get_gpu(device)
        model = kk.device_context().cost_model
        ratio = natoms / self.natoms
        total = 0.0
        for name, prof in self.profiles.items():
            if any(name.startswith(p) for p in self.comm.overlap_kernels):
                total += model.gpu_time(prof.scaled(ratio), device, carveout)
        return total


def _merge_step_profiles(
    log: list[KernelProfile], nsteps: int
) -> dict[str, KernelProfile]:
    """Average captured profiles into one per-step profile per kernel."""
    merged: dict[str, KernelProfile] = {}
    for p in log:
        if p.name in merged:
            merged[p.name] = merged[p.name] + p
        else:
            merged[p.name] = p
    out: dict[str, KernelProfile] = {}
    for name, p in merged.items():
        scaled = p.scaled(1.0 / nsteps)
        out[name] = replace(
            scaled,
            launches=max(round(p.launches / nsteps), 1),
            # parallelism is per launch (the merge already took the max);
            # averaging over steps must not shrink it
            parallel_items=p.parallel_items,
        )
    return out


class PotentialBenchmark:
    """Base: owns the reference workload and capture procedure."""

    name: str = ""
    pair_style: str = ""
    mem_per_atom: float = 300.0
    comm = CommModel()
    capture_steps: int = 4
    _cache: dict[tuple, ReferenceRun] = {}

    def setup(self, lmp: Lammps) -> None:
        raise NotImplementedError

    def tune(self, pair) -> None:
        """Apply style options before capture (overridden by sweeps)."""

    def reference(self, device: str = "H100", **tune_kw) -> ReferenceRun:
        config = tuple(
            (k, repr(v)) for k, v in sorted(vars(self).items())
        )
        key = (type(self).__name__, device, tuple(sorted(tune_kw.items())), config)
        if key in self._cache:
            return self._cache[key]
        lmp = Lammps(device=device, suffix="kk")
        self.setup(lmp)
        ctx = kk.device_context()
        # complete setup work outside the capture window
        lmp.run(0)
        if tune_kw and hasattr(lmp.pair, "set_options"):
            lmp.pair.set_options(**tune_kw)
        self.tune(lmp.pair)
        ctx.profile_log = []
        lmp.run(self.capture_steps)
        # run(n) re-runs setup (one extra force cycle): average over n+1
        profiles = _merge_step_profiles(ctx.profile_log, self.capture_steps + 1)
        ctx.profile_log = None
        vol = lmp.domain.volume
        run = ReferenceRun(
            potential=self.name,
            natoms=lmp.natoms_total,
            profiles=profiles,
            density=lmp.natoms_total / vol,
            cutoff=lmp.pair.max_cutoff(),
            mem_per_atom=self.mem_per_atom,
            comm=self.comm,
        )
        self._cache[key] = run
        return run


class LJBenchmark(PotentialBenchmark):
    """LJ melt: 4x4x4k-cell fcc argon (figure 4/5 use 16M atoms)."""

    name = "LJ"
    pair_style = "lj/cut"
    mem_per_atom = 320.0  # x/v/f + half/full neighbor list
    comm = CommModel(forward_halos=1, reverse_halos=0)

    def __init__(self, cells: int = 8, **options) -> None:
        self.cells = cells
        self.options = options

    def setup(self, lmp: Lammps) -> None:
        setup_melt(lmp, cells=self.cells, pair_style=self.pair_style)

    def tune(self, pair) -> None:
        if self.options and hasattr(pair, "set_options"):
            pair.set_options(**self.options)


class ReaxFFBenchmark(PotentialBenchmark):
    """HNS-like CHNO crystal (figure 4/5 use the 465k-atom HNS cell)."""

    name = "ReaxFF"
    pair_style = "reaxff"
    # bond tables + over-allocated QEq CSR (~400 slots x 12 B) + vectors
    mem_per_atom = 9000.0
    comm = CommModel(
        forward_halos=2,  # positions + charges
        reverse_halos=1,
        # QEq CG iterations of a cold-start plain CG; the captured runs' default
        # solver (jacobi + qeq_extrap 2) takes ~19 — not re-derived, see
        # EXPERIMENTS "ReaxFF modeled rows"
        iterative_rounds=30,
        allreduces=3,
        # bond-order neighboring and the nonbonded force read only pair
        # geometry, so their owned-owned portion can hide the position halo
        overlap_kernels=("ReaxBondOrderNeighborList", "ReaxNonbondedForce"),
    )

    def __init__(self, nx: int = 3, ny: int = 5, nz: int = 5) -> None:
        self.nx, self.ny, self.nz = nx, ny, nz

    def setup(self, lmp: Lammps) -> None:
        setup_hns(lmp, self.nx, self.ny, self.nz, pair_style=self.pair_style)


class SNAPBenchmark(PotentialBenchmark):
    """bcc Ta with 2J_max = 8 (figure 4/5 use 64k atoms)."""

    name = "SNAP"
    pair_style = "snap"
    # U/Y adjoint blocks are processed in bounded atom chunks; resident
    # footprint per atom stays moderate
    mem_per_atom = 4000.0
    # the U expansion is per-atom: rows whose neighborhood is ghost-free can
    # run while the halo is in flight, the rest follows the sync
    comm = CommModel(
        forward_halos=1, reverse_halos=1, overlap_kernels=("ComputeUi",)
    )
    capture_steps = 2

    def __init__(self, cells: int = 3, twojmax: int = 8, **options) -> None:
        self.cells = cells
        self.twojmax = twojmax
        self.options = options

    def setup(self, lmp: Lammps) -> None:
        setup_tantalum(
            lmp, cells=self.cells, pair_style=self.pair_style, twojmax=self.twojmax
        )

    def tune(self, pair) -> None:
        if self.options and hasattr(pair, "set_options"):
            pair.set_options(**self.options)


#: the three case studies at their default reference sizes
POTENTIAL_BENCHMARKS: dict[str, Callable[[], PotentialBenchmark]] = {
    "LJ": LJBenchmark,
    "ReaxFF": ReaxFFBenchmark,
    "SNAP": SNAPBenchmark,
}


def overlap_report(
    ref: ReferenceRun,
    machine,
    natoms_total: int,
    node_counts: list[int],
) -> list[dict]:
    """Fig. 6-style overlap=on/off comparison rows.

    Each row gives the modeled step time with the serial exchange-then-force
    schedule and with the halo hidden behind the interior pass
    (``max(comm, interior) + boundary``), plus the interior fraction and the
    communication time actually hidden.
    """
    from repro.bench.scaling import cluster_step_breakdown

    rows: list[dict] = []
    for nodes in node_counts:
        if nodes > machine.max_nodes:
            continue
        off = cluster_step_breakdown(ref, machine, natoms_total, nodes, overlap=False)
        on = cluster_step_breakdown(ref, machine, natoms_total, nodes, overlap=True)
        if off is None or on is None:
            continue
        rows.append(
            {
                "nodes": nodes,
                "ranks": machine.ranks(nodes),
                "step_time_off": off["total"],
                "step_time_on": on["total"],
                "speedup": off["total"] / on["total"],
                "interior_fraction": on["interior_fraction"],
                "hidden_comm": min(on["hidden_comm"], on["interior"]),
            }
        )
    return rows


def format_overlap_report(potential: str, machine_name: str, rows: list[dict]) -> str:
    """Human-readable table for :func:`overlap_report` rows."""
    lines = [
        f"{potential} on {machine_name}: halo/compute overlap",
        f"{'nodes':>6} {'ranks':>7} {'off (ms)':>10} {'on (ms)':>10} "
        f"{'speedup':>8} {'interior':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r['nodes']:>6d} {r['ranks']:>7d} {r['step_time_off'] * 1e3:>10.4f} "
            f"{r['step_time_on'] * 1e3:>10.4f} {r['speedup']:>8.3f} "
            f"{r['interior_fraction']:>9.3f}"
        )
    return "\n".join(lines)
