"""Execution spaces and library lifecycle.

Kokkos programs bracket their work in ``Kokkos::initialize`` /
``Kokkos::finalize`` and dispatch to strongly-typed execution spaces.  Here
the two spaces are :data:`Host` (the CPU reference node) and :data:`Device`
(one simulated GPU, selected at :func:`initialize` time).  A pure-host build
(``initialize(device=None)``) makes the Device space an alias of Host, which
is exactly how the paper's DualView synchronization "effectively becomes
inactive" in host-only configurations (section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.cost import DeviceTimeline, KernelCostModel
from repro.hardware.cpu import CPUSpec, SKYLAKE_NODE
from repro.hardware.gpu import GPUSpec, get_gpu


@dataclass(frozen=True)
class ExecutionSpace:
    """A place code can run.  Compared by identity of the singleton objects."""

    name: str


#: The host (CPU) execution space.
Host = ExecutionSpace("Host")
#: The device (GPU) execution space.
Device = ExecutionSpace("Device")


#: Host<->device copy engine parameters (PCIe/NVLink class).  DualView syncs
#: charge this; it is intentionally slow relative to HBM so the cost of
#: host/device ping-ponging — the GPU package's weakness the KOKKOS package
#: was built to avoid (section 1) — is visible in the ledger.
TRANSFER_BW_GBS = 55.0
TRANSFER_LATENCY_US = 8.0


@dataclass
class DeviceContext:
    """Global runtime state: which silicon each space maps to, plus ledgers."""

    gpu: GPUSpec | None
    cpu: CPUSpec = field(default_factory=lambda: SKYLAKE_NODE)
    cost_model: KernelCostModel = field(default_factory=KernelCostModel)
    timeline: DeviceTimeline = field(default_factory=DeviceTimeline)
    #: Forced shared-memory carveout (None = Kokkos heuristic), figure 3.
    carveout: float | None = None
    #: When set, every dispatched kernel's resolved profile is appended here
    #: (the benchmark runner captures one step's worth and rescales them).
    profile_log: list | None = None

    @property
    def host_only(self) -> bool:
        return self.gpu is None

    def spec_for(self, space: ExecutionSpace) -> GPUSpec | CPUSpec:
        """Silicon backing an execution space."""
        if space is Device and self.gpu is not None:
            return self.gpu
        return self.cpu

    def transfer_time(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` across the host-device link."""
        if self.host_only:
            return 0.0
        return TRANSFER_LATENCY_US * 1e-6 + nbytes / (TRANSFER_BW_GBS * 1e9)


_context: DeviceContext | None = None


def initialize(device: str | GPUSpec | None = "H100", cpu: CPUSpec | None = None) -> DeviceContext:
    """Start the runtime.

    ``device`` selects the simulated GPU by registry key (or spec), or
    ``None`` for a pure-host build.  Re-initializing replaces the previous
    context (unlike real Kokkos this is legal, because tests want it).
    """
    global _context
    gpu = get_gpu(device) if isinstance(device, str) else device
    _context = DeviceContext(gpu=gpu, cpu=cpu or SKYLAKE_NODE)
    return _context


def finalize() -> None:
    """Tear down the runtime."""
    global _context
    _context = None


def device_context() -> DeviceContext:
    """The active context; auto-initializes with the default device so small
    scripts and doctests need no boilerplate."""
    global _context
    if _context is None:
        _context = initialize()
    return _context
