"""KokkosP-style event registry: the pluggable observability surface.

The real Kokkos Tools (KokkosP) interface is a set of C callbacks the
runtime fires at every kernel dispatch, fence, deep copy and user region —
the event stream behind the paper's per-kernel timings (figures 2-7) and
the TestSNAP optimization loop in PAPERS.md.  This module is that surface
for the simulated runtime, narrowed to the callbacks an in-tree tool
consumes (KokkosP's begin, fence and allocation callbacks have no consumer
here):

* :class:`Tool` — the callback base class.  Subclasses override whichever
  callbacks they care about (``end_parallel_for|reduce|scan``,
  ``end_deep_copy``, ``push/pop_region``,
  ``profile_event``).
* :class:`ToolChain` — dispatches every event to all attached tools and
  owns the per-rank clocks and region stacks.
* Module-level emission helpers (``begin_kernel``/``end_kernel``/...) —
  what the instrumented runtime calls.  Every helper starts with an
  ``if not TOOLS:`` guard, so an uninstrumented run pays one falsy list
  check per event site and nothing else (the "near-zero cost when no tool
  is loaded" contract of KokkosP).

Two clocks run side by side:

* **simulated time** — one clock per simulated MPI rank, advanced by the
  seconds each event charged to the hardware ledgers (device timeline +
  comm ledger).  Per-rank clocks make multi-rank traces meaningful even
  though the ranks interleave inside one process.
* **wall time** — ``perf_counter`` relative to module import, for the
  interpreter-side cost of the functional layer.

This module deliberately imports nothing from the rest of ``repro`` so any
runtime layer (kokkos dispatch, comm, views) can import it without cycles.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Attached tools.  Emission sites guard with ``if registry.TOOLS:`` —
#: mutated in place so the identity check stays valid everywhere.
TOOLS: list["Tool"] = []


# --------------------------------------------------------------------- events
@dataclass
class KernelEvent:
    """One ``parallel_for``/``parallel_reduce``/``parallel_scan`` dispatch."""

    kind: str  #: "parallel_for" | "parallel_reduce" | "parallel_scan"
    name: str
    space: str  #: execution space name ("Host" / "Device")
    rank: int
    kid: int  #: unique dispatch id (KokkosP's kernel id)
    sim_us: float  #: simulated-clock timestamp at begin, microseconds
    wall_us: float
    #: filled in by the end event:
    sim_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: rank-clock timestamp right after the end charge — computed from the
    #: same accumulator as every later event's ``sim_us``, so consumers that
    #: order by timestamp (chrome trace) never see an ulp-level inversion
    #: that ``sim_us + sim_seconds * 1e6`` could produce.
    sim_end_us: float = 0.0
    profile: Any = None  #: resolved repro.hardware.cost.KernelProfile


@dataclass
class DeepCopyEvent:
    dst_space: str
    dst_label: str
    src_space: str
    src_label: str
    nbytes: int
    rank: int
    sim_us: float
    wall_us: float
    sim_seconds: float = 0.0
    sim_end_us: float = 0.0  #: see KernelEvent.sim_end_us


@dataclass
class RegionEvent:
    name: str
    rank: int
    depth: int  #: stack depth *after* push / *before* pop
    sim_us: float
    wall_us: float


@dataclass
class InstantEvent:
    """``profile_event``: a named instant, optionally charged with seconds.

    Communication instrumentation reports modeled message/collective costs
    this way; ``sim_seconds`` advances the emitting rank's simulated clock
    so comm time shows up between kernels on the rank's track.
    """

    name: str
    rank: int
    sim_us: float
    wall_us: float
    sim_seconds: float = 0.0
    metadata: dict = field(default_factory=dict)


# ----------------------------------------------------------------------- tool
class Tool:
    """Base observability tool: every callback is a no-op.

    Subclasses override what they need; ``finalize`` returns an optional
    human-readable report (printed by the CLI) and may write files.
    """

    name = "tool"

    # kernels
    def end_parallel_for(self, ev: KernelEvent) -> None: ...
    def end_parallel_reduce(self, ev: KernelEvent) -> None: ...
    def end_parallel_scan(self, ev: KernelEvent) -> None: ...

    # copies
    def end_deep_copy(self, ev: DeepCopyEvent) -> None: ...

    # regions / instants
    def push_region(self, ev: RegionEvent) -> None: ...
    def pop_region(self, ev: RegionEvent) -> None: ...
    def profile_event(self, ev: InstantEvent) -> None: ...

    def finalize(self) -> str | None:
        return None


# ------------------------------------------------------------------ toolchain
class ToolChain:
    """Dispatch state: attached tools, per-rank clocks, region stacks."""

    def __init__(self) -> None:
        self.tools = TOOLS  # module-level alias: empty list == disabled
        self.rank = 0
        self.clocks: dict[int, float] = {}  # rank -> simulated seconds
        self.region_stacks: dict[int, list[str]] = {}
        self.wall0 = time.perf_counter()
        self._next_id = 0
        self._open_kernels: dict[int, KernelEvent] = {}

    # ------------------------------------------------------------- plumbing
    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def sim_now(self, rank: int | None = None) -> float:
        """Simulated seconds elapsed on ``rank``'s clock."""
        return self.clocks.get(self.rank if rank is None else rank, 0.0)

    def wall_now(self) -> float:
        return time.perf_counter() - self.wall0

    def advance(self, seconds: float, rank: int | None = None) -> None:
        r = self.rank if rank is None else rank
        self.clocks[r] = self.clocks.get(r, 0.0) + seconds

    def stack(self, rank: int | None = None) -> list[str]:
        r = self.rank if rank is None else rank
        return self.region_stacks.setdefault(r, [])

    def dispatch(self, callback: str, ev) -> None:
        for tool in self.tools:
            getattr(tool, callback)(ev)

    def reset(self) -> None:
        """Forget clocks/stacks/ids (fresh session; tools stay attached)."""
        self.rank = 0
        self.clocks.clear()
        self.region_stacks.clear()
        self.wall0 = time.perf_counter()
        self._next_id = 0
        self._open_kernels.clear()


CHAIN = ToolChain()


# ------------------------------------------------------------- tool lifecycle
def attach(tool: Tool) -> Tool:
    """Attach a tool; events start flowing to it immediately."""
    TOOLS.append(tool)
    return tool


def detach(tool: Tool) -> None:
    if tool in TOOLS:
        TOOLS.remove(tool)


def finalize_all(detach_tools: bool = True) -> list[str]:
    """Finalize every attached tool; returns their non-empty reports."""
    reports: list[str] = []
    for tool in list(TOOLS):
        report = tool.finalize()
        if report:
            reports.append(report)
        if detach_tools:
            detach(tool)
    return reports


@contextlib.contextmanager
def attached(*tools: Tool) -> Iterator[tuple[Tool, ...]]:
    """Scoped attachment (tests): attach on entry, detach on exit.

    Finalization is left to the caller so reports can be inspected.
    """
    for t in tools:
        attach(t)
    try:
        yield tools
    finally:
        for t in tools:
            detach(t)


# ------------------------------------------------------------------ rank ctx
def set_rank(rank: int) -> None:
    """Declare which simulated rank subsequent events belong to."""
    CHAIN.rank = rank


# ------------------------------------------------------------------- kernels
_END = {
    "parallel_for": "end_parallel_for",
    "parallel_reduce": "end_parallel_reduce",
    "parallel_scan": "end_parallel_scan",
}


def begin_kernel(kind: str, name: str, space: str) -> int | None:
    """Open a dispatch's event; returns the kernel id for the end call."""
    if not TOOLS:
        return None
    ev = KernelEvent(
        kind=kind,
        name=name,
        space=space,
        rank=CHAIN.rank,
        kid=CHAIN.new_id(),
        sim_us=CHAIN.sim_now() * 1e6,
        wall_us=CHAIN.wall_now() * 1e6,
    )
    CHAIN._open_kernels[ev.kid] = ev
    return ev.kid


def end_kernel(kid: int | None, profile: Any, sim_seconds: float) -> None:
    """Fire ``end_parallel_*``: charge ``sim_seconds`` to the rank clock."""
    if kid is None or not TOOLS:
        return
    ev = CHAIN._open_kernels.pop(kid, None)
    if ev is None:
        return
    ev.profile = profile
    ev.sim_seconds = sim_seconds
    ev.wall_seconds = CHAIN.wall_now() - ev.wall_us * 1e-6
    CHAIN.advance(sim_seconds, ev.rank)
    ev.sim_end_us = CHAIN.sim_now(ev.rank) * 1e6
    CHAIN.dispatch(_END[ev.kind], ev)


# --------------------------------------------------------------- deep copies
def deep_copy(
    dst_space: str,
    dst_label: str,
    src_space: str,
    src_label: str,
    nbytes: int,
    sim_seconds: float,
) -> None:
    if not TOOLS:
        return
    ev = DeepCopyEvent(
        dst_space=dst_space,
        dst_label=dst_label,
        src_space=src_space,
        src_label=src_label,
        nbytes=int(nbytes),
        rank=CHAIN.rank,
        sim_us=CHAIN.sim_now() * 1e6,
        wall_us=CHAIN.wall_now() * 1e6,
        sim_seconds=sim_seconds,
    )
    CHAIN.advance(sim_seconds, ev.rank)
    ev.sim_end_us = CHAIN.sim_now(ev.rank) * 1e6
    CHAIN.dispatch("end_deep_copy", ev)


# ------------------------------------------------------------------- regions
def push_region(name: str) -> None:
    if not TOOLS:
        return
    stack = CHAIN.stack()
    stack.append(name)
    ev = RegionEvent(
        name=name,
        rank=CHAIN.rank,
        depth=len(stack),
        sim_us=CHAIN.sim_now() * 1e6,
        wall_us=CHAIN.wall_now() * 1e6,
    )
    CHAIN.dispatch("push_region", ev)


def pop_region() -> None:
    if not TOOLS:
        return
    stack = CHAIN.stack()
    if not stack:
        return  # tolerate tools attached mid-region
    name = stack.pop()
    ev = RegionEvent(
        name=name,
        rank=CHAIN.rank,
        depth=len(stack) + 1,
        sim_us=CHAIN.sim_now() * 1e6,
        wall_us=CHAIN.wall_now() * 1e6,
    )
    CHAIN.dispatch("pop_region", ev)


# ------------------------------------------------------------------ instants
def profile_event(name: str, sim_seconds: float = 0.0, **metadata) -> None:
    """A named instant; ``sim_seconds > 0`` also advances the rank clock.

    Communication instrumentation uses the charged form so modeled message
    and collective costs appear on the emitting rank's timeline between
    kernels.
    """
    if not TOOLS:
        return
    ev = InstantEvent(
        name=name,
        rank=CHAIN.rank,
        sim_us=CHAIN.sim_now() * 1e6,
        wall_us=CHAIN.wall_now() * 1e6,
        sim_seconds=sim_seconds,
        metadata=metadata,
    )
    if sim_seconds:
        CHAIN.advance(sim_seconds, ev.rank)
    CHAIN.dispatch("profile_event", ev)
