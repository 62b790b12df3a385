"""Kernel-DAG capture from the dispatch stream.

The tools registry already observes every ``parallel_for/reduce/scan``
dispatch; this module turns one timestep's worth of that stream into a
recorded DAG.  A :class:`GraphCapture` is armed around a force
computation: the force path opens one :class:`KernelNode` per declared
stage, the kokkos dispatch layer attributes each dispatch (policy, cost
profile, simulated seconds) to the open node, and the View layer reports
read/write provenance so the fuser can *prove* two adjacent nodes touch
compatible data before composing them.

Import discipline: this module must stay stdlib-only.  It is imported by
``repro.kokkos.parallel`` and ``repro.kokkos.view`` at module level, so
any dependency back into ``repro.kokkos`` would cycle.

The hot-path guard mirrors ``kp.TOOLS``:
``CAPTURING`` is a plain list that is empty unless a capture is armed,
so uninstrumented dispatches pay a single falsy check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Falsy-guard stack of armed :class:`GraphCapture` objects.  Empty in
#: steady state; ``repro.kokkos.parallel`` and ``repro.kokkos.view``
#: check ``if capture.CAPTURING:`` before doing any capture work.
CAPTURING: list["GraphCapture"] = []


@dataclass
class KernelNode:
    """One captured dispatch in the per-step kernel DAG."""

    #: Stage name as declared by the force path (e.g. ``"rsq"``).
    name: str
    #: ``"for" | "reduce" | "scan"`` — which parallel pattern ran.
    kind: str = "for"
    #: Execution-space name the dispatch targeted.
    space: str = ""
    #: Policy parallelism (index-space size) observed at capture time.
    size: float = 0.0
    #: The policy object itself (held as ``Any``; replay re-dispatches
    #: the fused group against the head node's policy).
    policy: Any = None
    #: Resolved :class:`~repro.hardware.cost.KernelProfile` (held as
    #: ``Any`` to keep this module stdlib-only).
    profile: Any = None
    #: Simulated seconds charged by the cost model at capture time.
    seconds: float = 0.0
    #: View labels the stage declared it reads / writes.
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    #: View labels *observed* being read / written while the node was
    #: open (provenance from ``repro.kokkos.view``).  The fuser demotes
    #: a node to a barrier when ``observed_writes`` exceeds ``writes``.
    observed_reads: set[str] = field(default_factory=set)
    observed_writes: set[str] = field(default_factory=set)
    #: Elementwise over its index space (fusable) vs. barrier
    #: (ScatterView contribution, segmented reduction, tally, comm).
    elementwise: bool = False
    #: Opaque callable that re-executes the stage body against an
    #: environment dict (set by the force path, not by capture).
    fn: Any = None
    #: Stage metadata the replayer needs (index-space key, etc.).
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def fusable(self) -> bool:
        return self.elementwise and self.observed_writes <= set(self.writes)


class GraphCapture:
    """Records the kernel DAG for one timestep of a force path.

    Usage::

        cap = GraphCapture("PairLJCutKokkos")
        cap.arm()
        try:
            for stage in stages:
                node = cap.open_stage(stage_node)
                ...dispatch the stage...   # parallel.py attributes here
                cap.close_stage()
        finally:
            cap.disarm()
        nodes = cap.nodes
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.nodes: list[KernelNode] = []
        self._open: KernelNode | None = None

    # -- arming ---------------------------------------------------------
    def arm(self) -> None:
        CAPTURING.append(self)

    def disarm(self) -> None:
        if CAPTURING and CAPTURING[-1] is self:
            CAPTURING.pop()
        else:  # pragma: no cover - defensive; captures nest LIFO
            CAPTURING.remove(self)

    def __enter__(self) -> "GraphCapture":
        self.arm()
        return self

    def __exit__(self, *exc: object) -> None:
        self.disarm()

    # -- stage attribution ----------------------------------------------
    def open_stage(self, node: KernelNode) -> KernelNode:
        self._open = node
        self.nodes.append(node)
        return node

    def close_stage(self) -> None:
        self._open = None

    # -- hooks called from repro.kokkos ----------------------------------
    def on_dispatch(
        self,
        kind: str,
        name: str,
        policy: Any,
        space: str,
        size: float,
        profile: Any,
        seconds: float,
    ) -> None:
        """Attribute a charged dispatch to the open stage node.

        Dispatches observed with no stage open (e.g. scatter internals)
        are recorded as standalone barrier nodes so the DAG stays a
        faithful transcript of the step.
        """
        node = self._open
        if node is None:
            node = KernelNode(name=name, elementwise=False)
            self.nodes.append(node)
        node.kind = kind
        node.space = space
        node.size = size
        node.policy = policy
        node.profile = profile
        node.seconds = seconds

    def note_view_access(self, label: str, mode: str) -> None:
        """Record a View read (``mode='r'``) or write (``'w'``)."""
        node = self._open
        if node is None:
            return
        if mode == "w":
            node.observed_writes.add(label)
        else:
            node.observed_reads.add(label)
