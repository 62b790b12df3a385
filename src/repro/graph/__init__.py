"""Kernel-graph capture, elementwise fusion, and per-rebuild plan caching.

Lifecycle (see README "Kernel graphs"):

1. **Capture** — with graph mode on and no cached plan, a force path arms
   a :class:`~repro.graph.capture.GraphCapture` and dispatches its
   declared stages one at a time; the kokkos dispatch layer and the View
   layer attribute policies, cost profiles, and read/write provenance to
   the open node.
2. **Fuse** — :func:`~repro.graph.fuse.fuse` composes maximal runs of
   adjacent elementwise nodes over the same index space into single
   dispatches; ScatterView contributions, segmented reductions, tallies,
   and nodes caught writing undeclared Views are fusion barriers.
3. **Replay** — the cached :class:`~repro.graph.plan.GraphPlan` re-runs
   with zero re-capture cost until its variant key (mode switches + the
   neighbor list's ``generation`` stamp) drifts — the ``PairCache``
   lifetime discipline.

Import discipline: this package initialises from ``repro.kokkos.parallel``
and ``repro.kokkos.view``, so nothing imported here (``capture`` is
stdlib-only; ``fuse``/``plan`` reach only ``repro.hardware.cost`` and
``repro.tools``) may import ``repro.kokkos`` at module level.  The Stage
list of the pairwise force pass and its executors (of which graph
capture/replay is one) live in :mod:`repro.graph.pairwise`, which imports
``repro.kokkos`` freely and is therefore *not* re-exported here.
"""

from .capture import CAPTURING, GraphCapture, KernelNode
from .fuse import FusedGroup, fuse
from .plan import (
    GRAPH,
    OFF,
    ON,
    GraphPlan,
    PlanCache,
    build_plan,
    force_graph_mode,
    graph_mode,
    plan_cache,
    set_graph_mode,
)

__all__ = [
    "CAPTURING",
    "GraphCapture",
    "KernelNode",
    "FusedGroup",
    "fuse",
    "GRAPH",
    "ON",
    "OFF",
    "GraphPlan",
    "PlanCache",
    "build_plan",
    "force_graph_mode",
    "graph_mode",
    "plan_cache",
    "set_graph_mode",
]
