"""Fused-plan construction, replay, and per-rebuild plan caching.

A :class:`GraphPlan` is the product of capture + fusion: an ordered list
of :class:`~repro.graph.fuse.FusedGroup` dispatches plus the environment
dict the stage bodies read and write.  Replaying a plan issues **one**
charged dispatch per group, whose functor runs the group's stage bodies
back-to-back — the fused composite profile for elementwise chains, the
captured profile for barriers — so the cost model, the tools registry,
and the chrome trace all see the fused kernel stream.

The :class:`PlanCache` applies the same lifetime discipline as the
``PairCache``: a plan is keyed by a *base key* (which force path) and a
*variant key* (mode-registry switches + the neighbor list's
:attr:`~repro.core.neighbor.NeighborList.generation` stamp).
Each base slot holds exactly one plan; a variant mismatch — neighbor
rebuild, ``set_scatter_mode`` flip, stencil change — replaces it, which
*is* the invalidation (counted as a miss).

Graph execution is opt-in via the mode registry (``set_graph_mode``),
and the hot-path guard is the usual falsy list: ``GRAPH`` is empty
unless graph mode is on, so force paths pay one list check.

Import discipline: ``repro.kokkos`` is imported lazily inside
:meth:`GraphPlan.replay` — this module initialises as part of
``repro.graph``, which ``repro.kokkos.parallel`` imports.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterator

from repro.tools import registry as kp

from .capture import KernelNode
from .fuse import FusedGroup, fuse

#: Graph-execution modes.
ON = "on"  # capture/fuse/replay the force paths that declare stages
OFF = "off"  # eager dispatch (the default)

_MODES = (ON, OFF)

#: Global override installed by :func:`set_graph_mode` (None = default off).
_forced_mode: str | None = None


@dataclass
class GraphPlan:
    """A fused, replayable kernel stream for one force path."""

    label: str
    groups: list[FusedGroup]
    #: Environment the stage bodies operate on.  Callers rebind the
    #: per-step inputs (positions, force array, ...) before each replay.
    env: dict[str, Any] = field(default_factory=dict)

    @property
    def fused_node_count(self) -> int:
        """Member dispatches folded into fused (multi-node) groups."""
        return sum(len(g.nodes) for g in self.groups if g.fused)

    @property
    def launches(self) -> int:
        return len(self.groups)

    @property
    def captured_launches(self) -> int:
        return sum(len(g.nodes) for g in self.groups)

    @property
    def saved_intermediate_bytes(self) -> float:
        return sum(g.saved_intermediate_bytes for g in self.groups)

    def replay(self, updates: dict[str, Any] | None = None) -> dict[str, Any]:
        """Run the plan: one dispatch per group, whose functor runs the
        group's stage bodies back-to-back."""
        import repro.kokkos as kk  # lazy: avoids an import cycle

        env = self.env
        if updates:
            env.update(updates)
        for group in self.groups:

            def body(idx=None, nodes=group.nodes) -> None:
                for node in nodes:
                    if node.fn is not None:
                        node.fn(env)

            policy = group.nodes[0].policy
            if policy is None:
                body()
            else:
                kk.parallel_for(group.name, policy, body, profile=group.profile)
        return env


def build_plan(
    label: str, nodes: list[KernelNode], env: dict[str, Any] | None = None
) -> GraphPlan:
    """Fuse a captured node list into a replayable plan."""
    return GraphPlan(label=label, groups=fuse(nodes), env=env if env is not None else {})


class PlanCache:
    """One plan per force-path slot, replaced on variant drift."""

    def __init__(self) -> None:
        self.plans: dict[Hashable, tuple[Hashable, GraphPlan]] = {}
        self.hits = 0
        self.misses = 0
        self.fused_nodes = 0

    def lookup(self, base_key: Hashable, variant_key: Hashable) -> GraphPlan | None:
        entry = self.plans.get(base_key)
        if entry is not None and entry[0] == variant_key:
            self.hits += 1
            return entry[1]
        self.misses += 1
        return None

    def store(self, base_key: Hashable, variant_key: Hashable, plan: GraphPlan) -> None:
        self.plans[base_key] = (variant_key, plan)
        self.fused_nodes += plan.fused_node_count
        if kp.TOOLS:
            kp.profile_event(
                "graph:plan_captured",
                plan=plan.label,
                groups=plan.launches,
                captured=plan.captured_launches,
                fused_nodes=plan.fused_node_count,
                saved_bytes=plan.saved_intermediate_bytes,
            )

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fused_nodes": self.fused_nodes,
            "plans": len(self.plans),
        }


#: The process-wide plan cache (counters survive mode toggles).
_CACHE = PlanCache()

#: Falsy hot-path guard: holds the plan cache iff graph mode is on.
#: Force paths check ``if graph.GRAPH:`` before any graph work.
GRAPH: list[PlanCache] = []


def plan_cache() -> PlanCache:
    """The process-wide fused-plan cache (for benches and tests)."""
    return _CACHE


def graph_mode() -> str:
    """Effective graph-execution mode (default off)."""
    return _forced_mode if _forced_mode is not None else OFF


def set_graph_mode(mode: str | None) -> str | None:
    """Install (or clear, with None) the graph mode; return the old override.

    Unknown names fail here with a did-you-mean hint, matching the other
    mode setters.  Turning graph execution off drops cached plans (the
    counters persist); turning it on starts from an empty cache.
    """
    global _forced_mode
    if mode is not None and mode not in _MODES:
        from repro.core.errors import unknown_choice

        raise ValueError(unknown_choice("graph mode", mode, _MODES))
    prev = _forced_mode
    _forced_mode = mode
    if graph_mode() == ON:
        if not GRAPH:
            GRAPH.append(_CACHE)
    else:
        if GRAPH:
            GRAPH.clear()
        _CACHE.plans.clear()
    return prev


@contextmanager
def force_graph_mode(mode: str | None) -> Iterator[None]:
    """Pin the graph mode (None restores the default, off)."""
    prev = set_graph_mode(mode)
    try:
        yield
    finally:
        set_graph_mode(prev)
