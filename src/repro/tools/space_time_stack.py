"""Hierarchical region/kernel time tree (Kokkos Tools' space-time-stack).

Builds one tree per simulated rank out of the region push/pop stream, with
kernels, deep copies and charged comm instants hanging under the
innermost open region.  At finalize it prints the tree sorted by simulated
time, with both the simulated-hardware seconds (what the cost model
charged) and wall seconds (what the functional layer actually took), plus
per-top-level-category totals — the numbers the reconciliation test holds
against the thermo timing breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tools.registry import (
    DeepCopyEvent,
    InstantEvent,
    KernelEvent,
    RegionEvent,
    Tool,
)


@dataclass
class StackNode:
    """One tree node: a region, kernel, deep copy, or comm aggregate."""

    name: str
    kind: str  #: "region" | "kernel" | "deep_copy" | "event"
    sim_seconds: float = 0.0
    wall_seconds: float = 0.0
    count: int = 0
    children: dict[tuple[str, str], "StackNode"] = field(default_factory=dict)

    def child(self, name: str, kind: str) -> "StackNode":
        key = (name, kind)
        node = self.children.get(key)
        if node is None:
            node = self.children[key] = StackNode(name=name, kind=kind)
        return node

    def subtree_sim(self) -> float:
        return self.sim_seconds + sum(
            c.subtree_sim() for c in self.children.values()
        )

    def subtree_wall(self) -> float:
        # region nodes carry inclusive wall time already; leaves carry their
        # own, so only sum children for non-region aggregates
        if self.kind == "region":
            return self.wall_seconds
        return self.wall_seconds + sum(
            c.subtree_wall() for c in self.children.values()
        )


class SpaceTimeStack(Tool):
    """Region/kernel tree over simulated and wall time, per rank."""

    name = "space-time-stack"

    def __init__(self, max_depth: int = 12) -> None:
        self.max_depth = max_depth
        self.roots: dict[int, StackNode] = {}
        self._stacks: dict[int, list[StackNode]] = {}
        self._region_wall0: dict[int, list[float]] = {}

    # ------------------------------------------------------------ plumbing
    def _top(self, rank: int) -> StackNode:
        stack = self._stacks.get(rank)
        if stack:
            return stack[-1]
        root = self.roots.get(rank)
        if root is None:
            root = self.roots[rank] = StackNode(name=f"rank {rank}", kind="region")
        return root

    # ------------------------------------------------------------- regions
    def push_region(self, ev: RegionEvent) -> None:
        node = self._top(ev.rank).child(ev.name, "region")
        self._stacks.setdefault(ev.rank, []).append(node)
        self._region_wall0.setdefault(ev.rank, []).append(ev.wall_us)

    def pop_region(self, ev: RegionEvent) -> None:
        stack = self._stacks.get(ev.rank)
        if not stack:
            return
        node = stack.pop()
        node.count += 1
        wall0 = self._region_wall0[ev.rank].pop()
        node.wall_seconds += (ev.wall_us - wall0) * 1e-6

    # ------------------------------------------------------------- kernels
    def _end_kernel(self, ev: KernelEvent) -> None:
        node = self._top(ev.rank).child(ev.name, "kernel")
        node.sim_seconds += ev.sim_seconds
        node.wall_seconds += ev.wall_seconds
        node.count += 1

    end_parallel_for = _end_kernel
    end_parallel_reduce = _end_kernel
    end_parallel_scan = _end_kernel

    # -------------------------------------------------------------- copies
    def end_deep_copy(self, ev: DeepCopyEvent) -> None:
        name = f"deep_copy {ev.src_space}->{ev.dst_space} {ev.dst_label}"
        node = self._top(ev.rank).child(name, "deep_copy")
        node.sim_seconds += ev.sim_seconds
        node.count += 1

    def profile_event(self, ev: InstantEvent) -> None:
        node = self._top(ev.rank).child(ev.name, "event")
        node.sim_seconds += ev.sim_seconds
        node.count += 1

    # ------------------------------------------------------------- queries
    def category_totals(self, rank: int | None = None) -> dict[str, float]:
        """Simulated seconds per top-level region, summed over ranks.

        Top-level regions are the run-loop phase annotations
        (Pair/Neigh/Comm/Modify/Output/...), so this is directly comparable
        to the thermo timing breakdown.
        """
        totals: dict[str, float] = {}
        ranks = [rank] if rank is not None else list(self.roots)
        for r in ranks:
            root = self.roots.get(r)
            if root is None:
                continue
            for node in root.children.values():
                totals[node.name] = totals.get(node.name, 0.0) + node.subtree_sim()
        return totals

    def total_sim(self) -> float:
        return sum(root.subtree_sim() for root in self.roots.values())

    # -------------------------------------------------------------- report
    def finalize(self) -> str:
        lines = ["", "=" * 72, "space-time-stack (simulated s | wall s | launches)", "=" * 72]
        total = self.total_sim() or 1.0
        for rank in sorted(self.roots):
            root = self.roots[rank]
            lines.append(f"rank {rank}: {root.subtree_sim():.6e} s simulated")
            self._format(root, lines, depth=1, total=total)
        lines.append("-" * 72)
        for name, seconds in sorted(
            self.category_totals().items(), key=lambda kv: -kv[1]
        ):
            lines.append(
                f"  {name:<10} {seconds:>12.6e} s  ({100.0 * seconds / total:5.1f}%)"
            )
        return "\n".join(lines)

    def _format(
        self, node: StackNode, lines: list[str], depth: int, total: float
    ) -> None:
        if depth > self.max_depth:
            return
        children = sorted(node.children.values(), key=lambda c: -c.subtree_sim())
        for child in children:
            sim = child.subtree_sim()
            pct = 100.0 * sim / total
            tag = {"region": "", "kernel": " [kernel]", "deep_copy": " [copy]",
                   "event": " [event]"}[child.kind]
            lines.append(
                f"{'|  ' * (depth - 1)}|-> {sim:.3e} s {pct:5.1f}% "
                f"{child.name}{tag} ({child.subtree_wall():.3e} s wall, "
                f"{child.count}x)"
            )
            self._format(child, lines, depth + 1, total)
