"""chrome://tracing JSON export (Kokkos Tools' chrome-tracing connector).

One trace track per simulated MPI rank (pid 0, tid = rank), timestamped on
the rank's *simulated* clock in microseconds, so the timeline shows what
the modeled exascale hardware would see rather than interpreter overhead:

* regions and kernels  -> ``B``/``E`` duration pairs;
* deep copies          -> an ``i`` instant plus an ``s``/``f`` flow pair
  spanning the transfer, so the copy draws an arrow across the track;
* charged comm instants -> ``i`` instant events with byte counts in args.

Load the output at ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json

from repro.tools.registry import (
    DeepCopyEvent,
    InstantEvent,
    KernelEvent,
    RegionEvent,
    Tool,
)

PID = 0


class ChromeTrace(Tool):
    """Accumulates trace events; writes the JSON file at finalize."""

    name = "chrome-trace"

    def __init__(self, out: str = "trace.json") -> None:
        self.out = out
        self.events: list[dict] = [
            {
                "ph": "M",
                "pid": PID,
                "name": "process_name",
                "args": {"name": "repro simulated run"},
            }
        ]
        self._known_ranks: set[int] = set()
        self._open_regions: dict[int, list[tuple[str, float]]] = {}

    # ------------------------------------------------------------ plumbing
    def _track(self, rank: int) -> int:
        if rank not in self._known_ranks:
            self._known_ranks.add(rank)
            self.events.append(
                {
                    "ph": "M",
                    "pid": PID,
                    "tid": rank,
                    "name": "thread_name",
                    "args": {"name": f"rank {rank}"},
                }
            )
        return rank

    def _emit(self, ph: str, name: str, rank: int, ts: float, **extra) -> None:
        ev = {"ph": ph, "pid": PID, "tid": self._track(rank), "ts": ts, "name": name}
        ev.update(extra)
        self.events.append(ev)

    # ------------------------------------------------------------- regions
    def push_region(self, ev: RegionEvent) -> None:
        self._emit("B", ev.name, ev.rank, ev.sim_us, cat="region")
        self._open_regions.setdefault(ev.rank, []).append((ev.name, ev.sim_us))

    def pop_region(self, ev: RegionEvent) -> None:
        open_ = self._open_regions.get(ev.rank)
        if open_:
            open_.pop()
        self._emit("E", ev.name, ev.rank, ev.sim_us, cat="region")

    # ------------------------------------------------------------- kernels
    def _end_kernel(self, ev: KernelEvent) -> None:
        args = {"space": ev.space, "kind": ev.kind, "kid": ev.kid}
        if ev.profile is not None:
            args["flops"] = getattr(ev.profile, "flops", 0.0)
            args["bytes"] = getattr(ev.profile, "bytes_streamed", 0.0) + getattr(
                ev.profile, "bytes_reusable", 0.0
            )
        self._emit("B", ev.name, ev.rank, ev.sim_us, cat="kernel", args=args)
        self._emit("E", ev.name, ev.rank, ev.sim_end_us, cat="kernel")

    end_parallel_for = _end_kernel
    end_parallel_reduce = _end_kernel
    end_parallel_scan = _end_kernel

    # -------------------------------------------------------------- copies
    def end_deep_copy(self, ev: DeepCopyEvent) -> None:
        name = f"deep_copy {ev.src_space}->{ev.dst_space}"
        args = {
            "src": f"{ev.src_space}:{ev.src_label}",
            "dst": f"{ev.dst_space}:{ev.dst_label}",
            "bytes": ev.nbytes,
        }
        self._emit("i", name, ev.rank, ev.sim_us, cat="deep_copy", s="t", args=args)
        # flow arrow spanning the transfer on the rank's own track
        fid = f"copy-{len(self.events)}"
        self._emit("s", name, ev.rank, ev.sim_us, cat="deep_copy", id=fid)
        self._emit(
            "f", name, ev.rank, ev.sim_end_us, cat="deep_copy", id=fid, bp="e"
        )

    def profile_event(self, ev: InstantEvent) -> None:
        self._emit(
            "i",
            ev.name,
            ev.rank,
            ev.sim_us,
            cat="instant",
            s="t",
            args=dict(ev.metadata),
        )

    # --------------------------------------------------------------- output
    def finalize(self) -> str:
        from repro.tools.registry import CHAIN

        # close any region still open (tools detached mid-region): every B
        # must have a matching E for the trace to validate
        for rank, open_ in self._open_regions.items():
            now = CHAIN.sim_now(rank) * 1e6
            for name, _ts in reversed(open_):
                self._emit("E", name, rank, now, cat="region")
            open_.clear()
        # Kernel B/E pairs are emitted at the *end* callback (their duration
        # isn't known at begin), so the array interleaves out of timestamp
        # order with live-emitted instants.  A stable sort restores
        # monotonic per-track timestamps; ties keep emission order, which is
        # program order, so nesting (B-before-E at equal ts) is preserved.
        self.events.sort(key=lambda e: e.get("ts", -1.0))
        payload = {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": {"clock": "simulated microseconds per rank"},
        }
        with open(self.out, "w") as fh:
            json.dump(payload, fh)
        return f"chrome trace: {self.out} ({len(self.events)} events)"
