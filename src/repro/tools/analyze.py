"""Offline trace analytics over the chrome-trace event stream.

``python -m repro --analyze-trace trace.json`` loads a trace written by the
:class:`~repro.tools.chrome_trace.ChromeTrace` tool and computes the
numbers a perf engineer reads a multi-rank timeline for:

* **multi-rank critical path** — ranks synchronize at every collective
  (the ``comm:allreduce`` instants the rebuild check emits each step);
  between consecutive sync points the slowest rank bounds progress.  The
  critical path is the sum over sync segments of the per-segment maximum,
  with a per-rank tally of how often each rank was the one everybody else
  waited for.
* **per-rank load imbalance** — LAMMPS-style: ``(max/avg - 1) * 100`` over
  the per-rank accounted time (top-level region durations).
* **top-N kernels by exclusive time** — kernels never nest in this
  runtime, so exclusive == inclusive per B/E pair.

All times are the trace's own clock (simulated microseconds per rank).
The analyzer is deliberately decoupled from the live registry: it reads
any structurally valid chrome trace, including ones from old runs or CI
artifacts.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field

#: regions whose top-level time counts as communication
COMM_REGIONS = ("Comm",)
#: the sync-point instant name (every step's collective rebuild check)
SYNC_EVENT = "comm:allreduce"


@dataclass
class RankTimeline:
    """Everything the analyzer extracted from one rank's track."""

    rank: int
    first_ts: float = 0.0
    last_ts: float = 0.0
    #: name -> total us inside top-level regions of that name
    category_us: dict[str, float] = field(default_factory=dict)
    #: kernel name -> [count, total us]
    kernels: dict[str, list] = field(default_factory=dict)
    #: timestamps of sync-point instants, in order
    sync_ts: list[float] = field(default_factory=list)

    @property
    def accounted_us(self) -> float:
        return sum(self.category_us.values())

    @property
    def comm_us(self) -> float:
        return sum(self.category_us.get(c, 0.0) for c in COMM_REGIONS)

    @property
    def compute_us(self) -> float:
        return self.accounted_us - self.comm_us


def load_trace(path: str) -> list[dict]:
    with open(path) as fh:
        payload = json.load(fh)
    events = payload.get("traceEvents") if isinstance(payload, dict) else payload
    if not isinstance(events, list):
        raise ValueError(f"{path}: not a chrome trace (no traceEvents array)")
    return events


def _extract(events: list[dict]) -> dict[int, RankTimeline]:
    """One pass over the sorted event stream, building per-rank timelines."""
    ranks: dict[int, RankTimeline] = {}
    region_stacks: dict[int, list[tuple[str, float]]] = defaultdict(list)
    kernel_opens: dict[int, list[tuple[str, float]]] = defaultdict(list)
    for ev in events:
        ph = ev.get("ph")
        if ph == "M":
            continue
        tid = ev.get("tid", 0)
        tl = ranks.get(tid)
        if tl is None:
            tl = ranks[tid] = RankTimeline(rank=tid, first_ts=ev["ts"])
        ts = ev["ts"]
        tl.last_ts = max(tl.last_ts, ts)
        cat = ev.get("cat")
        name = ev.get("name", "")
        if ph == "B":
            if cat == "kernel":
                kernel_opens[tid].append((name, ts))
            else:
                region_stacks[tid].append((name, ts))
        elif ph == "E":
            if cat == "kernel":
                if kernel_opens[tid] and kernel_opens[tid][-1][0] == name:
                    _, t0 = kernel_opens[tid].pop()
                    row = tl.kernels.setdefault(name, [0, 0.0])
                    row[0] += 1
                    row[1] += ts - t0
            else:
                if not region_stacks[tid]:
                    continue  # tolerate truncated traces
                open_name, t0 = region_stacks[tid].pop()
                if open_name != name:
                    continue
                if not region_stacks[tid]:  # top-level region closed
                    tl.category_us[name] = tl.category_us.get(name, 0.0) + ts - t0
        elif ph == "i" and name == SYNC_EVENT:
            tl.sync_ts.append(ts)
    return ranks


def _critical_path(ranks: dict[int, RankTimeline]) -> dict:
    """Segment the run at the k-th sync point of every rank; sum the maxima.

    Ranks reach the same collective at different local clock readings; the
    k-th ``comm:allreduce`` on each track is the same collective, so the
    segment between sync k-1 and sync k costs ``max over ranks`` of the
    per-rank segment time.  The tail after the last common sync is charged
    the same way.
    """
    ids = sorted(ranks)
    nsync = min((len(ranks[r].sync_ts) for r in ids), default=0)
    cursors = {r: ranks[r].first_ts for r in ids}
    total = 0.0
    dominated = {r: 0 for r in ids}
    segments = 0
    for k in range(nsync):
        seg = {r: ranks[r].sync_ts[k] - cursors[r] for r in ids}
        worst = max(ids, key=lambda r: seg[r])
        total += seg[worst]
        dominated[worst] += 1
        segments += 1
        cursors = {r: ranks[r].sync_ts[k] for r in ids}
    tail = {r: ranks[r].last_ts - cursors[r] for r in ids}
    if any(t > 0 for t in tail.values()):
        worst = max(ids, key=lambda r: tail[r])
        total += tail[worst]
        dominated[worst] += 1
        segments += 1
    slowest_rank_us = max((ranks[r].last_ts - ranks[r].first_ts for r in ids),
                          default=0.0)
    return {
        "critical_path_us": total,
        "sync_points": nsync,
        "segments": segments,
        "dominant_segments_per_rank": {str(r): dominated[r] for r in ids},
        # how much longer the stall-aware path is than the single slowest
        # rank's span: 1.0 = one rank dominates end to end, higher = the
        # bottleneck migrates between ranks (worse than any one rank's span)
        "stretch_vs_slowest_rank": (
            total / slowest_rank_us if slowest_rank_us > 0 else 1.0
        ),
    }


def analyze(events: list[dict], top: int = 10) -> dict:
    """Full analysis of a chrome-trace event list; returns a JSON-able dict."""
    events = sorted(
        (e for e in events if e.get("ph") != "M"), key=lambda e: e.get("ts", -1.0)
    )
    ranks = _extract(events)
    if not ranks:
        raise ValueError("trace contains no events on any track")

    per_rank = {}
    busy = []
    for r in sorted(ranks):
        tl = ranks[r]
        per_rank[str(r)] = {
            "span_us": tl.last_ts - tl.first_ts,
            "accounted_us": tl.accounted_us,
            "comm_us": tl.comm_us,
            "compute_us": tl.compute_us,
            "categories_us": dict(sorted(tl.category_us.items())),
        }
        busy.append(tl.accounted_us)

    avg_busy = sum(busy) / len(busy)
    max_busy = max(busy)
    imbalance_pct = (max_busy / avg_busy - 1.0) * 100.0 if avg_busy > 0 else 0.0

    # ---- kernels: merge across ranks, rank by total (exclusive) time
    merged: dict[str, list] = {}
    for tl in ranks.values():
        for name, (count, us) in tl.kernels.items():
            row = merged.setdefault(name, [0, 0.0])
            row[0] += count
            row[1] += us
    kernel_rows = [
        {
            "kernel": name,
            "count": count,
            "total_us": us,
            "mean_us": us / count if count else 0.0,
        }
        for name, (count, us) in merged.items()
    ]
    kernel_rows.sort(key=lambda row: -row["total_us"])

    return {
        "ranks": per_rank,
        "nranks": len(ranks),
        "load_imbalance_pct": imbalance_pct,
        "critical_path": _critical_path(ranks),
        "top_kernels": kernel_rows[:top],
        "total_kernels": len(kernel_rows),
        "total_dispatches": sum(row[0] for row in merged.values()),
    }


def analyze_file(path: str, top: int = 10) -> dict:
    return analyze(load_trace(path), top=top)


# ----------------------------------------------------------------- reporting
def format_report(a: dict) -> str:
    lines = ["=" * 72, "trace analytics", "=" * 72]
    cp = a["critical_path"]
    lines.append(
        f"ranks: {a['nranks']}   load imbalance: {a['load_imbalance_pct']:.2f}%"
    )
    lines.append(
        f"critical path: {cp['critical_path_us']:.3f} us over "
        f"{cp['segments']} segment(s) ({cp['sync_points']} sync points), "
        f"stretch vs slowest rank {cp['stretch_vs_slowest_rank']:.3f}x"
    )
    dom = cp["dominant_segments_per_rank"]
    if len(dom) > 1:
        parts = ", ".join(f"rank {r}: {n}" for r, n in sorted(dom.items()))
        lines.append(f"  segments dominated by {parts}")
    lines.append("-" * 72)
    lines.append(
        f"{'kernel':<36} {'count':>7} {'total us':>12} {'mean us':>10}"
    )
    for row in a["top_kernels"]:
        lines.append(
            f"{row['kernel']:<36} {row['count']:>7d} "
            f"{row['total_us']:>12.3f} {row['mean_us']:>10.3f}"
        )
    lines.append("-" * 72)
    for r, row in sorted(a["ranks"].items(), key=lambda kv: int(kv[0])):
        cats = " ".join(
            f"{name}={us:.1f}" for name, us in row["categories_us"].items()
        )
        lines.append(
            f"rank {r}: span {row['span_us']:.3f} us, accounted "
            f"{row['accounted_us']:.3f} us  [{cats}]"
        )
    return "\n".join(lines)
