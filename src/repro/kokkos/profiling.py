"""Profiling conveniences over the device timeline.

The Kokkos Tools ecosystem exposes per-kernel regions; benchmarks here use
these helpers to snapshot, diff, and pretty-print the simulated-time ledger
(the analogue of the paper's Nsight Systems kernel timings in section 4.4).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from repro.kokkos.core import device_context


@dataclass
class TimelineSnapshot:
    """Totals captured at a point in time, for before/after diffs."""

    entries: dict[str, float]

    def delta(self) -> dict[str, float]:
        """Per-kernel seconds accumulated since this snapshot.

        A total below the snapshot means the device context (and its
        timeline) was reset in between: the accumulator restarted from zero,
        so the whole current total is fresh work, not negative progress.
        """
        now = device_context().timeline.entries
        out: dict[str, float] = {}
        for name, total in now.items():
            base = self.entries.get(name, 0.0)
            d = total - base if total >= base else total
            if d > 0.0:
                out[name] = d
        return out

    def delta_total(self) -> float:
        return sum(self.delta().values())


def snapshot() -> TimelineSnapshot:
    return TimelineSnapshot(dict(device_context().timeline.entries))


@contextlib.contextmanager
def region(out: dict[str, float], key: str = "seconds"):
    """Accumulate the simulated time of a code region into ``out[key]``."""
    snap = snapshot()
    try:
        yield
    finally:
        out[key] = out.get(key, 0.0) + snap.delta_total()


def kernel_report(top: int = 20) -> str:
    """Human-readable per-kernel ledger, most expensive first."""
    rows = device_context().timeline.breakdown()[:top]
    if not rows:
        return "(no kernels recorded)"
    width = max(len(name) for name, _, _ in rows)
    lines = [f"{'kernel':<{width}}  {'sim time (s)':>14}  {'launches':>8}"]
    for name, seconds, count in rows:
        lines.append(f"{name:<{width}}  {seconds:>14.6e}  {count:>8d}")
    return "\n".join(lines)
