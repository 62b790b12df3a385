"""Measured-performance metrics core: counters, gauges, histograms.

The KokkosP-style registry (:mod:`repro.tools.registry`) charges *modeled*
simulated-clock time to every dispatch; this module records *measured*
wall-clock data keyed by kernel:

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — labelled metric
  families collected in a :class:`MetricsRegistry`, exported as Prometheus
  text format (:meth:`MetricsRegistry.to_prometheus`) or JSONL
  (:meth:`MetricsRegistry.to_jsonl`).
* :class:`MetricsTool` — a registry :class:`~repro.tools.registry.Tool`
  that turns the begin/end event stream into per-kernel dispatch counters,
  modeled-seconds counters, and **wall-clock** histograms, so every
  dispatch, fence, deep copy, and comm instant records both modeled and
  real ``perf_counter`` time.

The registry's event stream is the only input: no runtime module emits
into this one, and attaching the tool is the only way to record.

Like the registry, this module imports nothing from the rest of ``repro``
so any runtime layer can import it without cycles.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from repro.tools.registry import (
    DeepCopyEvent,
    FenceEvent,
    InstantEvent,
    KernelEvent,
    MemoryEvent,
    Tool,
)

#: default wall-clock histogram buckets, seconds (log-spaced 1 us .. 10 s)
WALL_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


# ------------------------------------------------------------------ families
@dataclass
class Counter:
    """Monotonically increasing sum per label set."""

    name: str
    help: str = ""
    values: dict[tuple, float] = field(default_factory=dict)

    kind = "counter"

    def inc(self, value: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        self.values[key] = self.values.get(key, 0.0) + value

    def get(self, **labels) -> float:
        return self.values.get(_label_key(labels), 0.0)


@dataclass
class Gauge:
    """Last-write-wins value per label set."""

    name: str
    help: str = ""
    values: dict[tuple, float] = field(default_factory=dict)

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self.values[_label_key(labels)] = float(value)

    def get(self, **labels) -> float:
        return self.values.get(_label_key(labels), 0.0)


@dataclass
class HistogramSeries:
    """One label set's observations: bucket counts + sum + count + min/max."""

    bucket_counts: list[int]
    total: float = 0.0
    count: int = 0
    vmin: float = math.inf
    vmax: float = -math.inf

    def observe(self, value: float, buckets: tuple[float, ...]) -> None:
        for i, bound in enumerate(buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        else:
            self.bucket_counts[-1] += 1  # +Inf bucket
        self.total += value
        self.count += 1
        self.vmin = min(self.vmin, value)
        self.vmax = max(self.vmax, value)


@dataclass
class Histogram:
    """Bucketed observations per label set (Prometheus cumulative export)."""

    name: str
    help: str = ""
    buckets: tuple[float, ...] = WALL_BUCKETS
    values: dict[tuple, HistogramSeries] = field(default_factory=dict)

    kind = "histogram"

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        series = self.values.get(key)
        if series is None:
            # one extra slot is the +Inf bucket
            series = self.values[key] = HistogramSeries(
                bucket_counts=[0] * (len(self.buckets) + 1)
            )
        series.observe(value, self.buckets)

    def series(self, **labels) -> HistogramSeries | None:
        return self.values.get(_label_key(labels))


# ------------------------------------------------------------------ registry
class MetricsRegistry:
    """A namespace of metric families with exporters."""

    def __init__(self) -> None:
        self.families: dict[str, Counter | Gauge | Histogram] = {}

    # ----------------------------------------------------------- factories
    def _family(self, cls, name: str, help: str, **kw):
        fam = self.families.get(name)
        if fam is None:
            fam = self.families[name] = cls(name=name, help=help, **kw)
        elif not isinstance(fam, cls):
            raise TypeError(
                f"metric {name!r} already registered as {fam.kind}, "
                f"not {cls.kind}"
            )
        return fam

    def counter(self, name: str, help: str = "") -> Counter:
        return self._family(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._family(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = WALL_BUCKETS
    ) -> Histogram:
        return self._family(Histogram, name, help, buckets=buckets)

    # ----------------------------------------------------------- exporters
    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: list[str] = []
        for name in sorted(self.families):
            fam = self.families[name]
            if fam.help:
                lines.append(f"# HELP {name} {fam.help}")
            lines.append(f"# TYPE {name} {fam.kind}")
            if isinstance(fam, Histogram):
                for key, series in sorted(fam.values.items()):
                    cum = 0
                    for bound, n in zip(
                        list(fam.buckets) + ["+Inf"], series.bucket_counts
                    ):
                        cum += n
                        le = bound if bound == "+Inf" else repr(bound)
                        lines.append(
                            f"{name}_bucket{_prom_labels(key, le=le)} {cum}"
                        )
                    lines.append(f"{name}_sum{_prom_labels(key)} {series.total}")
                    lines.append(f"{name}_count{_prom_labels(key)} {series.count}")
            else:
                for key, value in sorted(fam.values.items()):
                    lines.append(f"{name}{_prom_labels(key)} {value}")
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        """One JSON object per sample (counters/gauges) or series (histograms)."""
        out: list[str] = []
        for name in sorted(self.families):
            fam = self.families[name]
            if isinstance(fam, Histogram):
                for key, series in sorted(fam.values.items()):
                    out.append(json.dumps({
                        "name": name,
                        "type": fam.kind,
                        "labels": dict(key),
                        "count": series.count,
                        "sum": series.total,
                        "min": None if series.count == 0 else series.vmin,
                        "max": None if series.count == 0 else series.vmax,
                        "buckets": {
                            repr(b): n
                            for b, n in zip(fam.buckets, series.bucket_counts)
                        },
                        "overflow": series.bucket_counts[-1],
                    }))
            else:
                for key, value in sorted(fam.values.items()):
                    out.append(json.dumps({
                        "name": name,
                        "type": fam.kind,
                        "labels": dict(key),
                        "value": value,
                    }))
        return "\n".join(out) + ("\n" if out else "")


def _prom_labels(key: tuple, **extra) -> str:
    items = list(key) + sorted(extra.items())
    if not items:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in items)
    return "{" + body + "}"


# ----------------------------------------------------------------- the tool
class MetricsTool(Tool):
    """Bridge the KokkosP event stream into a :class:`MetricsRegistry`.

    Every dispatch records a ``kernel_dispatch_total`` count, a
    ``kernel_sim_seconds_total`` modeled-time counter, and a
    ``kernel_wall_seconds`` wall-clock histogram — both clocks, per kernel.
    Deep copies, fences, allocations, and charged comm instants land in
    their own families.  At finalize the registry is written as
    ``metrics.prom`` + ``metrics.jsonl`` under ``out`` (when given).
    """

    name = "metrics"

    #: filenames written under the output directory
    PROM_FILE = "metrics.prom"
    JSONL_FILE = "metrics.jsonl"

    def __init__(
        self,
        out: str | None = None,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.out = out
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self.dispatches = r.counter(
            "kernel_dispatch_total", "parallel_* dispatches by kernel"
        )
        self.sim_seconds = r.counter(
            "kernel_sim_seconds_total", "modeled seconds charged by kernel"
        )
        self.wall = r.histogram(
            "kernel_wall_seconds", "measured wall seconds per dispatch"
        )
        self.fences = r.counter("fence_total", "fence events by name")
        self.copies = r.counter("deep_copy_total", "deep copies by route and view")
        self.copy_bytes = r.counter("deep_copy_bytes_total", "deep-copied bytes")
        self.mem_current = r.gauge(
            "memory_current_bytes", "live allocation bytes per space"
        )
        self.instants = r.counter(
            "profile_event_total", "profile_event instants by name"
        )
        self.instant_seconds = r.counter(
            "profile_event_sim_seconds_total", "modeled seconds charged by instants"
        )
        self.instant_bytes = r.counter(
            "profile_event_bytes_total", "bytes carried by instants (comm payloads)"
        )

    # ------------------------------------------------------------- kernels
    def _end_kernel(self, ev: KernelEvent) -> None:
        self.dispatches.inc(kernel=ev.name, space=ev.space, kind=ev.kind)
        self.sim_seconds.inc(ev.sim_seconds, kernel=ev.name)
        self.wall.observe(ev.wall_seconds, kernel=ev.name)

    end_parallel_for = _end_kernel
    end_parallel_reduce = _end_kernel
    end_parallel_scan = _end_kernel

    # ------------------------------------------------------- fences/copies
    def end_fence(self, ev: FenceEvent) -> None:
        self.fences.inc(name=ev.name)

    def end_deep_copy(self, ev: DeepCopyEvent) -> None:
        labels = {"route": f"{ev.src_space}->{ev.dst_space}", "label": ev.dst_label}
        self.copies.inc(**labels)
        self.copy_bytes.inc(ev.nbytes, **labels)

    # -------------------------------------------------------------- memory
    def allocate_data(self, ev: MemoryEvent) -> None:
        self.mem_current.set(
            self.mem_current.get(space=ev.space) + ev.nbytes, space=ev.space
        )

    def deallocate_data(self, ev: MemoryEvent) -> None:
        self.mem_current.set(
            max(self.mem_current.get(space=ev.space) - ev.nbytes, 0.0),
            space=ev.space,
        )

    # ------------------------------------------------------------ instants
    def profile_event(self, ev: InstantEvent) -> None:
        self.instants.inc(name=ev.name)
        if ev.sim_seconds:
            self.instant_seconds.inc(ev.sim_seconds, name=ev.name)
        if ev.metadata.get("bytes"):
            self.instant_bytes.inc(float(ev.metadata["bytes"]), name=ev.name)

    # ------------------------------------------------------------- queries
    def kernel_totals(self) -> dict[str, dict[str, float]]:
        """Per-kernel {wall_seconds, sim_seconds, count} over all dispatches.

        Counts come from the dispatch counter (summed over space/kind label
        sets), wall totals from the histogram sums — the numbers the
        reconciliation test holds against the space-time-stack.
        """
        totals: dict[str, dict[str, float]] = {}
        for key, n in self.dispatches.values.items():
            kernel = dict(key)["kernel"]
            row = totals.setdefault(
                kernel, {"wall_seconds": 0.0, "sim_seconds": 0.0, "count": 0}
            )
            row["count"] += int(n)
        for key, series in self.wall.values.items():
            kernel = dict(key)["kernel"]
            totals.setdefault(
                kernel, {"wall_seconds": 0.0, "sim_seconds": 0.0, "count": 0}
            )["wall_seconds"] += series.total
        for key, s in self.sim_seconds.values.items():
            kernel = dict(key)["kernel"]
            totals.setdefault(
                kernel, {"wall_seconds": 0.0, "sim_seconds": 0.0, "count": 0}
            )["sim_seconds"] += s
        return totals

    # -------------------------------------------------------------- output
    def finalize(self) -> str:
        lines = ["", "=" * 72, "metrics", "=" * 72]
        totals = self.kernel_totals()
        ndisp = int(sum(row["count"] for row in totals.values()))
        lines.append(
            f"  {len(self.registry.families)} families, "
            f"{len(totals)} kernels, {ndisp} dispatches"
        )
        top = sorted(totals.items(), key=lambda kv: -kv[1]["wall_seconds"])[:5]
        for name, row in top:
            mean = row["wall_seconds"] / max(row["count"], 1)
            lines.append(
                f"  {name:<32} {row['wall_seconds']:10.6f} s wall "
                f"({int(row['count'])}x, {mean * 1e6:9.1f} us/dispatch)"
            )
        if self.out is not None:
            os.makedirs(self.out, exist_ok=True)
            prom = os.path.join(self.out, self.PROM_FILE)
            jsonl = os.path.join(self.out, self.JSONL_FILE)
            with open(prom, "w") as fh:
                fh.write(self.registry.to_prometheus())
            with open(jsonl, "w") as fh:
                fh.write(self.registry.to_jsonl())
            lines.append(f"  prometheus: {prom}")
            lines.append(f"  jsonl:      {jsonl}")
        return "\n".join(lines)
