"""From recorded spans to per-layer metrics.

Pure functions over the span list of :mod:`bench_e2e.trace` (no ``repro``
import), so the arithmetic is unit-testable on hand-made spans.

**Attribution rule.**  A span's *self time* is its duration minus the
duration of its direct children.  ``ACCOUNTING`` names the layers the wall
clock of ``run N`` is partitioned into; every other span (``segment.*``,
``kokkos.*``, ``qeq.*`` ...) is *detail*: its self time belongs to the
nearest accounting ancestor.  An accounting span nested in another layer's
span (``comm.exchange`` inside ``neighbor.rebuild``, the EAM ``fp`` exchange
inside ``pair.compute``) takes its time with it.  What falls through to the
root ``run`` span is ``unaccounted``.  The partition is exact: layer times
plus unaccounted equal the wall of ``run N``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

ACCOUNTING = ("pair", "neighbor", "comm", "modify", "thermo", "replica")
UNACCOUNTED = "unaccounted"

NAME, START, END, PARENT, CALL, COUNT = range(6)

#: every per-layer metric the traced run emits: (name, unit, which way is better)
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("input.import_s", "s", "lower"),
    ("input.script_s", "s", "lower"),
    ("integrate.setup_run0_s", "s", "lower"),
    ("tune.search_s", "s", "lower"),
    ("tune.probes", "count", "lower"),
    ("integrate.step_ms_p50", "ms", "lower"),
    ("integrate.step_ms_tail", "ms", "lower"),
    ("integrate.step_tail_pct", "%", "higher"),
    ("integrate.step_samples", "count", "higher"),
    ("integrate.unaccounted_share", "ratio", "lower"),
    ("pair.ms_per_step", "ms", "lower"),
    ("pair.share", "ratio", "lower"),
    ("pair.tally_ms_per_step", "ms", "lower"),
    ("pair.tally_useful_ratio", "ratio", "higher"),
    ("pair.pairs_per_step", "count", "lower"),
    ("pair.ns_per_pair", "ns", "lower"),
    ("qeq.iterations_per_solve", "count", "lower"),
    ("qeq.solve_ms_per_step", "ms", "lower"),
    ("qeq.spmv_ms_per_iteration", "ms", "lower"),
    ("qeq.matrix_build_ms_per_step", "ms", "lower"),
    ("reaxff.bonded_ms_per_step", "ms", "lower"),
    ("reaxff.nonbonded_ms_per_step", "ms", "lower"),
    ("snap.ui_ms_per_step", "ms", "lower"),
    ("snap.yi_ms_per_step", "ms", "lower"),
    ("snap.deidrj_ms_per_step", "ms", "lower"),
    ("segment.scatter_ms_per_step", "ms", "lower"),
    ("segment.calls_per_step", "count", "lower"),
    ("kokkos.dispatches_per_step", "count", "lower"),
    ("kokkos.dispatch_overhead_us", "us", "lower"),
    ("kokkos.dualview_ms_per_step", "ms", "lower"),
    ("hardware.modeled_device_s", "model_s", "lower"),
    ("hardware.cost_eval_ms_per_step", "ms", "lower"),
    ("neighbor.rebuilds", "count", "lower"),
    ("neighbor.ms_per_step", "ms", "lower"),
    ("neighbor.share", "ratio", "lower"),
    ("neighbor.rebuild_ms_p50", "ms", "lower"),
    ("neighbor.bin_ms_per_rebuild", "ms", "lower"),
    ("neighbor.build_ms_per_rebuild", "ms", "lower"),
    ("neighbor.decide_ms_per_step", "ms", "lower"),
    ("neighbor.ns_per_pair_built", "ns", "lower"),
    ("comm.ms_per_step", "ms", "lower"),
    ("comm.share", "ratio", "lower"),
    ("comm.forward_ms_per_step", "ms", "lower"),
    ("comm.reverse_ms_per_step", "ms", "lower"),
    ("comm.exchange_borders_ms_per_rebuild", "ms", "lower"),
    ("comm.messages_per_step", "count", "lower"),
    ("comm.bytes_per_step", "count", "lower"),
    ("parallel.resumes_per_step", "count", "lower"),
    ("modify.ms_per_step", "ms", "lower"),
    ("modify.share", "ratio", "lower"),
    ("thermo.ms_per_row", "ms", "lower"),
    ("thermo.share", "ratio", "lower"),
    ("graph.replays_per_step", "count", "higher"),
    ("graph.plan_hit_ratio", "ratio", "higher"),
    ("replica.step_ms_p50", "ms", "lower"),
    ("replica.add_ms_per_member", "ms", "lower"),
    ("replica.share", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.closure_error_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: counts that must repeat exactly for one input (``--selfcheck``)
EXACT_COUNTS = (
    "neighbor.rebuilds", "pair.pairs_per_step", "comm.messages_per_step",
    "comm.bytes_per_step", "qeq.iterations_per_solve", "tune.probes",
    "hardware.modeled_device_s",
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """``(pct, value)``: the highest percentile (at most 99, at least 50)
    that still has ten samples beyond it."""
    if not samples:
        return 50.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    pct = min(99.0, max(50.0, 100.0 * (1.0 - 10.0 / n)))
    return pct, ordered[min(n - 1, int(n * pct / 100.0))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Budget:
    """The span tree under one root ``run`` span, with attribution done."""

    def __init__(self, names: list[str], spans: list[list], root: int) -> None:
        self.names = names
        self.first = root  # global index of local span 0
        # single-threaded: every span begun before the root ended is inside it
        root_end = spans[root][END]
        stop = root + 1
        while stop < len(spans) and spans[stop][START] < root_end:
            stop += 1
        self.spans = spans[root:stop]
        self.wall = root_end - spans[root][START]
        self._attribute()

    def _attribute(self) -> None:
        names, off = self.names, self.first
        n = len(self.spans)
        self.dur = [s[END] - s[START] for s in self.spans]
        self.self_time = list(self.dur)
        for k in range(1, n):
            self.self_time[self.spans[k][PARENT] - off] -= self.dur[k]
        #: accounting layer each span's self time is charged to
        self.acct = [UNACCOUNTED] * n
        #: is the span outermost among same-named spans?
        self.outermost = [True] * n
        #: time under the span charged to the span's own accounting layer
        self.own = [0.0] * n
        self.layer_time: dict[str, float] = defaultdict(float)
        #: span name -> outermost spans of that name (local indices, in order)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for k in range(1, n):
            span = self.spans[k]
            layer = layer_of(names[span[NAME]])
            parent = span[PARENT] - off
            self.acct[k] = layer if layer in ACCOUNTING else self.acct[parent]
        for k in range(n):
            acct, name, self_time = self.acct[k], self.spans[k][NAME], self.self_time[k]
            self.layer_time[acct] += self_time
            self.own[k] += self_time
            up = self.spans[k][PARENT] - off if k else -1
            while up >= 0:
                if self.acct[up] == acct:
                    self.own[up] += self_time
                if self.spans[up][NAME] == name:
                    self.outermost[k] = False
                up = self.spans[up][PARENT] - off if up else -1
            if self.outermost[k]:
                self.by_name[names[name]].append(k)

    # ----------------------------------------------------------- selections
    def select(self, *span_names: str) -> list[int]:
        """Outermost spans with one of the given names (local indices)."""
        return [k for name in span_names for k in self.by_name.get(name, ())]

    def own_time(self, *span_names: str) -> float:
        return sum(self.own[k] for k in self.select(*span_names))

    def calls(self, *span_names: str) -> dict[int, list[int]]:
        """Spans grouped by generator call: call id -> local indices."""
        groups: dict[int, list[int]] = defaultdict(list)
        for k in self.select(*span_names):
            groups[self.spans[k][CALL]].append(k)
        return groups

    def count(self, *span_names: str) -> int:
        return sum(self.spans[k][COUNT] for k in self.select(*span_names))

    def starts(self, span_name: str) -> list[float]:
        return [self.spans[k][START] for k in self.select(span_name)
                if self.spans[k][CALL] == k + self.first]


def step_durations(budget: Budget, steps: int) -> list[float]:
    """Seconds between successive step starts.

    A step starts where the first rank enters ``Modify.initial_integrate``
    (replicas: where the first member's ``Neighbor.decide`` is asked); with R
    ranks every R-th entry is a step start.
    """
    for marker in ("modify.initial_integrate", "neighbor.decide"):
        starts = budget.starts(marker)
        if steps and len(starts) >= steps:
            per_step = len(starts) // steps
            marks = starts[::per_step]
            return [b - a for a, b in zip(marks, marks[1:])]
    return []


def per_layer_metrics(
    names: list[str], spans: list[list], runs: list[dict],
    stamps: dict, untraced_ms_per_step: float,
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric for one traced child.

    ``runs`` are the traced child's run records (stamps + counter deltas),
    the last one being the timed ``run N``; ``stamps`` are the *untraced*
    child's ``import_s`` / ``main_start`` / ``runs``, so set-up times are not
    inflated by the tracer.
    """
    name_run = names.index("run")
    roots = [k for k, s in enumerate(spans) if s[NAME] == name_run]
    b = Budget(names, spans, roots[-1])
    timed = runs[-1]
    steps = timed["steps"]
    counters = timed["counters"]
    wall = b.wall
    ms = 1000.0
    m: dict[str, float] = {}

    first_run = stamps["runs"][0]
    m["input.import_s"] = stamps["import_s"]
    m["input.script_s"] = first_run["enter"] - stamps["main_start"]
    m["integrate.setup_run0_s"] = first_run["exit"] - first_run["enter"]
    name_tune = names.index("tune.search") if "tune.search" in names else -1
    m["tune.search_s"] = sum(s[END] - s[START] for s in spans if s[NAME] == name_tune)
    m["tune.probes"] = sum(r["counters"]["tune_probes"] for r in runs)

    durations = step_durations(b, steps)
    pct, tail = tail_percentile(durations)
    m["integrate.step_ms_p50"] = ms * statistics.median(durations) if durations else 0.0
    m["integrate.step_ms_tail"] = ms * tail
    m["integrate.step_tail_pct"] = pct
    m["integrate.step_samples"] = len(durations)
    m["integrate.unaccounted_share"] = _ratio(b.layer_time[UNACCOUNTED], wall)

    layer_ms = {layer: ms * b.layer_time[layer] / steps for layer in ACCOUNTING}
    for layer in ACCOUNTING:
        m[f"{layer}.share"] = _ratio(b.layer_time[layer], wall)
    m["pair.ms_per_step"] = layer_ms["pair"]
    force_calls = b.calls("pair.compute")
    # every rank computes forces once per step and once at set-up; the
    # replica engine steps through its own kernels (no per-step pair call)
    members = len(force_calls) // (steps + 1)
    pairs = b.count("pair.compute")
    m["pair.tally_ms_per_step"] = ms * b.own_time("pair.tally") / steps
    m["pair.tally_useful_ratio"] = _ratio(
        counters["thermo_rows"] * members, len(force_calls)) if members else 0.0
    m["pair.pairs_per_step"] = pairs / steps
    m["pair.ns_per_pair"] = _ratio(1e9 * b.layer_time["pair"], pairs)

    solves, iterations = counters["qeq_solves"], counters["qeq_iterations"]
    m["qeq.iterations_per_solve"] = _ratio(iterations, solves)
    m["qeq.solve_ms_per_step"] = ms * b.own_time("qeq.solve") / steps
    m["qeq.spmv_ms_per_iteration"] = _ratio(ms * b.own_time("qeq.spmv"), iterations)
    m["qeq.matrix_build_ms_per_step"] = ms * b.own_time("qeq.matrix_build") / steps
    for detail in ("reaxff.bonded", "reaxff.nonbonded", "snap.ui", "snap.yi",
                   "snap.deidrj", "segment.scatter", "kokkos.dualview",
                   "hardware.cost_eval"):
        m[f"{detail}_ms_per_step"] = ms * b.own_time(detail) / steps
    m["segment.calls_per_step"] = len(b.select("segment.scatter")) / steps
    dispatches = b.select("kokkos.dispatch")
    m["kokkos.dispatches_per_step"] = len(dispatches) / steps
    m["kokkos.dispatch_overhead_us"] = _ratio(
        1e6 * sum(b.self_time[k] for k in dispatches), len(dispatches))
    m["hardware.modeled_device_s"] = counters["modeled_device_s"]

    rebuilds = b.calls("neighbor.rebuild")
    m["neighbor.rebuilds"] = len(rebuilds)
    m["neighbor.ms_per_step"] = layer_ms["neighbor"]
    m["neighbor.rebuild_ms_p50"] = ms * statistics.median(
        [sum(b.dur[k] for k in pieces) for pieces in rebuilds.values()] or [0.0])
    m["neighbor.bin_ms_per_rebuild"] = _ratio(ms * b.own_time("neighbor.bin"), len(rebuilds))
    m["neighbor.build_ms_per_rebuild"] = _ratio(ms * b.own_time("neighbor.build"), len(rebuilds))
    m["neighbor.decide_ms_per_step"] = ms * b.own_time("neighbor.decide") / steps
    m["neighbor.ns_per_pair_built"] = _ratio(
        1e9 * b.own_time("neighbor.build"), b.count("neighbor.build"))

    m["comm.ms_per_step"] = layer_ms["comm"]
    m["comm.forward_ms_per_step"] = ms * b.own_time("comm.forward", "comm.forward_field") / steps
    m["comm.reverse_ms_per_step"] = ms * b.own_time("comm.reverse") / steps
    m["comm.exchange_borders_ms_per_rebuild"] = _ratio(
        ms * b.own_time("comm.exchange", "comm.borders"), len(rebuilds))
    m["comm.messages_per_step"] = counters["comm_messages"] / steps
    m["comm.bytes_per_step"] = counters["comm_bytes"] / steps
    m["parallel.resumes_per_step"] = len(b.select("integrate.run_gen")) / steps

    m["modify.ms_per_step"] = layer_ms["modify"]
    m["thermo.ms_per_row"] = _ratio(ms * b.layer_time["thermo"], counters["thermo_rows"])

    lookups = counters["graph_plan_hits"] + counters["graph_plan_misses"]
    m["graph.replays_per_step"] = len(b.select("graph.replay")) / steps
    m["graph.plan_hit_ratio"] = _ratio(counters["graph_plan_hits"], lookups)

    adds = b.select("replica.add")
    m["replica.step_ms_p50"] = m["integrate.step_ms_p50"] if adds else 0.0
    m["replica.add_ms_per_member"] = _ratio(ms * sum(b.dur[k] for k in adds), len(adds))

    traced_ms_per_step = ms * (timed["exit"] - timed["enter"]) / steps
    m["trace.overhead_pct"] = 100.0 * (traced_ms_per_step / untraced_ms_per_step - 1.0)
    m["trace.closure_error_pct"] = 100.0 * abs(sum(b.layer_time.values()) / wall - 1.0)
    m["trace.spans"] = len(b.spans)
    if set(m) != set(UNITS):
        raise RuntimeError(f"PER_LAYER out of step with the code: {set(m) ^ set(UNITS)}")
    return m
