"""Span recorder for the traced run, applied from outside the program.

``install()`` replaces the public callables at each layer boundary of
``repro`` with timing wrappers (attribute patching in the child process,
before ``main()``).  Nothing under ``src/`` knows it is being traced.

A span is ``[name, start, end, parent, call, count]``:

* ``name`` indexes ``Tracer.names``; names are ``<layer>.<what>``;
* ``start``/``end`` are ``perf_counter`` seconds;
* ``parent`` is the span that was open when this one began (-1: none);
* ``call`` groups the pieces of one generator call (below); a plain call
  is its own group;
* ``count`` is work measured at the same boundary (pairs, ...), or 0.

Generator functions (``rebuild_gen``, ``compute_gen``, ``forward_comm``,
``output_gen`` ...) yield at would-be blocking receives, and the lockstep
driver resumes another rank's generator in between.  Timing such a call from
creation to exhaustion would charge the other ranks' work to it, so a
generator is recorded as one span *per resume*: opened when it is resumed,
closed when it yields or returns.

Spans stay in memory; ``Tracer.write`` dumps them when the child exits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []

    # ------------------------------------------------------------ recording
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int, call: int = -1) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, self.clock(), 0.0, parent, idx if call < 0 else call, 0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        # an exception may have unwound past inner spans: close through idx
        while self._stack and self._stack.pop() != idx:
            pass

    # ------------------------------------------------------------- wrappers
    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """A timing wrapper for ``fn``; generator functions get one span
        per resume.  ``count(args, kwargs, result)`` attaches a work count
        (evaluated at call time, ``result=None``, for generators)."""
        nid = self.name_id(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(nid, fn, count)
        begin, end, spans = self.begin, self.end, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    spans[idx][5] = count(args, kwargs, result)
                return result
            finally:
                end(idx)

        return traced

    def _wrap_generator(self, nid: int, fn: Callable, count: Callable | None) -> Callable:
        begin, end, spans = self.begin, self.end, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            work = count(args, kwargs, None) if count is not None else 0
            call = -1
            sent = None
            try:
                while True:
                    idx = begin(nid, call)
                    if call < 0:
                        call = idx
                        spans[idx][5] = work
                    try:
                        yielded = gen.send(sent)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        end(idx)
                    sent = yield yielded
            finally:
                gen.close()

        return traced

    # ------------------------------------------------------------- the root
    def run_span(self, target) -> Callable:
        """Open the root span of a public ``run`` call; the returned closer
        ends it and returns the program counters it advanced."""
        before = counters(target)
        idx = self.begin(self.name_id("run"))

        def close(target) -> dict:
            self.end(idx)
            after = counters(target)
            return {k: after[k] - before[k] for k in after}

        return close

    def write(self, path: str, **identity) -> None:
        """Dump the spans, with whatever identifies the run beside them."""
        with open(path, "w") as fh:
            json.dump(dict(identity, names=self.names, spans=self.spans), fh)
            fh.write("\n")


# ---------------------------------------------------------- program counters
def counters(target) -> dict:
    """Monotonic counters the program keeps itself, read at run boundaries.

    ``target`` is the Lammps / Ensemble / ReplicaSet whose ``run`` is being
    stamped.  Everything here repeats exactly for a given input.
    """
    import repro.kokkos as kk
    from repro.graph.plan import plan_cache

    members = getattr(target, "ranks", None) or getattr(target, "replicas", None) or [target]
    worlds = {id(lmp.world): lmp.world for lmp in members}.values()
    first = members[0]
    tuner = getattr(target, "autotuner", None)
    iters = getattr(first.pair, "qeq_iters_history", None) or []
    plans = plan_cache().stats()
    return {
        "comm_messages": sum(w.ledger.messages for w in worlds),
        "comm_bytes": sum(w.ledger.bytes_moved for w in worlds),
        "modeled_device_s": kk.device_context().timeline.total(),
        "thermo_rows": len(first.thermo.history),
        "qeq_solves": len(iters),
        "qeq_iterations": int(sum(iters)),
        "tune_probes": tuner.probes if tuner is not None else 0,
        "graph_plan_hits": plans["hits"],
        "graph_plan_misses": plans["misses"],
    }


# ------------------------------------------------------------ patch targets
def _list_pairs(args, kwargs, result) -> int:
    nlist = args[0].lmp.neigh_list
    return int(nlist.total_pairs) if nlist is not None else 0


#: (module, attribute path, span name[, count]) — the layer boundaries.
#: A class attribute is patched on the class; a module-level function is
#: patched in every ``repro`` module that imported it by value.
TARGETS: tuple[tuple, ...] = (
    # core.integrate: the per-rank loop generator; its resumes are the
    # lockstep driver's work, its self time is generator plumbing
    ("repro.core.integrate", "Verlet.run_gen", "integrate.run_gen"),
    # core.modify / core.thermo
    ("repro.core.modify", "Modify.init", "modify.init"),
    ("repro.core.modify", "Modify.initial_integrate", "modify.initial_integrate"),
    ("repro.core.modify", "Modify.post_force", "modify.post_force"),
    ("repro.core.modify", "Modify.final_integrate", "modify.final_integrate"),
    ("repro.core.modify", "Modify.end_of_step", "modify.end_of_step"),
    ("repro.core.thermo", "Thermo.output_gen", "thermo.output"),
    # core.neighbor
    ("repro.core.lammps", "Lammps.rebuild_gen", "neighbor.rebuild"),
    ("repro.core.neighbor", "Neighbor.decide", "neighbor.decide"),
    ("repro.core.bin_grid", "BinGrid.__init__", "neighbor.bin"),
    ("repro.core.bin_grid", "spatial_sort_order", "neighbor.sort"),
    ("repro.core.atom", "AtomVec.reorder_local", "neighbor.sort"),
    ("repro.core.neighbor", "build_neighbor_list", "neighbor.build",
     lambda args, kwargs, result: int(result.total_pairs)),
    # core.comm_md
    ("repro.core.comm_md", "CommBrick.exchange", "comm.exchange"),
    ("repro.core.comm_md", "CommBrick.borders", "comm.borders"),
    ("repro.core.comm_md", "CommBrick.forward_comm", "comm.forward"),
    ("repro.core.comm_md", "CommBrick.forward_comm_field", "comm.forward_field"),
    ("repro.core.comm_md", "CommBrick.forward_comm_fields", "comm.forward_field"),
    ("repro.core.comm_md", "CommBrick.reverse_comm", "comm.reverse"),
    # potentials (pair classes are patched from the style registry) + kokkos
    ("repro.potentials.pair", "Pair.tally_pairs", "pair.tally"),
    ("repro.kokkos.segment", "scatter_add", "segment.scatter"),
    ("repro.kokkos.segment", "scatter_sub", "segment.scatter"),
    ("repro.kokkos.segment", "scatter_add_columns", "segment.scatter"),
    ("repro.core.atom_kokkos", "AtomKokkos.sync", "kokkos.dualview"),
    ("repro.core.atom_kokkos", "AtomKokkos.modified", "kokkos.dualview"),
    ("repro.hardware.cost", "KernelCostModel.time", "hardware.cost_eval"),
    # reaxff
    ("repro.reaxff.qeq", "equilibrate_charges_gen", "qeq.solve"),
    ("repro.reaxff.qeq", "build_qeq_matrix", "qeq.matrix_build"),
    ("repro.reaxff.qeq", "QEqMatrix.spmv", "qeq.spmv"),
    ("repro.reaxff.qeq", "QEqMatrix.spmv2", "qeq.spmv"),
    ("repro.reaxff.bond_order", "build_bond_list", "reaxff.bonded"),
    ("repro.reaxff.bonds", "compute_bonds", "reaxff.bonded"),
    ("repro.reaxff.angles", "build_triplets", "reaxff.bonded"),
    ("repro.reaxff.angles", "compute_angles", "reaxff.bonded"),
    ("repro.reaxff.torsions", "build_quads", "reaxff.bonded"),
    ("repro.reaxff.torsions", "compute_torsions", "reaxff.bonded"),
    ("repro.reaxff.nonbonded", "compute_nonbonded", "reaxff.nonbonded"),
    # snap
    ("repro.snap.compute_ui", "compute_ui", "snap.ui"),
    ("repro.snap.compute_yi", "compute_yi", "snap.yi"),
    ("repro.snap.compute_deidrj", "compute_fused_deidrj", "snap.deidrj"),
    # graph / tune / replica
    ("repro.graph.plan", "GraphPlan.replay", "graph.replay"),
    ("repro.tune.autotuner", "Autotuner.tune", "tune.search"),
    ("repro.replica.batch", "ReplicaBatch.add_replica", "replica.add"),
    ("repro.replica.batch", "ReplicaBatch.step", "replica.step"),
    ("repro.replica.batch", "ReplicaBatch.finish", "replica.finish"),
)

#: entry points of a pair style, wrapped wherever a registered class (or one
#: of its bases) defines them
PAIR_ENTRY_POINTS = ("compute", "compute_gen", "compute_phase", "compute_overlap_gen")
DISPATCHERS = ("parallel_for", "parallel_reduce", "parallel_scan")


def _repro_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))]


def _patch(module, path: str, wrapped_of: Callable[[Callable], Callable]) -> None:
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        setattr(owner, attr, wrapped_of(vars(owner)[attr]))
        return
    original = getattr(module, attr)
    wrapped = wrapped_of(original)
    for mod in _repro_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def _wrap_dispatch(tracer: Tracer, fn: Callable) -> Callable:
    """``kokkos.dispatch`` span with the functor as a child span, so the
    dispatcher's self time is the dispatch overhead alone."""
    nid = tracer.name_id("kokkos.dispatch")
    fid = tracer.name_id("kokkos.functor")
    begin, end = tracer.begin, tracer.end

    @functools.wraps(fn)
    def traced(name, policy, functor, **kwargs):
        def timed_functor(*args):
            inner = begin(fid)
            try:
                return functor(*args)
            finally:
                end(inner)

        idx = begin(nid)
        try:
            return fn(name, policy, timed_functor, **kwargs)
        finally:
            end(idx)

    return traced


def install() -> Tracer:
    """Patch every layer boundary of ``repro``; return the recording tracer."""
    tracer = Tracer()
    # modules the CLI imports lazily: load them now so by-value imports of
    # the targets exist before the identity scan runs
    for mod_name in sorted({t[0] for t in TARGETS} | {"repro.replica", "repro.tune",
                                                       "repro.graph.pairwise"}):
        importlib.import_module(mod_name)
    for mod_name, path, span_name, *rest in TARGETS:
        count = rest[0] if rest else None
        _patch(importlib.import_module(mod_name), path,
               lambda fn, n=span_name, c=count: tracer.wrap(n, fn, c))

    from repro.core.styles import PAIR_STYLES

    seen: set[tuple[type, str]] = set()
    for cls in PAIR_STYLES.values():
        for base in cls.__mro__:
            for attr in PAIR_ENTRY_POINTS:
                if attr in vars(base) and (base, attr) not in seen:
                    seen.add((base, attr))
                    setattr(base, attr,
                            tracer.wrap("pair.compute", vars(base)[attr], _list_pairs))

    parallel = importlib.import_module("repro.kokkos.parallel")
    for attr in DISPATCHERS:
        _patch(parallel, attr, lambda fn: _wrap_dispatch(tracer, fn))
    return tracer
