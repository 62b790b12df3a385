"""Runtime autotuner: the paper's section 4.1 question, asked per architecture.

Half vs full lists and newton on/off have different winners on different
backends (the paper's Fig. 2), and picking them wrong costs 2x+.  This
module answers that question at run start: it enumerates the
``list × newton`` cells (:mod:`repro.tune.space`),
probes each one **once** with one force cycle under the calibrated hardware
cost model, and locks the winner in for the rest of the run.

The score is the modeled seconds (device timeline + comm ledger) the probe
charged.  Each probe charges scratch ledgers that start from zero and are
discarded afterwards, so a score depends only on the probed cell — never on
what was charged before it — and re-probing a cell returns the same bits.
That exactness is why one probe per cell suffices: no repeats, no seed, no
noise band.  The winner is the lowest score; the baseline (the active cell,
probed first) wins ties, so a pure-host run whose styles charge nothing
scores every cell 0.0 and keeps its baseline.

Winners persist to a :class:`~repro.tune.plan.TunePlanStore` keyed
(workload, arch); repeat runs skip the search.
"""

from __future__ import annotations

import repro.kokkos as kk
from repro.core.errors import LammpsError
from repro.hardware.cost import DeviceTimeline
from repro.parallel.comm import CommLedger
from repro.parallel.driver import drain, lockstep
from repro.tune import space as tspace
from repro.tune.plan import TunePlanStore


class Autotuner:
    """Searches the cells once, then locks the winner into the run.

    Attach one to ``lmp.autotuner`` (or pass ``--autotune``); the first
    ``run`` command triggers :meth:`tune` before any timestep executes.
    """

    def __init__(
        self,
        *,
        plan_path: str | None = "tuned_plan.json",
        workload: str = "run",
        quiet: bool = True,
    ) -> None:
        self.workload = workload
        self.quiet = quiet
        self.plan_store = TunePlanStore(plan_path) if plan_path else None
        self.tuned = False
        self.probes = 0
        self.result: dict | None = None
        self._applied: dict | None = None

    # --------------------------------------------------------------- tune
    def tune(self, target) -> dict:
        """Search (or load) the winning cell and lock it in."""
        ranks = tspace.ranks_of(target)
        self._setup(ranks)
        arch = self._arch()
        baseline = tspace.snapshot_config(target)
        self._applied = baseline
        candidates = [baseline] + [
            cfg for cfg in tspace.enumerate_configs(target) if cfg != baseline
        ]
        planned = (
            self.plan_store.lookup(self.workload, arch)
            if self.plan_store is not None
            else None
        )
        scores: dict[str, float] = {}
        if planned is not None and planned["config"] in candidates:
            config, score, source = planned["config"], planned.get("score"), "plan"
        else:
            for cfg in candidates:
                tspace.apply_config(target, cfg)
                self._rebuild_if_needed(ranks, cfg)
                scores[tspace.short_label(cfg)] = self._probe(ranks)
            # min() keeps the first of equal scores: the baseline wins ties
            config = min(candidates, key=lambda c: scores[tspace.short_label(c)])
            score, source = scores[tspace.short_label(config)], "search"
            if self.plan_store is not None:
                self.plan_store.record(self.workload, arch, config=config, score=score)
                self.plan_store.save()
        tspace.apply_config(target, config)
        self._rebuild_if_needed(ranks, config)
        label = tspace.short_label(config)
        for lmp in ranks:
            lmp.tune_label = label
            if "tune" not in lmp.thermo.columns:
                lmp.thermo.columns = tuple(lmp.thermo.columns) + ("tune",)
        self.result = {
            "workload": self.workload, "arch": arch, "config": config,
            "label": label, "score": score, "source": source,
            "scores": scores, "probes": self.probes,
        }
        self.tuned = True
        if not self.quiet:
            print(self.format_report())
        return self.result

    # ------------------------------------------------------------- probes
    def _probe(self, ranks) -> float:
        """Modeled seconds of one force cycle, charged to scratch ledgers."""
        ctx = kk.device_context()
        world = ranks[0].world
        saved = ctx.timeline, world.ledger
        ctx.timeline, world.ledger = DeviceTimeline(), CommLedger()
        try:
            self._drive([lmp.verlet.force_cycle() for lmp in ranks])
            score = ctx.timeline.total() + world.ledger.total()
        finally:
            ctx.timeline, world.ledger = saved
        self.probes += 1
        return score

    def _rebuild(self, ranks) -> None:
        self._drive([lmp.rebuild_gen() for lmp in ranks])

    def _rebuild_if_needed(self, ranks, cfg: dict) -> None:
        if cfg != self._applied:
            self._rebuild(ranks)
            self._applied = cfg

    @staticmethod
    def _drive(gens) -> None:
        if len(gens) == 1:
            drain(gens[0])
        else:
            lockstep(gens)

    def _setup(self, ranks) -> None:
        """Bring the system to a probe-ready state without running a step."""
        for lmp in ranks:
            if lmp.pair is None:
                raise LammpsError("autotune requires a pair_style before run")
            lmp.pair.init()
            lmp.modify.init()
        self._drive([lmp.count_atoms_gen() for lmp in ranks])
        self._rebuild(ranks)

    # ------------------------------------------------------------ plumbing
    def _arch(self) -> str:
        ctx = kk.device_context()
        return "host" if ctx.host_only else ctx.gpu.name

    # ------------------------------------------------------------- report
    def format_report(self) -> str:
        assert self.result is not None, "tune() has not run"
        res = self.result
        lines = [
            f"autotune[{res['workload']}@{res['arch']}] probes={res['probes']} "
            f"-> {res['label']} ({res['source']})"
        ]
        for label, score in res["scores"].items():
            lines.append(f"  {label:<16} {score:.3e} s")
        return "\n".join(lines)
