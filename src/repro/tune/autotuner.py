"""Runtime autotuner over the mode registry.

The paper's performance story is that the right ``package kokkos`` defaults
differ per backend — half vs full lists, atomic vs duplicated scatter,
newton on/off — and picking them wrong costs 2x+.  This module automates the
choice at run start, the way the TestSNAP paper automates its strategy
exploration: enumerate the candidate cells of the mode space
(:mod:`repro.tune.space`), micro-benchmark each one per kernel with the
bench-stats discipline (one warmup round, then seeded *interleaved* repeat
rounds so drift hits every candidate equally), and lock in winners for the
rest of the run.

Two measures are supported:

* ``wall``  — measured wall-clock seconds per probe (the default; what you
  want on real silicon).
* ``model`` — the calibrated hardware cost model's charged seconds (device
  timeline + comm ledger delta), which is exactly reproducible and lets the
  tuner rank configs per *simulated* Table-1 architecture without timing
  noise — the deterministic path CI and the golden tests use.

A challenger only dethrones the currently-active config when it wins by
more than the noise band ``max(rel_floor, Z_SCORE * cv)`` — ``REL_FLOOR``
under the ``wall`` measure, zero under the noise-free ``model`` measure — so
a tuned run is never slower than the hand-picked baseline beyond noise.
Winners persist to a :class:`~repro.tune.plan.TunePlanStore` keyed
(workload, arch, kernel); repeat runs skip the search.  Nothing else is
recorded: probes run with no tool attached, and whether tuning pays is read
off ``bench_e2e``'s ``melt_autotune`` workload against ``melt``.
"""

from __future__ import annotations

import random
import statistics
import time

import repro.kokkos as kk
from repro.core.errors import LammpsError, unknown_choice
from repro.parallel.driver import drain, lockstep
from repro.tools import metrics
from repro.tune import space as tspace
from repro.tune.plan import TunePlanStore

#: Measurement backends.
WALL = "wall"
MODEL = "model"
MEASURES = (WALL, MODEL)

#: relative noise floor of the ``wall`` measure (35%): a challenger inside it
#: never dethrones the active config (the ``model`` measure is exact: 0)
REL_FLOOR = 0.35
#: stdev multiplier for the measured-noise part of the band
Z_SCORE = 3.0


def summarize(samples: list[float]) -> dict:
    """min/median/stdev of one candidate's repeat samples."""
    return {
        "min": min(samples),
        "median": statistics.median(samples),
        "stdev": statistics.stdev(samples) if len(samples) > 1 else 0.0,
    }


class Autotuner:
    """Searches the mode space once, then locks the winners into the run.

    Attach one to ``lmp.autotuner`` (or pass ``--autotune`` / ``package
    autotune on``); the first ``run`` command triggers :meth:`tune` before
    any timestep executes.
    """

    def __init__(
        self,
        *,
        measure: str = WALL,
        repeats: int = 3,
        seed: int = 0,
        plan_path: str | None = "tuned_plan.json",
        workload: str = "run",
        quiet: bool = True,
    ) -> None:
        if measure not in MEASURES:
            raise ValueError(unknown_choice("autotune measure", measure, MEASURES))
        if repeats < 1:
            raise ValueError("autotune repeats must be >= 1")
        self.measure = measure
        self.repeats = int(repeats)
        self.seed = int(seed)
        self.workload = workload
        # the model measure is noise-free, so any strict win counts there
        self.rel_floor = REL_FLOOR if measure == WALL else 0.0
        self.quiet = quiet
        self.plan_store = TunePlanStore(plan_path) if plan_path else None
        self.tuned = False
        self.probes = 0
        self.result: dict | None = None
        self._list_sig: tuple | None = None

    # --------------------------------------------------------------- tune
    def tune(self, target) -> dict:
        """Search (or load) winners for every kernel and lock them in."""
        ranks = tspace.ranks_of(target)
        self._setup(ranks)
        arch = self._arch()
        base_full = tspace.snapshot_config(target)
        self._list_sig = (base_full[tspace.NEIGH], base_full[tspace.NEWTON])
        kernels: dict[str, dict] = {}
        merged: dict[str, str] = {}
        for kernel, enumerate_fn, probe in (
            (tspace.PAIR_KERNEL, tspace.enumerate_pair_configs, self._pair_probe),
            (tspace.NEIGHBOR_KERNEL, tspace.enumerate_neighbor_configs,
             self._neighbor_probe),
        ):
            candidates = enumerate_fn(target)
            planned = (
                self.plan_store.lookup(self.workload, arch, kernel)
                if self.plan_store is not None
                else None
            )
            if planned is not None and planned["config"] in candidates:
                winner = planned["config"]
                entry = {"score": planned.get("score"), "source": "plan",
                         "candidates": len(candidates)}
            else:
                winner, entry = self._search(
                    kernel, target, ranks, candidates, probe
                )
                if self.plan_store is not None:
                    self.plan_store.record(
                        self.workload, arch, kernel,
                        config=winner, score=entry["score"],
                        measure=self.measure, repeats=self.repeats,
                    )
            # lock this kernel's winner in before the next kernel searches,
            # so e.g. the neighbor search runs under the winning list style
            tspace.apply_config(target, winner)
            kernels[kernel] = dict(entry, config=winner)
            merged.update(winner)
            metrics.set_gauge(
                "autotune_locked", 1.0,
                help="winning mode config per tuned kernel",
                kernel=kernel, workload=self.workload,
                config=metrics.config_key(winner),
            )
        # the searches leave the last-probed list behind: rebuild once under
        # the final merged config before the run proper starts
        self._rebuild(ranks)
        label = tspace.short_label(merged)
        for lmp in ranks:
            lmp.tune_label = label
            if "tune" not in lmp.thermo.columns:
                lmp.thermo.columns = tuple(lmp.thermo.columns) + ("tune",)
        metrics.inc(
            "autotune_probes_total", float(self.probes),
            help="micro-benchmark probes spent searching",
            workload=self.workload,
        )
        if self.plan_store is not None:
            self.plan_store.save()
        self.result = {
            "workload": self.workload, "arch": arch, "measure": self.measure,
            "config": merged, "label": label, "kernels": kernels,
            "probes": self.probes,
        }
        self.tuned = True
        if not self.quiet:
            print(self.format_report())
        return self.result

    # ------------------------------------------------------------- search
    def _search(self, kernel, target, ranks, candidates, probe):
        baseline = tspace.snapshot_config(target, candidates[0].keys())
        try:
            base_idx = candidates.index(baseline)
        except ValueError:
            candidates = [baseline] + list(candidates)
            base_idx = 0
        rng = random.Random((self.seed, kernel).__repr__())
        samples: list[list[float]] = [[] for _ in candidates]
        for rnd in range(self.repeats + 1):  # round 0 is the warmup
            order = list(range(len(candidates)))
            if rnd:
                rng.shuffle(order)
            for idx in order:
                cfg = candidates[idx]
                tspace.apply_config(target, cfg)
                if kernel == tspace.PAIR_KERNEL:
                    self._rebuild_if_needed(ranks, cfg)
                wall, sim = self._probe_once(ranks, probe)
                if rnd:
                    samples[idx].append(sim if self.measure == MODEL else wall)
                    self.probes += 1
        stats = [summarize(s) for s in samples]
        scores = [st["min"] for st in stats]
        win_idx = self._pick(base_idx, scores, stats)
        entry = {
            "score": scores[win_idx], "source": "search",
            "baseline": candidates[base_idx], "baseline_score": scores[base_idx],
            "candidates": len(candidates),
        }
        return candidates[win_idx], entry

    def _pick(self, base_idx: int, scores: list[float], stats: list[dict]) -> int:
        """Index of the winner: baseline unless a challenger beats the band."""

        def cv(st):
            median = st.get("median") or 0.0
            return st.get("stdev", 0.0) / median if median > 0.0 else 0.0

        win = min(range(len(scores)), key=lambda i: (scores[i], i))
        if win == base_idx:
            return base_idx
        base, best = scores[base_idx], scores[win]
        if best <= 0.0:
            # the model measure can charge exactly zero (pure-host styles
            # dispatch no kernels): keep the baseline on an all-zero tie
            return win if base > 0.0 else base_idx
        band = max(self.rel_floor, Z_SCORE * max(cv(stats[base_idx]), cv(stats[win])))
        return win if base / best > 1.0 + band else base_idx

    # ------------------------------------------------------------- probes
    def _probe_once(self, ranks, probe):
        ctx = kk.device_context()
        ledger = ranks[0].world.ledger
        sim0 = ctx.timeline.total() + ledger.total()
        t0 = time.perf_counter()
        probe(ranks)
        wall = time.perf_counter() - t0
        sim = ctx.timeline.total() + ledger.total() - sim0
        return wall, sim

    def _pair_probe(self, ranks) -> None:
        gens = []
        for lmp in ranks:
            verlet = lmp.verlet
            gens.append(
                verlet.force_cycle_overlap()
                if verlet.overlap_active()
                else verlet.force_cycle()
            )
        self._drive(gens)

    def _neighbor_probe(self, ranks) -> None:
        self._rebuild(ranks)

    def _rebuild(self, ranks) -> None:
        self._drive([lmp.rebuild_gen() for lmp in ranks])

    def _rebuild_if_needed(self, ranks, cfg: dict) -> None:
        sig = (cfg.get(tspace.NEIGH), cfg.get(tspace.NEWTON))
        if sig != self._list_sig:
            self._rebuild(ranks)
            self._list_sig = sig

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
            f"autotune[{res['workload']}@{res['arch']}] "
            f"measure={res['measure']} probes={res['probes']} -> {res['label']}"
        ]
        for kernel, entry in res["kernels"].items():
            score = entry.get("score")
            score_txt = f"{score:.3e} s" if score is not None else "-"
            lines.append(
                f"  {kernel:<14} {tspace.short_label(entry['config']):<16} "
                f"score {score_txt:<12} ({entry['source']}, "
                f"{entry['candidates']} candidates)"
            )
        return "\n".join(lines)
