"""Wall-clock autotune benchmark: tuned config vs hand-picked modes.

Runs the melt force step under each hand-picked scatter mode (the
BENCH_hotpath.json measurement, reproduced exactly), then lets the
autotuner search the full mode space and times the step again under the
locked-in winner.  The acceptance claim is that the tuned step is at least
as fast as the best hand-picked mode, within the sentinel noise band — the
tuner must never lose to a human flipping switches.

The output ``BENCH_autotune.json`` declares ``"benchmark": "hotpath"``
(with a ``"variant": "autotune"`` marker) on purpose: it uses the same
workload and measurement schema, so the CI sentinel can compare the
``atomic``/``segmented`` columns directly against the committed
BENCH_hotpath.json baseline.  The extra ``tuned`` mode shows up there as
``new`` — informational, never failing the gate.
"""

from __future__ import annotations

import json

import repro.potentials  # noqa: F401  (register pair styles)
from repro.bench.registry import register_bench
from repro.bench.hotpath import _record, _step_samples
from repro.bench.stats import SCHEMA_VERSION, validate_bench
from repro.core import Lammps
from repro.graph import set_graph_mode
from repro.kokkos.segment import ATOMIC, SEGMENTED, force_scatter_mode, set_scatter_mode
from repro.workloads.melt import setup_melt

#: default output file (repo-root relative when run from the checkout)
DEFAULT_OUT = "BENCH_autotune.json"

TUNED = "tuned"


def bench_melt_autotuned(
    cells: int = 8,
    repeats: int = 10,
    tune_repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Melt step timings: both hand-picked scatter modes, then the tuner's."""
    # deferred: repro.tune imports the sentinel constants through this
    # package's __init__, so a module-level import here would be circular
    from repro.tune import Autotuner

    lmp = Lammps(quiet=True)
    setup_melt(lmp, cells=cells, pair_style="lj/cut")
    lmp.run(0)
    out: dict = {
        "workload": "melt",
        "pair_style": "lj/cut",
        "natoms": int(lmp.natoms_total),
        "pairs": int(lmp.neigh_list.total_pairs),
        "repeats": repeats,
    }
    try:
        for mode in (ATOMIC, SEGMENTED):
            with force_scatter_mode(mode):
                _record(out, "step", mode, _step_samples(lmp, repeats))
        tuner = Autotuner(
            measure="wall", repeats=tune_repeats, seed=seed,
            plan_path=None, workload="melt", quiet=True,
        )
        tuner.tune(lmp)
        _record(out, "step", TUNED, _step_samples(lmp, repeats))
        out["tuned_config"] = tuner.result["config"]
        out["tuned_label"] = tuner.result["label"]
        out["tune_probes"] = tuner.probes
    finally:
        # the tuner locks modes via process-global overrides: clear them
        set_scatter_mode(None)
        set_graph_mode(None)
    step = out["step_seconds"]
    out["steps_per_second"] = {m: 1.0 / s for m, s in step.items()}
    out["atom_steps_per_second"] = {m: out["natoms"] / s for m, s in step.items()}
    best_hand_picked = min(step[ATOMIC], step[SEGMENTED])
    out["tuned_vs_best_hand_picked"] = best_hand_picked / step[TUNED]
    return out


@register_bench("autotune")
def run_autotune_bench(
    *,
    repeats: int = 10,
    tune_repeats: int = 3,
    out_path: str | None = DEFAULT_OUT,
    quiet: bool = False,
) -> dict:
    """Run the tuned-vs-hand-picked melt bench; write BENCH_autotune.json."""
    results = {
        "benchmark": "hotpath",
        "variant": "autotune",
        "units": "seconds (best-of-repeats wall clock)",
        "schema_version": SCHEMA_VERSION,
        "workloads": [
            bench_melt_autotuned(repeats=repeats, tune_repeats=tune_repeats)
        ],
    }
    validate_bench(results)
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")
    if not quiet:
        print(format_autotune_report(results))
    return results


def format_autotune_report(results: dict) -> str:
    lines = ["autotune wall clock: tuned config vs hand-picked modes"]
    for row in results["workloads"]:
        step = row["step_seconds"]
        lines.append(
            f"  {row['workload']:<9} natoms={row['natoms']:<6} "
            f"step atomic {step[ATOMIC] * 1e3:8.3f} ms, "
            f"segmented {step[SEGMENTED] * 1e3:8.3f} ms, "
            f"tuned {step[TUNED] * 1e3:8.3f} ms "
            f"({row['tuned_vs_best_hand_picked']:.2f}x vs best hand-picked, "
            f"-> {row['tuned_label']})"
        )
    return "\n".join(lines)
