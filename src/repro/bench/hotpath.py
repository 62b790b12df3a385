"""Wall-clock hot-path benchmark: segmented scatter vs ``np.add.at``.

The segmented-reduction subsystem (:mod:`repro.kokkos.segment`) replaces
every ``np.add.at``/``np.subtract.at`` in the force kernels.  This module
measures what that actually buys on real workloads, in wall-clock seconds,
and records the numbers to ``BENCH_hotpath.json`` so the performance
trajectory of the functional layer is tracked PR over PR.

Two timings per workload and contribution mode:

* ``scatter`` — the force-accumulation hot path alone: the exact scatter
  calls the force step issues (i-side add + j-side subtract over the
  in-cutoff pairs), replayed on precomputed pair data.  This isolates the
  conversion the paper's ScatterView discussion is about.
* ``step`` — one full ``pair.compute()`` (neighbor gather, distances,
  kernel evaluation, scatter, tallies), the end-to-end force step.

Both modes run the same pipeline; only :func:`force_scatter_mode` differs.
The ``<name>_seconds`` point estimates are best-of-``repeats`` (robust
against scheduler noise on shared CI runners); the sibling ``<name>_stats``
blocks record min/median/stdev/repeats so the regression sentinel can size
a noise band per measurement (:mod:`repro.bench.stats`).
"""

from __future__ import annotations

import json

import numpy as np

import repro.potentials  # noqa: F401  (register pair styles)
import repro.snap  # noqa: F401
from repro.bench.registry import register_bench
from repro.bench.stats import (
    SCHEMA_VERSION,
    collect_samples,
    summarize,
    validate_bench,
)
from repro.core import Lammps
from repro.graph.pairwise import run_stages
from repro.kokkos.segment import ATOMIC, SEGMENTED, force_scatter_mode
from repro.workloads.melt import setup_melt
from repro.workloads.tantalum import setup_tantalum

#: default output file (repo-root relative when run from the checkout)
DEFAULT_OUT = "BENCH_hotpath.json"


def _build_melt(cells: int) -> Lammps:
    lmp = Lammps(quiet=True)
    setup_melt(lmp, cells=cells, pair_style="lj/cut")
    lmp.run(0)
    return lmp


def _build_tantalum(cells: int, twojmax: int) -> Lammps:
    lmp = Lammps(quiet=True)
    setup_tantalum(lmp, cells=cells, pair_style="snap", twojmax=twojmax)
    lmp.run(0)
    return lmp


def _melt_scatter_closure(lmp: Lammps):
    """The melt force step's scatter hot path, on frozen pair data.

    Replays exactly the scatter calls the pairwise pass's half-list
    ``force_scatter`` stage issues for the in-cutoff pairs of the current
    neighbor list — the ten converted ``np.add.at`` sites distilled to
    their common shape.
    """
    from repro.kokkos.segment import scatter_add, scatter_sub

    atom = lmp.atom
    env, stages, _ = lmp.pair.pair_kernel("all")
    env.update(x=atom.x[: atom.nall], f=np.zeros_like(atom.f))
    run_stages(stages, env)
    i, j, fvec = env["i_n"].copy(), env["j_n"].copy(), env["fvec_n"].copy()
    f = np.zeros_like(atom.f)

    def run() -> None:
        scatter_add(f, i, fvec, assume_sorted=True)
        scatter_sub(f, j, fvec)

    return run


def _step_samples(lmp: Lammps, repeats: int) -> list[float]:
    atom, pair = lmp.atom, lmp.pair

    def run() -> None:
        atom.f[: atom.nall] = 0.0
        pair.compute(True, True)

    return collect_samples(run, repeats)


def _record(row: dict, name: str, mode: str, samples: list[float]) -> None:
    """File one measurement's repeat samples under ``<name>_seconds`` (min,
    the historical point estimate) and ``<name>_stats`` (full summary)."""
    stats = summarize(samples)
    row.setdefault(f"{name}_seconds", {})[mode] = stats["min"]
    row.setdefault(f"{name}_stats", {})[mode] = stats


def bench_melt(cells: int = 8, repeats: int = 10) -> dict:
    """LJ melt rows: scatter hot path and full force step, both modes."""
    lmp = _build_melt(cells)
    scatter = _melt_scatter_closure(lmp)
    out: dict = {
        "workload": "melt",
        "pair_style": "lj/cut",
        "natoms": int(lmp.natoms_total),
        "pairs": int(lmp.neigh_list.total_pairs),
        "repeats": repeats,
    }
    for mode in (ATOMIC, SEGMENTED):
        with force_scatter_mode(mode):
            _record(out, "scatter", mode, collect_samples(scatter, repeats))
            _record(out, "step", mode, _step_samples(lmp, repeats))
    _finish(out)
    return out


def bench_tantalum(cells: int = 3, twojmax: int = 8, repeats: int = 3) -> dict:
    """SNAP/Ta rows: full force step both modes (only the per-pair force
    scatter is mode-dependent; the U/Y/B contractions are plan-driven
    reductions, so the two cells tie and the row tracks the step itself)."""
    lmp = _build_tantalum(cells, twojmax)
    out: dict = {
        "workload": "tantalum",
        "pair_style": "snap",
        "twojmax": twojmax,
        "natoms": int(lmp.natoms_total),
        "repeats": repeats,
    }
    for mode in (ATOMIC, SEGMENTED):
        with force_scatter_mode(mode):
            _record(out, "step", mode, _step_samples(lmp, repeats))
    _finish(out)
    return out


def _finish(row: dict) -> None:
    """Derive steps/sec, atom-steps/sec, and the segmented-over-atomic
    speedups from the raw timings."""
    step = row["step_seconds"]
    row["steps_per_second"] = {m: 1.0 / s for m, s in step.items()}
    row["atom_steps_per_second"] = {
        m: row["natoms"] / s for m, s in step.items()
    }
    row["step_speedup"] = step[ATOMIC] / step[SEGMENTED]
    if "scatter_seconds" in row:
        sc = row["scatter_seconds"]
        row["scatter_speedup"] = sc[ATOMIC] / sc[SEGMENTED]


@register_bench("hotpath")
def run_hotpath_bench(
    *,
    melt_repeats: int = 10,
    snap_repeats: int = 3,
    out_path: str | None = DEFAULT_OUT,
    quiet: bool = False,
) -> dict:
    """Run both workloads, optionally write ``BENCH_hotpath.json``."""
    results = {
        "benchmark": "hotpath",
        "units": "seconds (best-of-repeats wall clock)",
        "schema_version": SCHEMA_VERSION,
        "workloads": [
            bench_melt(repeats=melt_repeats),
            bench_tantalum(repeats=snap_repeats),
        ],
    }
    validate_bench(results)
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")
    if not quiet:
        print(format_hotpath_report(results))
    return results


def format_hotpath_report(results: dict) -> str:
    lines = ["hot-path wall clock: segmented reduction vs np.add.at"]
    for row in results["workloads"]:
        lines.append(
            f"  {row['workload']:<9} natoms={row['natoms']:<6} "
            f"step {row['step_seconds'][ATOMIC] * 1e3:8.3f} -> "
            f"{row['step_seconds'][SEGMENTED] * 1e3:8.3f} ms  "
            f"({row['step_speedup']:.2f}x)"
        )
        if "scatter_speedup" in row:
            lines.append(
                f"  {'':<9} scatter hot path "
                f"{row['scatter_seconds'][ATOMIC] * 1e3:8.3f} -> "
                f"{row['scatter_seconds'][SEGMENTED] * 1e3:8.3f} ms  "
                f"({row['scatter_speedup']:.2f}x)"
            )
    return "\n".join(lines)
