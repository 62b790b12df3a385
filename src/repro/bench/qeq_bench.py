"""Wall-clock QEq solver benchmark: preconditioning and extrapolation.

The QEq charge solve dominates ReaxFF step time at scale; two solver
features attack its iteration count:

* **preconditioning** — Jacobi (free, from the stored diagonal) shrinks
  the CG iteration count at identical convergence tolerance;
* **charge-history extrapolation** — a polynomial seed from the last few
  steps' solutions starts CG near the answer, so warm steps converge in a
  fraction of the cold-start iterations.

This bench runs the HNS surrogate once per configuration cell and records
*both* axes the acceptance criteria are stated in: wall seconds for the
whole run (best-of-repeats, with a stats block for the sentinel's noise
band) and the deterministic iterations-to-tolerance trajectory.  The
iteration path must be bit-identical across repeats — it is asserted, and
the recorded ``mean_iterations`` (warm steps only, after the extrapolation
ring has filled) back the headline ``iteration_speedup`` claim:
``jacobi+x2`` must converge in >= 1.5x fewer iterations than the
unpreconditioned cold start at the same tolerance.
"""

from __future__ import annotations

import json
import statistics
import time

import repro.reaxff  # noqa: F401  (register pair styles)
from repro.bench.hotpath import _record
from repro.bench.registry import register_bench
from repro.bench.stats import SCHEMA_VERSION, validate_bench
from repro.core import Lammps
from repro.workloads.hns import setup_hns

#: default output file (repo-root relative when run from the checkout)
DEFAULT_OUT = "BENCH_qeq.json"

#: configuration cells: label -> (qeq_precond, qeq_extrap).  ``cold`` is
#: the default solver (no preconditioner, cold start); the rest stack the
#: solver features.
MODES = (
    ("cold", "none", "none"),
    ("jacobi", "jacobi", "none"),
    ("jacobi+x2", "jacobi", "2"),
)

#: solves excluded from ``mean_iterations``: the extrapolation ring needs
#: order+1 = 3 previous solutions before the order-2 seed is in effect, so
#: the first entries of every trajectory are cold-ish for all cells.
WARMUP_SOLVES = 3


def _build(precond: str, extrap: str) -> Lammps:
    lmp = Lammps(quiet=True)
    setup_hns(lmp, nx=1, ny=2, nz=2, pair_style="reaxff cutoff 5.0")
    lmp.commands_string("neighbor 0.5 bin")
    lmp.pair.set_qeq_options(precond=precond, extrap=extrap)
    return lmp


def bench_hns_qeq(steps: int = 12, repeats: int = 3) -> dict:
    """HNS QEq row: wall time + iteration trajectory per configuration."""
    row: dict = {
        "workload": "hns",
        "pair_style": "reaxff cutoff 5.0",
        "qeq_tol": None,
        "natoms": None,
        "steps": steps,
        "repeats": repeats,
        "warmup_solves": WARMUP_SOLVES,
        "iterations": {},
        "mean_iterations": {},
        "spmv_bytes_per_iteration": None,
    }
    for label, precond, extrap in MODES:
        samples: list[float] = []
        paths: set[tuple[int, ...]] = set()
        for _ in range(repeats):
            lmp = _build(precond, extrap)
            t0 = time.perf_counter()
            lmp.run(steps)
            samples.append(time.perf_counter() - t0)
            paths.add(tuple(lmp.pair.qeq_iters_history))
        if len(paths) != 1:
            raise ValueError(
                f"qeq bench cell {label!r}: iteration path not "
                f"deterministic across repeats: {sorted(paths)}"
            )
        history = list(paths.pop())
        row["natoms"] = int(lmp.natoms_total)
        row["qeq_tol"] = lmp.pair.qeq_tol
        _record(row, "run", label, samples)
        row["iterations"][label] = history
        row["mean_iterations"][label] = statistics.mean(
            history[WARMUP_SOLVES:]
        )
        # a property of the matrix, identical in every cell
        row["spmv_bytes_per_iteration"] = lmp.pair.last_stats[
            "qeq_spmv_bytes_per_iteration"
        ]
    mean = row["mean_iterations"]
    row["iteration_speedup"] = mean["cold"] / mean["jacobi+x2"]
    return row


@register_bench("qeq")
def run_qeq_bench(
    *,
    steps: int = 12,
    repeats: int = 3,
    out_path: str | None = DEFAULT_OUT,
    quiet: bool = False,
) -> dict:
    """Run the QEq solver bench on HNS; write BENCH_qeq.json."""
    results = {
        "benchmark": "qeq",
        "units": "seconds (best-of-repeats wall clock)",
        "schema_version": SCHEMA_VERSION,
        "workloads": [bench_hns_qeq(steps=steps, repeats=repeats)],
    }
    validate_bench(results)
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")
    if not quiet:
        print(format_qeq_report(results))
    return results


def format_qeq_report(results: dict) -> str:
    lines = ["QEq solver: iterations-to-tolerance and wall clock by config"]
    for row in results["workloads"]:
        lines.append(
            f"  {row['workload']} natoms={row['natoms']} "
            f"tol={row['qeq_tol']:g} steps={row['steps']} "
            f"{row['spmv_bytes_per_iteration']} matrix B/iter "
            f"(means over solves {row['warmup_solves']}..)"
        )
        for label, _, _ in MODES:
            lines.append(
                f"    {label:<10} {row['mean_iterations'][label]:6.2f} "
                f"iters/solve  "
                f"{row['run_seconds'][label] * 1e3:8.2f} ms/run"
            )
        lines.append(
            f"    iteration speedup (cold vs jacobi+x2): "
            f"{row['iteration_speedup']:.2f}x"
        )
    return "\n".join(lines)
