"""The paper-figure harness: functional reference runs -> cost-model projections.

This package is exactly what ``benchmarks/test_fig*|table*|ablation*|appb*``
and ``examples/exascale_projection.py`` import (``runner``, ``scaling``,
``reporting``); the CLI never imports it.  Wall-clock numbers come from one
place only, ``python3 bench_e2e/run.py``.

The pattern behind every figure reproduction (DESIGN.md section 3): run the
*functional* simulation at a reference size with kernel-profile capture on,
then rescale the captured per-step profiles to arbitrary atom counts,
architectures, cache carveouts, and cluster sizes through the
:mod:`repro.hardware` models.  Workload-derived quantities (neighbors per
atom, QEq iterations, quad sparsity) therefore come from real runs, not
hand-waving; only the silicon is analytic.
"""

from repro.bench.runner import (
    LJBenchmark,
    ReaxFFBenchmark,
    ReferenceRun,
    SNAPBenchmark,
    POTENTIAL_BENCHMARKS,
    format_overlap_report,
    overlap_report,
)
from repro.bench.scaling import (
    cluster_step_breakdown,
    cluster_step_time,
    interior_fraction,
    strong_scaling_curve,
)
from repro.bench.reporting import format_table, format_series

__all__ = [
    "ReferenceRun",
    "LJBenchmark",
    "ReaxFFBenchmark",
    "SNAPBenchmark",
    "POTENTIAL_BENCHMARKS",
    "strong_scaling_curve",
    "cluster_step_time",
    "cluster_step_breakdown",
    "interior_fraction",
    "overlap_report",
    "format_overlap_report",
    "format_table",
    "format_series",
]
