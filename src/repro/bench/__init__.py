"""Benchmark harness: functional reference runs -> cost-model projections.

The pattern behind every figure reproduction (DESIGN.md section 3): run the
*functional* simulation at a reference size with kernel-profile capture on,
then rescale the captured per-step profiles to arbitrary atom counts,
architectures, cache carveouts, and cluster sizes through the
:mod:`repro.hardware` models.  Workload-derived quantities (neighbors per
atom, QEq iterations, quad sparsity) therefore come from real runs, not
hand-waving; only the silicon is analytic.
"""

from repro.bench.registry import bench_names, register_bench, run_bench
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
from repro.bench.autotune import format_autotune_report, run_autotune_bench
from repro.bench.hotpath import format_hotpath_report, run_hotpath_bench
from repro.bench.qeq_bench import format_qeq_report, run_qeq_bench
from repro.bench.replica_bench import format_replica_report, run_replica_bench
from repro.bench.reporting import format_table, format_series
from repro.bench.sentinel import compare, format_verdict, run_sentinel
from repro.bench.stats import (
    SCHEMA_VERSION,
    collect_samples,
    summarize,
    validate_bench,
)

__all__ = [
    "bench_names",
    "register_bench",
    "run_bench",
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
    "run_hotpath_bench",
    "format_hotpath_report",
    "run_autotune_bench",
    "format_autotune_report",
    "run_qeq_bench",
    "format_qeq_report",
    "run_replica_bench",
    "format_replica_report",
    "SCHEMA_VERSION",
    "summarize",
    "collect_samples",
    "validate_bench",
    "compare",
    "format_verdict",
    "run_sentinel",
]
