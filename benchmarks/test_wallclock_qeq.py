"""Wall-clock QEq solver: preconditioning + extrapolation acceptance.

Runs the HNS QEq bench (real seconds + deterministic iteration counts)
and asserts the PR's acceptance criteria: with ``qeq_precond jacobi`` and
``qeq_extrap 2`` the mean CG iterations-to-tolerance must drop ≥1.5× vs
the unpreconditioned cold start at identical tolerance.  Results land in ``BENCH_qeq.json`` at the
repo root so each PR extends the recorded performance trajectory.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from conftest import emit

from repro.bench.qeq_bench import format_qeq_report, run_qeq_bench
from repro.bench.stats import SCHEMA_VERSION, validate_bench

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_qeq.json"

LABELS = ("cold", "jacobi", "jacobi+x2")


@pytest.fixture(scope="module")
def qeq_bench():
    return run_qeq_bench(out_path=str(BENCH_JSON), quiet=True)


def hns(results: dict) -> dict:
    return next(w for w in results["workloads"] if w["workload"] == "hns")


def test_iteration_speedup_at_least_1_5x(qeq_bench):
    """The acceptance margin: jacobi+extrap-2 ≥1.5× fewer CG iterations."""
    row = hns(qeq_bench)
    assert row["iteration_speedup"] >= 1.5, (
        f"jacobi+x2 only {row['iteration_speedup']:.2f}x fewer iterations"
    )


def test_preconditioning_never_increases_iterations(qeq_bench):
    """Jacobi must not be worse than plain CG over the run."""
    iters = hns(qeq_bench)["iterations"]
    for label in ("jacobi", "jacobi+x2"):
        assert sum(iters[label]) <= sum(iters["cold"]), label


def test_bench_json_recorded_with_stats(qeq_bench):
    assert BENCH_JSON.exists()
    assert qeq_bench["benchmark"] == "qeq"
    assert qeq_bench["schema_version"] == SCHEMA_VERSION
    validate_bench(qeq_bench)
    row = hns(qeq_bench)
    assert set(row["run_seconds"]) == set(LABELS)
    for label in LABELS:
        block = row["run_stats"][label]
        assert block["repeats"] == row["repeats"]
        assert block["median"] >= block["min"] > 0
        assert len(row["iterations"][label]) == row["steps"] + 1
    emit(format_qeq_report(qeq_bench))
