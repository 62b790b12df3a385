"""Wall-clock hot path: segmented reduction vs ``np.add.at`` (real seconds).

Unlike the figure reproductions (modeled seconds on simulated silicon),
this file times the functional layer itself.  The converted scatter sites
must actually be faster: ≥2× on the melt force step's scatter hot path —
the i-side/j-side force accumulation the PR moved off ``np.add.at`` — and
never slower end-to-end on either workload.  Results land in
``BENCH_hotpath.json`` at the repo root so each PR extends a recorded
performance trajectory.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from conftest import emit

from repro.bench.hotpath import format_hotpath_report, run_hotpath_bench
from repro.bench.stats import SCHEMA_VERSION, validate_bench

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"


@pytest.fixture(scope="module")
def hotpath():
    return run_hotpath_bench(out_path=str(BENCH_JSON), quiet=True)


def row(results: dict, workload: str) -> dict:
    return next(w for w in results["workloads"] if w["workload"] == workload)


def test_melt_scatter_hotpath_2x(hotpath):
    """The melt force step's scatter path: segmented ≥2× over np.add.at."""
    melt = row(hotpath, "melt")
    assert melt["scatter_speedup"] >= 2.0, (
        f"segmented scatter only {melt['scatter_speedup']:.2f}x over np.add.at"
    )


def test_full_force_step_never_slower(hotpath):
    """End-to-end pair.compute() must not regress in segmented mode."""
    for name in ("melt", "tantalum"):
        r = row(hotpath, name)
        assert r["step_speedup"] >= 1.0, (
            f"{name}: segmented step {1.0 / r['step_speedup']:.2f}x slower"
        )


def test_bench_json_recorded(hotpath):
    """BENCH_hotpath.json carries workload, atoms, and steps/sec per mode."""
    assert BENCH_JSON.exists()
    for r in hotpath["workloads"]:
        assert r["natoms"] > 0
        modes = {"atomic", "segmented"}
        assert set(r["step_seconds"]) == modes
        assert set(r["steps_per_second"]) == modes
    emit(format_hotpath_report(hotpath))


def test_bench_json_repeat_stats(hotpath):
    """Schema v2: every measurement carries min/median/stdev/repeats."""
    assert hotpath["schema_version"] == SCHEMA_VERSION
    validate_bench(hotpath)
    melt = row(hotpath, "melt")
    for mode in ("atomic", "segmented"):
        block = melt["step_stats"][mode]
        assert block["repeats"] == melt["repeats"]
        assert block["median"] >= block["min"] > 0
        assert block["stdev"] >= 0
