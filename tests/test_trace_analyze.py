"""Offline trace analytics (:mod:`repro.tools.analyze`).

Runs traced melt workloads (including a 4-rank ensemble), feeds the chrome
trace to the analyzer, and checks the invariants each reported quantity
must satisfy: the critical path is at least the slowest rank's span,
imbalance is non-negative, and the top-kernel table ranks by exclusive
time.  Synthetic traces pin the arithmetic exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.tools import registry as kp
from repro.tools.analyze import (
    analyze,
    analyze_file,
    format_report,
    load_trace,
)
from repro.tools.chrome_trace import ChromeTrace

from conftest import make_melt


@pytest.fixture(autouse=True)
def clean_chain():
    kp.TOOLS.clear()
    kp.CHAIN.reset()
    yield
    kp.TOOLS.clear()
    kp.CHAIN.reset()


def run_traced(tmp_path, nranks=1, nsteps=10):
    out = tmp_path / "trace.json"
    trace = ChromeTrace(str(out))
    with kp.attached(trace):
        target = make_melt(device="H100", suffix="kk", cells=3, nranks=nranks)
        target.run(nsteps)
        trace.finalize()
    return out


# ----------------------------------------------------------------- synthetic
def _ev(ph, name, ts, tid=0, cat=None):
    ev = {"ph": ph, "name": name, "ts": ts, "tid": tid, "pid": 0}
    if cat:
        ev["cat"] = cat
    return ev


def synthetic_two_rank():
    """Two ranks, two sync segments with known per-segment maxima.

    Rank 0: works 0-10 (Pair), sync at 10, works 10-14 (Comm), ends 14.
    Rank 1: works 0-6  (Pair), sync at 6,  works 6-18  (Comm), ends 18.
    Segment 1 max = 10 (rank 0), segment 2 max = 12 (rank 1) -> path 22,
    which exceeds either rank's span (14, 18): the bottleneck migrated.
    """
    return [
        _ev("B", "Pair", 0.0, 0), _ev("E", "Pair", 10.0, 0),
        _ev("i", "comm:allreduce", 10.0, 0),
        _ev("B", "Comm", 10.0, 0), _ev("E", "Comm", 14.0, 0),
        _ev("B", "Pair", 0.0, 1), _ev("E", "Pair", 6.0, 1),
        _ev("i", "comm:allreduce", 6.0, 1),
        _ev("B", "Comm", 6.0, 1), _ev("E", "Comm", 18.0, 1),
    ]


class TestSyntheticCriticalPath:
    def test_segment_maxima_sum(self):
        a = analyze(synthetic_two_rank())
        cp = a["critical_path"]
        assert cp["sync_points"] == 1
        assert cp["segments"] == 2
        assert cp["critical_path_us"] == pytest.approx(22.0)
        assert cp["dominant_segments_per_rank"] == {"0": 1, "1": 1}
        # longer than any single rank's span: 22 / 18
        assert cp["stretch_vs_slowest_rank"] == pytest.approx(22.0 / 18.0)

    def test_load_imbalance_arithmetic(self):
        a = analyze(synthetic_two_rank())
        # accounted: rank0 = 10 + 4 = 14, rank1 = 6 + 12 = 18
        # imbalance = (18 / 16 - 1) * 100 = 12.5%
        assert a["load_imbalance_pct"] == pytest.approx(12.5)
        assert a["ranks"]["0"]["comm_us"] == pytest.approx(4.0)
        assert a["ranks"]["1"]["comm_us"] == pytest.approx(12.0)

    def test_nested_regions_stay_inside_their_category(self):
        events = synthetic_two_rank() + [
            # a sub-region inside rank 0's Comm region
            _ev("B", "interior", 10.5, 0), _ev("E", "interior", 13.5, 0),
        ]
        a = analyze(events)
        assert a["ranks"]["0"]["categories_us"] == {"Comm": 4.0, "Pair": 10.0}
        assert a["ranks"]["0"]["comm_us"] == pytest.approx(4.0)
        assert "overlap" not in a

    def test_kernel_table(self):
        events = [
            _ev("B", "Pair", 0.0, 0),
            _ev("B", "slow_k", 1.0, 0, cat="kernel"),
            _ev("E", "slow_k", 9.0, 0, cat="kernel"),
            _ev("B", "fast_k", 9.0, 0, cat="kernel"),
            _ev("E", "fast_k", 10.0, 0, cat="kernel"),
            _ev("E", "Pair", 10.0, 0),
        ]
        a = analyze(events, top=1)
        assert a["total_kernels"] == 2
        assert a["total_dispatches"] == 2
        assert len(a["top_kernels"]) == 1
        assert a["top_kernels"][0]["kernel"] == "slow_k"
        assert a["top_kernels"][0]["total_us"] == pytest.approx(8.0)

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError):
            analyze([])


# ---------------------------------------------------------------- real runs
class TestRealTraces:
    def test_single_rank_melt(self, tmp_path):
        out = run_traced(tmp_path)
        a = analyze_file(str(out))
        assert a["nranks"] == 1
        assert a["load_imbalance_pct"] == pytest.approx(0.0)
        assert a["critical_path"]["critical_path_us"] > 0
        names = [row["kernel"] for row in a["top_kernels"]]
        assert "PairComputeLJCut" in names
        # kernels never nest here: exclusive time is bounded by the span
        assert a["top_kernels"][0]["total_us"] <= a["ranks"]["0"]["span_us"]

    def test_four_rank_melt(self, tmp_path):
        out = run_traced(tmp_path, nranks=4)
        a = analyze_file(str(out))
        assert a["nranks"] == 4
        cp = a["critical_path"]
        assert cp["sync_points"] > 0
        # path >= every rank's span (per-segment maxima telescope)
        for row in a["ranks"].values():
            assert cp["critical_path_us"] >= row["span_us"] - 1e-6
        assert cp["stretch_vs_slowest_rank"] >= 1.0 - 1e-12
        assert sum(cp["dominant_segments_per_rank"].values()) == cp["segments"]
        assert a["load_imbalance_pct"] >= 0.0
        report = format_report(a)
        assert "critical path" in report
        assert "overlap" not in report

    def test_load_trace_rejects_non_trace(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nope": 1}))
        with pytest.raises(ValueError):
            load_trace(str(bad))


# ---------------------------------------------------------------------- CLI
class TestCLI:
    def test_analyze_trace_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        trace = run_traced(tmp_path, nranks=2, nsteps=5)
        out = tmp_path / "analysis.json"
        rc = main(
            ["--analyze-trace", str(trace), "--analyze-out", str(out),
             "--top", "3"]
        )
        assert rc == 0
        assert "trace analytics" in capsys.readouterr().out
        a = json.loads(out.read_text())
        assert a["nranks"] == 2
        assert len(a["top_kernels"]) <= 3
