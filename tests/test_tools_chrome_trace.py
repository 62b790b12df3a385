"""Validity of the chrome://tracing export (:mod:`repro.tools.chrome_trace`).

The contract the viewer needs: the file round-trips ``json.load``, every
``B`` has a matching ``E`` on its track in nesting order, and per-track
timestamps are monotonically non-decreasing — including the 4-rank run
where rank generators interleave inside one process.
"""

from __future__ import annotations

import json
from collections import defaultdict

import pytest

from repro.tools import registry as kp
from repro.tools.chrome_trace import ChromeTrace

from conftest import make_melt


@pytest.fixture(autouse=True)
def clean_chain():
    kp.TOOLS.clear()
    kp.CHAIN.reset()
    yield
    kp.TOOLS.clear()
    kp.CHAIN.reset()


def validate_trace(path):
    """Round-trip the file and enforce the trace contract; returns stats."""
    with open(path) as fh:
        payload = json.load(fh)
    events = payload["traceEvents"]
    stacks: dict[tuple, list[str]] = defaultdict(list)
    last_ts: dict[tuple, float] = {}
    tracks = set()
    for ev in events:
        if ev["ph"] == "M":
            continue
        track = (ev["pid"], ev["tid"])
        tracks.add(track)
        assert ev["ts"] >= last_ts.get(track, float("-inf")), (
            f"track {track}: timestamp went backwards at {ev}"
        )
        last_ts[track] = ev["ts"]
        if ev["ph"] == "B":
            stacks[track].append(ev["name"])
        elif ev["ph"] == "E":
            assert stacks[track], f"track {track}: E without open B: {ev}"
            assert stacks[track].pop() == ev["name"], (
                f"track {track}: mismatched E: {ev}"
            )
    assert not any(stacks.values()), f"unclosed B events: {dict(stacks)}"
    return {"events": events, "tracks": tracks}


def run_traced(tmp_path, nranks=1, nsteps=10):
    out = tmp_path / "trace.json"
    trace = ChromeTrace(str(out))
    with kp.attached(trace):
        target = make_melt(device="H100", suffix="kk", cells=3, nranks=nranks)
        target.run(nsteps)
        trace.finalize()
    return out


class TestSingleRank:
    def test_round_trip_and_nesting(self, tmp_path):
        out = run_traced(tmp_path)
        stats = validate_trace(out)
        assert stats["tracks"] == {(0, 0)}
        names = {e["name"] for e in stats["events"]}
        assert "Pair" in names and "PairComputeLJCut" in names

    def test_kernel_events_carry_profile_args(self, tmp_path):
        out = run_traced(tmp_path, nsteps=2)
        stats = validate_trace(out)
        kernel_begins = [
            e
            for e in stats["events"]
            if e["ph"] == "B" and e.get("cat") == "kernel"
        ]
        assert kernel_begins
        pair = next(e for e in kernel_begins if e["name"] == "PairComputeLJCut")
        assert pair["args"]["flops"] > 0
        assert pair["args"]["bytes"] > 0

    def test_deep_copies_draw_flow_pairs(self, tmp_path):
        out = run_traced(tmp_path, nsteps=2)
        stats = validate_trace(out)
        starts = [e for e in stats["events"] if e["ph"] == "s"]
        finishes = [e for e in stats["events"] if e["ph"] == "f"]
        assert starts and len(starts) == len(finishes)
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}


class TestMultiRank:
    def test_four_rank_lockstep_run(self, tmp_path):
        out = run_traced(tmp_path, nranks=4, nsteps=10)
        stats = validate_trace(out)
        assert stats["tracks"] == {(0, r) for r in range(4)}
        # every rank's track carries real per-step structure
        by_rank = defaultdict(set)
        for e in stats["events"]:
            if e["ph"] in ("B", "E"):
                by_rank[e["tid"]].add(e["name"])
        for rank in range(4):
            assert "Pair" in by_rank[rank], f"rank {rank} track has no Pair"
            assert "Comm" in by_rank[rank]

    def test_rank_clocks_stay_independent(self, tmp_path):
        out = run_traced(tmp_path, nranks=2, nsteps=5)
        stats = validate_trace(out)
        per_rank_max = defaultdict(float)
        for e in stats["events"]:
            if e["ph"] != "M":
                per_rank_max[e["tid"]] = max(per_rank_max[e["tid"]], e["ts"])
        assert per_rank_max[0] > 0 and per_rank_max[1] > 0


class TestFinalizeRobustness:
    def test_open_regions_closed_at_finalize(self, tmp_path):
        out = tmp_path / "trace.json"
        trace = ChromeTrace(str(out))
        with kp.attached(trace):
            kp.push_region("left-open")
            kp.profile_event("tick", sim_seconds=1e-6)
            trace.finalize()
        validate_trace(out)
