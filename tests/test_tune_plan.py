"""Tuned-plan persistence: round trips and fail-open loads.

The plan file is a cache: a fresh tuner (standing in for a fresh process —
nothing carries over but the file) must apply a stored winner without
re-searching, and any corrupt or stale-schema file must downgrade to a
warning plus a full search, never an exception.
"""

from __future__ import annotations

import json

import pytest

from conftest import make_melt
from repro.tune import Autotuner
from repro.tune.plan import SCHEMA_VERSION, TunePlanStore

KEYS = {"neigh", "newton"}


def _tune_melt(plan_path):
    lmp = make_melt(cells=2, suffix="kk")
    tuner = Autotuner(
        plan_path=str(plan_path) if plan_path else None,
        workload="melt", quiet=True,
    )
    tuner.tune(lmp)
    return tuner


def test_plan_round_trip_skips_search(tmp_path):
    plan = tmp_path / "tuned_plan.json"
    first = _tune_melt(plan)
    assert first.probes > 0
    assert plan.exists()

    data = json.loads(plan.read_text())
    assert data["schema_version"] == SCHEMA_VERSION
    entry = data["plans"]["melt"]["host"]
    assert entry["config"] == first.result["config"]
    assert entry["score"] == first.result["score"]

    # fresh tuner + fresh Lammps: only the file carries the winner over
    second = _tune_melt(plan)
    assert second.probes == 0
    assert second.result["source"] == "plan"
    assert second.result["config"] == first.result["config"]


def test_corrupt_plan_falls_back_to_search_with_warning(tmp_path):
    plan = tmp_path / "tuned_plan.json"
    plan.write_text("{definitely not json")
    with pytest.warns(RuntimeWarning, match="falling back to search"):
        tuner = _tune_melt(plan)
    assert tuner.probes > 0  # searched despite the bad cache
    assert tuner.plan_store.load_error is not None
    # the save overwrote the corrupt file with a valid plan
    assert json.loads(plan.read_text())["schema_version"] == SCHEMA_VERSION


def _v2_plan():
    """A version-2 plan: one entry per kernel, naming retired dimensions."""
    entry = {"score": 1.0, "measure": "model", "repeats": 2}
    return {"schema_version": 2, "plans": {"melt": {"host": {
        "pair_force": dict(entry, config={
            "scatter": "segmented", "neigh": "half", "newton": "on",
            "graph": "on"}),
        "neighbor_build": dict(entry, config={"sort": "0"}),
    }}}}


def test_stale_schema_plan_falls_back_to_search(tmp_path):
    """Unknown versions and version-2 plans (per-kernel entries naming
    ``graph``/``sort``) are never applied: warn, re-search, overwrite."""
    plan = tmp_path / "tuned_plan.json"
    for stale in ({"schema_version": 999, "plans": {}}, _v2_plan()):
        plan.write_text(json.dumps(stale) + "\n")
        with pytest.warns(RuntimeWarning, match="schema_version"):
            tuner = _tune_melt(plan)
        assert tuner.result["source"] == "search"
        saved = json.loads(plan.read_text())
        assert saved["schema_version"] == SCHEMA_VERSION == 4
        assert set(saved["plans"]["melt"]["host"]["config"]) == KEYS


def test_v3_plan_naming_scatter_is_never_applied(tmp_path):
    """A version-3 plan names the retired ``scatter`` dimension: it loads
    fail-open with a warning and re-searches; neither its stale key nor its
    cell (one the search does not pick) lands."""
    searched = _tune_melt(None).result["config"]
    plan = tmp_path / "tuned_plan.json"
    stale = {"config": {"scatter": "atomic", "neigh": "half", "newton": "off"},
             "score": 0.0}
    plan.write_text(json.dumps(
        {"schema_version": 3, "plans": {"melt": {"host": stale}}}
    ) + "\n")
    with pytest.warns(RuntimeWarning, match="schema_version 3 != expected 4"):
        tuner = _tune_melt(plan)
    assert tuner.plan_store.load_error is not None
    assert tuner.result["source"] == "search"
    assert tuner.probes == 3  # the kk style's three list cells
    assert tuner.result["config"] == searched != {"neigh": "half", "newton": "off"}
    saved = json.loads(plan.read_text())
    assert saved["schema_version"] == 4
    assert set(saved["plans"]["melt"]["host"]["config"]) == KEYS


def test_malformed_plan_entry_is_ignored(tmp_path):
    plan = tmp_path / "tuned_plan.json"
    plan.write_text(json.dumps({
        "schema_version": SCHEMA_VERSION,
        "plans": {"melt": {"host": {"config": "not-a-dict"}}},
    }) + "\n")
    tuner = _tune_melt(plan)  # no warning: the file itself is valid
    assert tuner.probes > 0  # but the bad entry forced a search


def test_unsupported_planned_config_triggers_research(tmp_path):
    plan = tmp_path / "tuned_plan.json"
    store = TunePlanStore(str(plan))
    store.record(
        "melt", "host",
        config={"neigh": "full", "newton": "on"},
        score=1.0,
    )
    store.save()
    # full+newton-on is not an enumerable cell: the plan entry cannot be
    # applied, so the tuner searches instead of crashing
    tuner = _tune_melt(plan)
    assert tuner.probes > 0
    cfg = tuner.result["config"]
    assert (cfg["neigh"], cfg["newton"]) != ("full", "on")
