"""Autotuner search seeding from recorded ProfileStore priors.

A repeat tune of a (workload, kernel) the ProfileStore has already seen
should not start from scratch: the recorded ``best_config`` moves to the
front of the probe order (the warmup round probes candidates in list
order), and candidates whose recorded mean wall already trails the prior
beyond the noise floor are pruned without spending probes.  The baseline
and the prior itself are never pruned, preserving the tuner's
never-slower-than-baseline guarantee.
"""

from __future__ import annotations

import json

import pytest

from conftest import make_melt
from repro.graph import set_graph_mode
from repro.kokkos.segment import set_scatter_mode
from repro.tools import metrics
from repro.tune import Autotuner
from repro.tune import space as tspace


@pytest.fixture(autouse=True)
def _reset_modes():
    yield
    set_scatter_mode(None)
    set_graph_mode(None)


def _tune_melt(profile_path, rel_floor=None):
    lmp = make_melt(cells=2, suffix="kk")
    tuner = Autotuner(
        measure="model", repeats=2, seed=7, plan_path=None,
        profile_path=str(profile_path) if profile_path else None,
        workload="melt", rel_floor=rel_floor, quiet=True,
    )
    tuner.tune(lmp)
    return tuner


def test_no_profile_store_reports_no_prior():
    tuner = _tune_melt(None)
    assert "prior" not in tuner.result["kernels"]["pair_force"]


def test_prior_recorded_on_second_tune(tmp_path):
    profiles = tmp_path / "profiles.json"
    first = _tune_melt(profiles)
    assert profiles.exists()
    assert "prior" not in first.result["kernels"]["pair_force"]  # cold store

    # the prior is the store's best *at seed time* — snapshot it before the
    # second tune records its own (real-wall, noisy) samples on top
    best = metrics.ProfileStore(str(profiles)).best_config("melt", "pair_force")
    second = _tune_melt(profiles)
    entry = second.result["kernels"]["pair_force"]
    assert "prior" in entry and "pruned" in entry
    assert best is not None and entry["prior"] == best[0]


def test_dominated_candidates_pruned_but_never_baseline_or_prior(tmp_path):
    profiles = tmp_path / "profiles.json"
    first = _tune_melt(profiles)
    full = first.result["kernels"]["pair_force"]["candidates"]

    # inflate every recorded pair_force mean except the best one, so on the
    # next tune everything but the prior (and the protected baseline) is
    # provably dominated
    data = json.loads(profiles.read_text())
    best_key = first.profile_store.best_config("melt", "pair_force")[0]
    for ckey, kernels in data["profiles"]["melt"].items():
        if ckey != best_key and "pair_force" in kernels:
            kernels["pair_force"]["wall_seconds"] *= 100.0
    profiles.write_text(json.dumps(data))

    second = _tune_melt(profiles)
    entry = second.result["kernels"]["pair_force"]
    assert entry["pruned"] >= 1
    assert entry["candidates"] == full - entry["pruned"]
    assert entry["candidates"] >= 1  # prior (and baseline) survived
    assert second.probes < first.probes  # pruning actually saved probes


def test_seed_from_prior_moves_winner_to_front_and_prunes():
    """Unit-level: ordering and pruning against a stubbed ProfileStore."""

    class StubStore:
        def __init__(self, best_key, means):
            self._best = best_key
            self._means = means

        def best_config(self, workload, kernel):
            return (self._best, self._means[self._best])

        def mean_wall(self, workload, kernel, config):
            return self._means.get(metrics.config_key(config))

    tuner = Autotuner(measure="model", plan_path=None, quiet=True)
    base_full = {tspace.GRAPH: "off", tspace.SORT: "1"}
    candidates = [
        {tspace.SCATTER: "atomic"},     # baseline: slow but protected
        {tspace.SCATTER: "segmented"},  # the recorded prior
        {tspace.SCATTER: "dominated"},  # recorded slow: pruned
        {tspace.SCATTER: "unseen"},     # no recording: kept
    ]

    def key(cfg):
        return metrics.config_key({"device": "host", **base_full, **cfg})

    tuner.profile_store = StubStore(
        key(candidates[1]),
        {key(candidates[0]): 9.0, key(candidates[1]): 1.0,
         key(candidates[2]): 8.0},
    )
    keep, base_idx, prior_key, pruned = tuner._seed_from_prior(
        "pair_force", list(candidates), 0, base_full, "host"
    )
    assert keep[0] == candidates[1]  # prior probes first
    assert candidates[2] not in keep  # dominated candidate dropped
    assert candidates[0] in keep  # baseline survives its slow recording
    assert keep[base_idx] == candidates[0]
    assert prior_key == key(candidates[1])
    assert pruned == 1
