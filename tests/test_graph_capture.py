"""Unit tests for the kernel-graph subsystem (capture -> fuse -> cache).

Covers the pieces in isolation, on synthetic node lists: the fusion
barrier rules (scatter/tally nodes, index-space changes, stages caught
writing Views they did not declare), the fused-profile pricing (one
launch, saved intermediate bytes), the plan cache's hit/miss/invalidate
accounting, and the ``set_graph_mode`` registry contract.
"""

from __future__ import annotations

import pytest

from repro.graph import (
    GRAPH,
    OFF,
    ON,
    GraphCapture,
    KernelNode,
    build_plan,
    force_graph_mode,
    fuse,
    plan_cache,
    set_graph_mode,
)
from repro.graph.plan import PlanCache
from repro.hardware.cost import KernelProfile, fuse_profiles
from repro.tools import registry as kp
from repro.tools.metrics import MetricsTool


@pytest.fixture(autouse=True)
def _reset_graph_mode():
    yield
    set_graph_mode(None)


def node(
    name,
    *,
    elementwise=True,
    space="pairs",
    writes=(),
    observed=None,
    outputs=(),
    item_bytes=None,
    size=0.0,
    profile=None,
):
    n = KernelNode(
        name=name,
        elementwise=elementwise,
        size=size,
        profile=profile,
        writes=tuple(writes),
        meta={"index_space": space, "outputs": tuple(outputs)},
    )
    if item_bytes:
        n.meta["item_bytes"] = dict(item_bytes)
    n.observed_writes = set(observed) if observed is not None else set(writes)
    return n


# ------------------------------------------------------------------ fusion
def test_adjacent_elementwise_nodes_fuse_into_one_group():
    groups = fuse([node("a"), node("b"), node("c")])
    assert len(groups) == 1
    assert groups[0].fused
    assert groups[0].name == "graph:fused[a+b+c]"


def test_barrier_node_splits_the_chain():
    groups = fuse(
        [node("a"), node("scatter", elementwise=False), node("b"), node("c")]
    )
    assert [g.name for g in groups] == ["a", "scatter", "graph:fused[b+c]"]
    assert not groups[0].fused and not groups[1].fused


def test_index_space_change_splits_the_chain():
    groups = fuse(
        [node("a"), node("b"), node("c", space="atoms"), node("d", space="atoms")]
    )
    assert [g.name for g in groups] == [
        "graph:fused[a+b]",
        "graph:fused[c+d]",
    ]


def test_undeclared_observed_write_demotes_node_to_barrier():
    sneaky = node("sneaky", writes=("x",), observed=("x", "hidden"))
    assert not sneaky.fusable
    groups = fuse([node("a"), sneaky, node("b")])
    assert [g.name for g in groups] == ["a", "sneaky", "b"]


def test_chain_internal_buffers_and_saved_bytes():
    a = node(
        "a", writes=("tmp",), item_bytes={"tmp": 8.0}, size=100.0
    )
    b = node("b", writes=("out",), outputs=("out",))
    (group,) = fuse([a, b])
    assert group.internal == ("tmp",)
    # one eliminated write + one eliminated read of tmp
    assert group.saved_intermediate_bytes == 2.0 * 8.0 * 100.0


def test_fuse_profiles_prices_one_launch_minus_saved_bytes():
    p1 = KernelProfile(name="a", flops=100.0, bytes_streamed=1000.0)
    p2 = KernelProfile(name="b", flops=50.0, bytes_streamed=500.0)
    fused = fuse_profiles(
        [p1, p2], name="graph:fused[a+b]", saved_intermediate_bytes=600.0
    )
    assert fused.name == "graph:fused[a+b]"
    assert fused.launches == 1
    assert fused.flops == 150.0
    assert fused.bytes_streamed == 900.0
    # saved bytes never push the composite negative
    floor = fuse_profiles([p2], name="f", saved_intermediate_bytes=1e9)
    assert floor.bytes_streamed == 0.0
    with pytest.raises(ValueError):
        fuse_profiles([], name="empty")


def test_fused_group_carries_composite_profile():
    prof = KernelProfile(name="a", bytes_streamed=64.0)
    (group,) = fuse([node("a", profile=prof), node("b")])
    assert group.profile is not None
    assert group.profile.launches == 1
    assert group.profile.name == group.name


# ------------------------------------------------------------- capture API
def test_capture_attributes_dispatch_to_open_stage():
    cap = GraphCapture("test")
    with cap:
        staged = cap.open_stage(node("stage"))
        cap.on_dispatch("for", "graph:stage", None, "Host", 32.0, None, 1e-6)
        cap.note_view_access("x", "r")
        cap.note_view_access("f", "w")
        cap.close_stage()
        # dispatch with no stage open lands as a standalone barrier node
        cap.on_dispatch("for", "stray", None, "Host", 8.0, None, 0.0)
    assert staged.size == 32.0 and staged.space == "Host"
    assert staged.observed_reads == {"x"}
    assert staged.observed_writes == {"f"}
    assert [n.name for n in cap.nodes] == ["stage", "stray"]
    assert not cap.nodes[1].elementwise


# --------------------------------------------------------------- plan cache
def test_plan_cache_miss_store_hit_and_invalidate():
    cache = PlanCache()
    plan = build_plan("lj/all", [node("a"), node("b")])
    base, variant = ("pair-1", "all"), ("Host", "segmented", 1)
    assert cache.lookup(base, variant) is None  # cold miss
    cache.store(base, variant, plan)
    assert cache.lookup(base, variant) is plan  # hit
    # variant drift (rebuild / scatter-mode flip) invalidates the slot
    assert cache.lookup(base, ("Host", "segmented", 2)) is None
    assert cache.stats() == {
        "hits": 1, "misses": 2, "fused_nodes": 2, "plans": 1,
    }


def test_plan_cache_counters_reach_tools():
    """``plan_cache().stats()`` is the one record of cache traffic; each
    store also reaches every attached tool as a ``graph:plan_captured``
    instant."""
    tool = MetricsTool()
    cache = plan_cache()
    before = cache.stats()
    plan = build_plan("lj/all", [node("a"), node("b"), node("c")])
    with kp.attached(tool):
        cache.lookup("k", 1)
        cache.store("k", 1, plan)
        cache.lookup("k", 1)
    delta = {k: cache.stats()[k] - before[k] for k in ("hits", "misses", "fused_nodes")}
    assert delta == {"hits": 1, "misses": 1, "fused_nodes": 3}
    assert tool.instants.get(name="graph:plan_captured") == 1.0


# ------------------------------------------------------------ mode registry
def test_set_graph_mode_validates_with_did_you_mean():
    with pytest.raises(ValueError) as err:
        set_graph_mode("onn")
    msg = str(err.value)
    assert "unknown graph mode" in msg
    assert "did you mean 'on'" in msg
    assert not GRAPH  # nothing was installed


def test_set_graph_mode_returns_previous_and_syncs_guard():
    assert set_graph_mode(ON) is None
    assert GRAPH and GRAPH[0] is plan_cache()
    assert set_graph_mode(OFF) == ON
    assert not GRAPH
    assert set_graph_mode(None) == OFF


def test_turning_graph_off_drops_cached_plans():
    with force_graph_mode(ON):
        cache = plan_cache()
        cache.store("k", 1, build_plan("p", [node("a")]))
        assert cache.stats()["plans"] == 1
    assert plan_cache().stats()["plans"] == 0
