"""Differential matrix: fused graph replay is bitwise-identical to eager.

The kernel-graph subsystem (:mod:`repro.graph`) rewrites the force step
from a stream of eager dispatches into a captured, fused, cached plan.
That is only legal because the fused composition computes *bitwise*
identical forces and energies — the stage bodies run the same ufunc
sequence on the same operands, only the dispatch accounting changes.
This module is that safety net, swept over melt LJ (kokkos, both
scatter modes), host LJ, EAM/kk, SNAP, and the HNS ReaxFF snapshot,
plus the PairCache-style plan lifetime rules: invalidation on neighbor
rebuild and on a ``set_scatter_mode`` flip mid-run.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import gather_by_tag, make_melt
from repro.core import Lammps
from repro.graph import ON, force_graph_mode, plan_cache, set_graph_mode
from repro.kokkos.segment import (
    ATOMIC,
    SEGMENTED,
    force_scatter_mode,
    set_scatter_mode,
)
from repro.parallel.driver import drain
from repro.workloads.hns import setup_hns
from repro.workloads.tantalum import setup_tantalum

EAM_SCRIPT = """\
units metal
lattice fcc 3.52
region box block 0 {cells} 0 {cells} 0 {cells}
create_box 1 box
create_atoms 1 box
mass 1 58.7
velocity all create 600 12345
pair_style eam/fs/kk 4.5
pair_coeff * * 2.0 0.3
neighbor 1.0 bin
fix 1 all nve
"""


@pytest.fixture(autouse=True)
def _reset_modes():
    yield
    set_scatter_mode(None)
    set_graph_mode(None)


def step_forces(lmp):
    """One force step under the active modes -> (forces-by-tag, energy)."""
    lmp.atom.f[: lmp.atom.nall] = 0.0
    if hasattr(lmp.pair, "compute_gen"):  # EAM communicates mid-compute
        drain(lmp.pair.compute_gen(True, True))
    else:
        lmp.pair.compute(True, True)
    if lmp.pair.needs_reverse_comm:
        drain(lmp.comm_brick.reverse_comm(lmp.atom, "f"))
    return gather_by_tag(lmp, "f"), float(lmp.pair.eng_vdwl)


def assert_fused_matches_eager(lmp, tag=""):
    """Eager vs capture-step vs replay-step must agree bitwise."""
    eager_f, eager_e = step_forces(lmp)
    virial = np.array(lmp.pair.virial)
    with force_graph_mode(ON):
        capture_f, capture_e = step_forces(lmp)  # miss: captures the plan
        replay_f, replay_e = step_forces(lmp)  # hit: replays the plan
    for name, f, e in (
        ("capture", capture_f, capture_e),
        ("replay", replay_f, replay_e),
    ):
        assert np.array_equal(f, eager_f), f"{tag}: {name} forces differ"
        assert e == eager_e, f"{tag}: {name} energy differs"
    assert np.array_equal(np.array(lmp.pair.virial), virial), tag


# ----------------------------------------------------------- melt lj matrix
def test_melt_kk_fused_bitwise_across_scatter_modes():
    lmp = make_melt(device="H100", suffix="kk")
    lmp.run(0)
    for scatter in (ATOMIC, SEGMENTED):
        with force_scatter_mode(scatter):
            drain(lmp.rebuild_gen())
            assert_fused_matches_eager(lmp, f"melt-kk {scatter}")


def test_melt_kk_full_list_fused_bitwise():
    lmp = make_melt(device="H100", suffix="kk")
    lmp.run(0)
    lmp.pair.set_options(neigh="full", newton=False)
    lmp.newton_pair = False
    drain(lmp.rebuild_gen())
    assert_fused_matches_eager(lmp, "melt-kk full")


def test_melt_host_fused_bitwise():
    lmp = make_melt()
    lmp.run(0)
    assert_fused_matches_eager(lmp, "melt-host")


def test_melt_dynamics_identical_under_graph_mode():
    """A real multi-step run (rebuilds included) is trajectory-identical."""

    def trajectory(graph):
        lmp = make_melt(suffix="kk")
        if graph:
            set_graph_mode(ON)
        try:
            lmp.run(20)
        finally:
            set_graph_mode(None)
        return gather_by_tag(lmp, "x"), gather_by_tag(lmp, "f")

    x_eager, f_eager = trajectory(graph=False)
    x_fused, f_fused = trajectory(graph=True)
    assert np.array_equal(x_fused, x_eager)
    assert np.array_equal(f_fused, f_eager)


# ------------------------------------------------------------- eam and snap
def test_eam_kk_fused_bitwise():
    lmp = Lammps(device="H100", suffix="kk")
    lmp.commands_string(EAM_SCRIPT.format(cells=3))
    lmp.run(0)
    assert_fused_matches_eager(lmp, "eam-kk")


def test_snap_fused_geometry_bitwise():
    lmp = Lammps(device=None)
    setup_tantalum(lmp, cells=2, pair_style="snap", twojmax=4)
    lmp.run(2)  # break lattice symmetry so forces are non-trivial
    assert_fused_matches_eager(lmp, "snap")


# ------------------------------------------------------------------ reaxff
def test_hns_reaxff_identical_under_graph_mode():
    """ReaxFF declares no fusable stages: graph mode must change nothing."""

    def forces(graph):
        lmp = Lammps(device=None)
        setup_hns(lmp, 1, 2, 2, pair_style="reaxff cutoff 5.0")
        if graph:
            set_graph_mode(ON)
        try:
            drain(lmp.verlet.run_gen(0))
        finally:
            set_graph_mode(None)
        e = float(lmp.pair.eng_vdwl + lmp.pair.eng_coul)
        return gather_by_tag(lmp, "f"), e

    f_eager, e_eager = forces(graph=False)
    f_fused, e_fused = forces(graph=True)
    assert np.array_equal(f_fused, f_eager)
    assert e_fused == e_eager


# ------------------------------------------------------- plan cache lifetime
def test_plan_invalidated_on_neighbor_rebuild():
    lmp = make_melt(suffix="kk")
    lmp.run(0)
    with force_graph_mode(ON):
        cache = plan_cache()
        ref_f, ref_e = step_forces(lmp)  # miss: capture
        before = cache.stats()
        step_forces(lmp)
        assert cache.stats()["hits"] == before["hits"] + 1
        drain(lmp.rebuild_gen())  # bumps the list generation
        mid = cache.stats()
        f, e = step_forces(lmp)
        after = cache.stats()
        assert after["misses"] == mid["misses"] + 1  # re-capture
        assert after["hits"] == mid["hits"]
        assert np.array_equal(f, ref_f) and e == ref_e
        step_forces(lmp)
        assert cache.stats()["hits"] == after["hits"] + 1


def test_plan_invalidated_on_scatter_mode_change_mid_run():
    lmp = make_melt(suffix="kk")
    lmp.run(0)
    with force_graph_mode(ON):
        cache = plan_cache()
        with force_scatter_mode(ATOMIC):
            ref_f, ref_e = step_forces(lmp)  # miss: capture under atomic
        mid = cache.stats()
        with force_scatter_mode(SEGMENTED):
            f, e = step_forces(lmp)  # variant drift: re-capture
        after = cache.stats()
        assert after["misses"] == mid["misses"] + 1
        # scatter modes differ in accumulation *order*, so cross-mode
        # agreement is to round-off, not bitwise (same band as the eager
        # mode-matrix sweep in test_tune_matrix)
        np.testing.assert_allclose(f, ref_f, rtol=1e-9, atol=1e-10)
        assert e == pytest.approx(ref_e, rel=1e-9)


def test_graph_replays_the_eager_stage_objects_at_full_hit_rate():
    """Graph mode is an executor, not a second kernel: the plan's nodes run
    the very functions of the pair cache's Stage list, every steady-state
    step is a plan hit, and a rebuild costs exactly one re-capture."""
    lmp = make_melt(suffix="kk")
    lmp.run(0)
    cache = plan_cache()
    with force_graph_mode(ON):
        step_forces(lmp)  # miss: capture
        _, stages, tally = lmp.pair.pair_kernel()
        _, plan = cache.plans[id(lmp.pair)]
        replayed = [n.fn for g in plan.groups for n in g.nodes]
        assert len(replayed) == len(stages) + 1
        for fn, stage in zip(replayed, stages + [tally]):
            assert fn is stage.fn
        before = cache.stats()
        for _ in range(32):
            step_forces(lmp)
        steady = cache.stats()
        assert steady["hits"] == before["hits"] + 32
        assert steady["misses"] == before["misses"]
        drain(lmp.rebuild_gen())
        for _ in range(4):
            step_forces(lmp)
        after = cache.stats()
        assert after["misses"] == steady["misses"] + 1
        assert after["hits"] == steady["hits"] + 3
