"""Benchmark harness and workload generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import (
    LJBenchmark,
    SNAPBenchmark,
    cluster_step_time,
    format_series,
    format_table,
    strong_scaling_curve,
)
from repro.bench.runner import _merge_step_profiles
from repro.bench.scaling import ghost_atoms, parallel_efficiency
from repro.hardware import KernelProfile, get_gpu, get_machine
from repro.workloads.hns import CHAIN_TYPES, hns_configuration


@pytest.fixture(scope="module")
def lj_ref():
    return LJBenchmark(cells=4).reference("H100")


class TestReferenceCapture:
    def test_profiles_present(self, lj_ref):
        assert "PairComputeLJCut" in lj_ref.profiles
        assert "NeighborBuild" in lj_ref.profiles
        assert lj_ref.natoms == 4 * 4**3

    def test_density_and_cutoff(self, lj_ref):
        assert lj_ref.density == pytest.approx(0.8442, rel=1e-6)
        assert lj_ref.cutoff == 2.5

    def test_step_time_scales_superlinearly_at_small_sizes(self, lj_ref):
        # thread starvation: doubling tiny problems costs less than 2x
        t1 = lj_ref.step_time("H100", 2_000)
        t2 = lj_ref.step_time("H100", 4_000)
        assert t2 < 2 * t1

    def test_step_time_near_linear_at_saturation(self, lj_ref):
        t1 = lj_ref.step_time("H100", 4_000_000)
        t2 = lj_ref.step_time("H100", 8_000_000)
        assert t2 / t1 == pytest.approx(2.0, rel=0.35)

    def test_max_atoms_by_hbm(self, lj_ref):
        assert lj_ref.max_atoms(get_gpu("V100")) < lj_ref.max_atoms(get_gpu("H100"))

    def test_reference_cached(self):
        a = LJBenchmark(cells=4).reference("H100")
        b = LJBenchmark(cells=4).reference("H100")
        assert a is b

    def test_distinct_configs_not_shared(self):
        a = LJBenchmark(cells=4).reference("H100")
        b = LJBenchmark(cells=4, team=True).reference("H100")
        assert a is not b

    def test_merge_averages_per_step(self):
        p = KernelProfile("k", flops=10.0, launches=1, parallel_items=100)
        merged = _merge_step_profiles([p, p, p, p], nsteps=2)
        assert merged["k"].flops == pytest.approx(20.0)
        assert merged["k"].launches == 2
        assert merged["k"].parallel_items == 100  # per-launch, not averaged


class TestClusterModel:
    def test_ghost_count_surface_to_volume(self):
        small = ghost_atoms(1_000, density=0.8, cutoff=2.5)
        big = ghost_atoms(1_000_000, density=0.8, cutoff=2.5)
        # ghost FRACTION shrinks with subdomain size
        assert small / 1_000 > big / 1_000_000

    def test_does_not_fit_returns_none(self, lj_ref):
        t = cluster_step_time(lj_ref, get_machine("alps"), 10**12, 1)
        assert t is None

    def test_more_nodes_never_hurt_much_in_scaling_regime(self, lj_ref):
        m = get_machine("alps")
        t4 = cluster_step_time(lj_ref, m, 16_000_000, 4)
        t16 = cluster_step_time(lj_ref, m, 16_000_000, 16)
        assert t16 < t4

    def test_curve_skips_beyond_machine(self, lj_ref):
        m = get_machine("eos")  # max 256 nodes
        curve = strong_scaling_curve(lj_ref, m, 16_000_000, [128, 256, 512])
        assert [n for n, _ in curve] == [128, 256]

    def test_parallel_efficiency_starts_at_one(self, lj_ref):
        m = get_machine("alps")
        curve = strong_scaling_curve(lj_ref, m, 16_000_000, [1, 2, 4, 8])
        eff = dict(parallel_efficiency(curve))
        assert eff[1] == pytest.approx(1.0)
        assert all(0 < v <= 1.2 for v in eff.values())

    def test_snap_vs_lj_efficiency_ordering(self, lj_ref):
        """SNAP's heavier compute hides comm: better efficiency at scale."""
        snap_ref = SNAPBenchmark(cells=2, twojmax=4).reference("H100")
        m = get_machine("alps")
        lj_eff = dict(
            parallel_efficiency(
                strong_scaling_curve(lj_ref, m, 4_000_000, [1, 64])
            )
        )[64]
        snap_eff = dict(
            parallel_efficiency(
                strong_scaling_curve(snap_ref, m, 4_000_000, [1, 64])
            )
        )[64]
        assert snap_eff > lj_eff


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, None]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "-" in lines[2]
        assert "-" in lines[4].split()[-1]  # None rendered as '-'

    def test_format_series_merges_x(self):
        out = format_series("x", {"s1": [(1, 2.0)], "s2": [(2, 3.0)]})
        assert "s1" in out and "s2" in out
        assert len(out.splitlines()) == 4  # header, rule, two x rows


class TestWorkloads:
    def test_hns_stoichiometry(self):
        x, types, box = hns_configuration(3, 3, 3)
        assert len(x) == 27 * len(CHAIN_TYPES)
        counts = np.bincount(types, minlength=5)[1:]
        # C2 H1 N1 O2 per chain: CHNO ratios close to HNS
        assert counts[0] == 2 * 27  # C
        assert counts[1] == 1 * 27  # H
        assert counts[3] == 2 * 27  # O

    def test_hns_density_hns_like(self):
        x, types, box = hns_configuration(3, 3, 3)
        density = len(x) / np.prod(box)
        assert 0.06 < density < 0.11  # ~0.084 atoms/A^3 for real HNS

    def test_hns_no_overlaps(self):
        from scipy.spatial.distance import pdist

        x, _, _ = hns_configuration(2, 2, 2)
        assert pdist(x).min() > 0.9  # shortest bond ~1.35 A minus jitter

    def test_hns_deterministic_by_seed(self):
        a, _, _ = hns_configuration(2, 2, 2, seed=5)
        b, _, _ = hns_configuration(2, 2, 2, seed=5)
        c, _, _ = hns_configuration(2, 2, 2, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_invalid_cells(self):
        with pytest.raises(ValueError):
            hns_configuration(0, 1, 1)


class TestOverlapModel:
    def test_overlapped_phase_time(self):
        from repro.hardware.cost import overlapped_phase_time

        # comm-bound: boundary pass is the only exposed compute
        assert overlapped_phase_time(3.0, 2.0, 1.0) == 4.0
        # compute-bound: comm fully hidden behind the interior pass
        assert overlapped_phase_time(1.0, 2.0, 0.5) == 2.5
        assert overlapped_phase_time(0.0, 0.0, 0.0) == 0.0
        with pytest.raises(ValueError):
            overlapped_phase_time(-1.0, 1.0, 1.0)

    def test_interior_fraction_bounds(self):
        from repro.bench import interior_fraction

        # fat brick: nearly all pairs are owned-owned
        assert interior_fraction(1e7, 0.8442, 2.5) > 0.9
        # sliver thinner than the cutoff: small but strictly positive
        tiny = interior_fraction(8.0, 0.8442, 2.5)
        assert 0.0 < tiny < 0.3
        assert interior_fraction(0.0, 0.8442, 2.5) == 0.0
        # monotone in the brick size
        fracs = [interior_fraction(n, 0.8442, 2.5) for n in (1e2, 1e4, 1e6)]
        assert fracs == sorted(fracs)

    def test_splittable_step_time_selects_overlap_kernels(self, lj_ref):
        split = lj_ref.splittable_step_time("H100", lj_ref.natoms)
        total = lj_ref.step_time("H100", lj_ref.natoms)
        assert 0.0 < split < total

    def test_cluster_overlap_strictly_faster_multirank(self, lj_ref):
        from repro.bench import cluster_step_breakdown

        machine = get_machine("frontier")
        natoms = 16_000_000
        for nodes in (2, 4, 16, 64):
            off = cluster_step_breakdown(lj_ref, machine, natoms, nodes)
            on = cluster_step_breakdown(
                lj_ref, machine, natoms, nodes, overlap=True
            )
            assert on["total"] < off["total"], nodes
            # the win is exactly the hidden halo time
            gain = off["total"] - on["total"]
            assert gain == pytest.approx(on["hidden_comm"], abs=1e-15)
            assert 0.0 < on["interior_fraction"] < 1.0
            # interior + boundary tile the splittable kernel time
            assert on["interior"] + on["boundary"] <= on["kernel"] + 1e-15

    def test_single_node_overlap_single_rank_noop(self, lj_ref):
        from repro.bench import cluster_step_breakdown

        machine = get_machine("frontier")
        # pick a size that fits a single rank
        natoms = 1_000_000
        ranks_node1 = machine.ranks(1)
        assert ranks_node1 > 1  # frontier packs 8 GCDs per node
        off = cluster_step_breakdown(lj_ref, machine, natoms, 1)
        on = cluster_step_breakdown(lj_ref, machine, natoms, 1, overlap=True)
        assert on["total"] < off["total"]  # intra-node halo still hidden
