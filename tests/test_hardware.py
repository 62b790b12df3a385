"""Hardware model: specs, cache model, cost model, network."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import (
    GPUS,
    SKYLAKE_NODE,
    KernelCostModel,
    KernelProfile,
    NETWORKS,
    get_gpu,
    get_machine,
)
from repro.hardware.cache import l1_hit_fraction, l2_hit_fraction, shared_occupancy
from repro.hardware.cost import DeviceTimeline, heuristic_carveout
from repro.hardware.machine import MACHINES


class TestGPUSpecs:
    def test_table1_values(self):
        """Spot-check the paper's Table 1 transcription."""
        assert GPUS["V100"].hbm_bw_tbs == 0.9
        assert GPUS["A100"].hbm_gb == 40.0
        assert GPUS["H100"].fp64_tflops == 34.0
        assert GPUS["GH200"].hbm_bw_tbs == 4.0
        assert GPUS["MI250X"].fp64_tflops == 24.0
        assert GPUS["MI300A"].hbm_bw_tbs == 5.3
        assert GPUS["PVC"].l1_kb == 0.0  # "n/a" in the paper

    def test_lookup_case_insensitive(self):
        assert get_gpu("h100") is GPUS["H100"]

    def test_unknown_gpu_raises(self):
        with pytest.raises(KeyError, match="unknown GPU"):
            get_gpu("B200")

    def test_concurrency_exceeds_200k_on_modern_gpus(self):
        # section 5.1: "now exceed 200,000 simultaneously active threads"
        assert GPUS["H100"].max_threads > 200_000
        assert GPUS["MI300A"].max_threads > 200_000

    def test_carveout_split_conserves_pool(self):
        g = GPUS["H100"]
        for c in (0.0, 0.3, 0.7, 1.0):
            l1, sh = g.cache_split(c)
            assert l1 + sh == pytest.approx(g.l1_kb)
            assert l1 >= g.l1_kb * 0.125  # Hopper's minimum L1 slice

    def test_carveout_noop_on_fixed_cache_parts(self):
        g = GPUS["MI300A"]
        assert g.cache_split(0.0) == g.cache_split(1.0) == (32.0, 64.0)


class TestCacheModel:
    @given(
        l1=st.floats(1.0, 1024.0),
        ws=st.floats(1.0, 8192.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_hit_fraction_bounded_and_monotone(self, l1, ws):
        h = l1_hit_fraction(l1, ws)
        assert 0.0 <= h <= 0.95
        assert l1_hit_fraction(l1 * 2, ws) >= h
        assert l1_hit_fraction(l1, ws * 2) <= h

    def test_zero_cases(self):
        assert l1_hit_fraction(0.0, 100.0) == 0.0
        assert l1_hit_fraction(64.0, 0.0) == 0.95
        assert l2_hit_fraction(0.0, 1.0) == 0.0

    def test_occupancy_unthrottled_without_scratch(self):
        assert shared_occupancy(0.0, 0.0) == 1.0

    def test_occupancy_normalized_at_full(self):
        assert shared_occupancy(8 * 16.0, 16.0) == pytest.approx(1.0)

    def test_occupancy_floor_one_resident_team(self):
        # a kernel can always launch at least one team
        low = shared_occupancy(0.0, 24.0)
        assert 0.0 < low < 1.0

    def test_occupancy_monotone_in_capacity(self):
        vals = [shared_occupancy(kb, 20.0) for kb in (0, 40, 80, 160, 228)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestCostModel:
    model = KernelCostModel()

    def prof(self, **kw) -> KernelProfile:
        base = dict(name="k", parallel_items=1e7)
        base.update(kw)
        return KernelProfile(**base)

    def test_more_flops_more_time(self):
        a = self.model.gpu_time(self.prof(flops=1e10), get_gpu("H100"))
        b = self.model.gpu_time(self.prof(flops=2e10), get_gpu("H100"))
        assert b > a

    def test_faster_gpu_is_faster(self):
        p = self.prof(flops=1e10, bytes_streamed=1e9)
        assert self.model.gpu_time(p, get_gpu("H100")) < self.model.gpu_time(
            p, get_gpu("V100")
        )

    def test_launch_latency_floor(self):
        p = self.prof(launches=10)
        t = self.model.gpu_time(p, get_gpu("H100"))
        assert t >= 10 * get_gpu("H100").launch_latency_us * 1e-6

    def test_saturation_small_problems_slower_per_item(self):
        small = self.model.gpu_time(
            self.prof(flops=1e8, parallel_items=1e3), get_gpu("H100")
        )
        big = self.model.gpu_time(
            self.prof(flops=1e11, parallel_items=1e6), get_gpu("H100")
        )
        # per-flop cost at 1k items is far worse than at 1M items
        assert small / 1e8 > big / 1e11

    def test_atomics_term(self):
        base = self.prof(flops=1e8)
        heavy = self.prof(flops=1e8, atomic_ops=1e10)
        assert self.model.gpu_time(heavy, get_gpu("MI250X")) > self.model.gpu_time(
            base, get_gpu("MI250X")
        )

    def test_divergence_penalty(self):
        conv = self.prof(flops=1e11)
        div = self.prof(flops=1e11, convergent_fraction=0.25)
        assert self.model.gpu_time(div, get_gpu("H100")) > self.model.gpu_time(
            conv, get_gpu("H100")
        )

    def test_carveout_hurts_l1_kernels(self):
        p = self.prof(bytes_reusable=1e10, l1_working_set_kb=300.0)
        t0 = self.model.gpu_time(p, get_gpu("H100"), carveout=0.0)
        t1 = self.model.gpu_time(p, get_gpu("H100"), carveout=1.0)
        assert t1 > t0

    def test_carveout_helps_shared_kernels(self):
        p = self.prof(flops=1e11, shared_kb_per_team=24.0)
        t0 = self.model.gpu_time(p, get_gpu("H100"), carveout=0.0)
        t1 = self.model.gpu_time(p, get_gpu("H100"), carveout=1.0)
        assert t1 < t0

    def test_heuristic_carveout(self):
        g = get_gpu("H100")
        assert heuristic_carveout(self.prof(), g) == 0.0
        c = heuristic_carveout(self.prof(shared_kb_per_team=20.0), g)
        assert 0.0 < c <= 1.0
        # fixed-cache GPUs ignore the request
        assert heuristic_carveout(self.prof(shared_kb_per_team=20.0), get_gpu("MI300A")) == 0.0

    def test_cpu_efficiency_matters(self):
        slow = self.prof(flops=1e10, cpu_efficiency=0.05)
        fast = self.prof(flops=1e10, cpu_efficiency=0.2)
        assert self.model.cpu_time(slow, SKYLAKE_NODE) > self.model.cpu_time(
            fast, SKYLAKE_NODE
        )

    def test_profile_scaling_linear(self):
        p = self.prof(flops=1e10, bytes_streamed=1e9, atomic_ops=1e6)
        s = p.scaled(3.0)
        assert s.flops == 3e10 and s.atomic_ops == 3e6
        assert s.l1_working_set_kb == p.l1_working_set_kb  # blocking-invariant

    def test_profile_merge(self):
        a = KernelProfile("k", flops=1.0, launches=1, parallel_items=10)
        b = KernelProfile("k", flops=2.0, launches=2, parallel_items=20)
        m = a + b
        assert m.flops == 3.0 and m.launches == 3 and m.parallel_items == 20


class TestTimeline:
    def test_accumulates_and_breaks_down(self):
        tl = DeviceTimeline()
        tl.record("a", 1.0)
        tl.record("a", 2.0)
        tl.record("b", 0.5)
        assert tl.total() == 3.5
        assert tl.kernel_total("a") == 3.0
        assert tl.breakdown()[0][0] == "a"

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            DeviceTimeline().record("x", -1.0)


class TestNetwork:
    def test_ptp_latency_plus_bandwidth(self):
        net = NETWORKS["slingshot11"]
        assert net.ptp_time(0) == pytest.approx(net.latency_us * 1e-6)
        assert net.ptp_time(1e9) > net.ptp_time(1e6)

    def test_allreduce_grows_logarithmically(self):
        net = NETWORKS["slingshot11"]
        t64 = net.allreduce_time(8, 64)
        t4096 = net.allreduce_time(8, 4096)
        assert t4096 > t64
        assert t4096 < 3 * t64  # log, not linear

    def test_allreduce_single_rank_free(self):
        assert NETWORKS["ndr400"].allreduce_time(8, 1) == 0.0

    def test_negative_message_rejected(self):
        with pytest.raises(ValueError):
            NETWORKS["ndr400"].ptp_time(-1)


class TestMachines:
    def test_paper_machines_present(self):
        for name in ("frontier", "elcapitan", "aurora", "alps", "eos"):
            assert name in MACHINES

    def test_logical_gpu_counts(self):
        assert get_machine("frontier").gpus_per_node == 8  # 4 MI250X = 8 GCDs
        assert get_machine("aurora").gpus_per_node == 12  # 6 PVC = 12 stacks
        assert get_machine("eos").gpus_per_node == 4  # intentionally 4 of 8

    def test_rank_count(self):
        assert get_machine("alps").ranks(100) == 400

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            get_machine("alps").ranks(0)
