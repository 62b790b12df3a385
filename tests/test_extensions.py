"""Extension styles: the GPU package."""

from __future__ import annotations

import numpy as np

import repro.kokkos as kk
from conftest import gather_by_tag, make_melt


class TestGPUPackage:
    def test_same_physics_as_plain(self):
        plain = make_melt(cells=3)
        plain.command("run 10")
        gpu = make_melt(device="H100", cells=3, pair_style="lj/cut/gpu")
        gpu.command("run 10")
        np.testing.assert_allclose(
            gather_by_tag(gpu, "f"), gather_by_tag(plain, "f"), atol=1e-12
        )

    def test_transfers_charged_every_step(self):
        gpu = make_melt(device="H100", cells=2, pair_style="lj/cut/gpu")
        gpu.command("run 5")
        tl = kk.device_context().timeline
        # 6 force evaluations (setup + 5 steps), each with both transfers
        assert tl.counts["gpu_package::h2d_positions"] == 6
        assert tl.counts["gpu_package::d2h_forces"] == 6
        assert tl.kernel_total("gpu_package::h2d_positions") > 0

    def test_suffix_gpu_resolves(self):
        lmp = make_melt(device="H100", cells=2, suffix="gpu")
        assert type(lmp.pair).__name__ == "PairLJCutGPU"

    def test_host_build_skips_transfers(self):
        gpu = make_melt(device=None, cells=2, pair_style="lj/cut/gpu")
        gpu.command("run 2")
        tl = kk.device_context().timeline
        assert "gpu_package::h2d_positions" not in tl.entries
        assert "gpu_package::force_kernel" not in tl.entries

    def test_force_kernel_dispatch_runs_the_host_pass(self, monkeypatch):
        """The offloaded kernel's dispatch encloses the inherited host pass."""
        from repro.potentials.lj import PairLJCut

        gpu = make_melt(device="H100", cells=2, pair_style="lj/cut/gpu")
        log = []
        host_pass, parallel_for = PairLJCut.compute, kk.parallel_for

        def logged_pass(self, *args):
            log.append("pass")
            host_pass(self, *args)

        def logged_for(name, *args, **kwargs):
            log.append(f"begin {name}")
            parallel_for(name, *args, **kwargs)
            log.append(f"end {name}")

        monkeypatch.setattr(PairLJCut, "compute", logged_pass)
        monkeypatch.setattr(kk, "parallel_for", logged_for)
        gpu.command("run 2")
        kernel = "gpu_package::force_kernel"
        # the setup force call and two steps
        assert log == [f"begin {kernel}", "pass", f"end {kernel}"] * 3

