"""AtomKokkos aliasing/datamask, fixes_kokkos, and the profiling helpers."""

from __future__ import annotations

import numpy as np
import pytest

import repro.kokkos as kk
from conftest import make_melt
from repro.core.atom import AtomVec
from repro.core import Lammps
from repro.core.atom_kokkos import AtomKokkos
from repro.kokkos.core import Device, Host
from repro.kokkos.profiling import kernel_report, region, snapshot


class TestAtomKokkosAliasing:
    def setup_method(self):
        kk.initialize("H100")
        self.atom = AtomVec(ntypes=1)
        self.atom.add_local(np.ones((4, 3)))
        self.akk = AtomKokkos(self.atom)

    def test_host_view_aliases_plain_array(self):
        """Figure 1: the DualView host mirror IS the classic pointer."""
        hv = self.akk.view("x", Host)
        assert hv.data is self.atom.x

    def test_classic_write_visible_through_view(self):
        self.atom.x[0, 0] = 42.0
        assert self.akk.view("x", Host).data[0, 0] == 42.0

    def test_sync_device_after_host_write(self):
        self.atom.x[1, 1] = 7.0
        self.akk.modified(Host, ("x",))
        self.akk.sync(Device, ("x",))
        assert self.akk.view("x", Device).data[1, 1] == 7.0

    def test_device_write_flows_back(self):
        self.akk.view("f", Device).data[2, 0] = 3.5
        self.akk.modified(Device, ("f",))
        self.akk.sync(Host, ("f",))
        assert self.atom.f[2, 0] == 3.5

    def test_grow_rebuilds_aliases(self):
        dv_before = self.akk.dual("x")
        self.atom.grow(1000)
        dv_after = self.akk.dual("x")
        assert dv_after is not dv_before
        assert dv_after.h_view.data is self.atom.x  # re-aliased

    def test_unknown_field(self):
        with pytest.raises(KeyError, match="unknown atom field"):
            self.akk.dual("spin")

    def test_host_only_build_aliases_both_sides(self):
        kk.initialize(None)
        atom = AtomVec()
        atom.add_local(np.zeros((2, 3)))
        akk = AtomKokkos(atom)
        assert akk.view("x", Device).data is atom.x


class TestFixNVEKokkos:
    def test_suffix_selects_kokkos_fix(self):
        lmp = make_melt(device="H100", cells=2, suffix="kk")
        assert type(lmp.modify.fixes[0]).__name__ == "FixNVEKokkos"

    def test_integration_kernels_charged(self):
        lmp = make_melt(device="H100", cells=2, suffix="kk")
        lmp.command("run 3")
        tl = kk.device_context().timeline
        assert tl.counts["FixNVEInitialIntegrate"] == 3
        assert tl.counts["FixNVEFinalIntegrate"] == 3

    def test_same_trajectory_as_plain_fix(self):
        from conftest import gather_by_tag

        a = make_melt(device="H100", cells=2, suffix="kk")
        a.command("run 10")
        b = make_melt(cells=2)
        b.command("run 10")
        np.testing.assert_allclose(
            gather_by_tag(a, "x"), gather_by_tag(b, "x"), atol=1e-12
        )

    def test_functor_is_the_plain_update_bitwise(self):
        """Same pair style, only the fix differs: ``nve/kk``'s charged
        kernels run ``FixNVE``'s own update, so the trajectory is bitwise."""
        from conftest import MELT_SCRIPT

        runs = []
        for fix in ("nve", "nve/kk"):
            lmp = Lammps(device="H100")
            lmp.commands_string(
                MELT_SCRIPT.format(cells=2, pair_style="lj/cut", thermo=5)
                .replace("fix 1 all nve", f"fix 1 all {fix}")
            )
            lmp.command("run 10")
            runs.append(lmp)
        plain, kokkos = runs
        assert type(kokkos.modify.fixes[0]).__name__ == "FixNVEKokkos"
        for field in ("x", "v", "f"):
            assert np.array_equal(getattr(kokkos.atom, field), getattr(plain.atom, field))
        assert [r.values for r in kokkos.thermo.history] == [
            r.values for r in plain.thermo.history
        ]


class TestProfilingHelpers:
    def test_snapshot_delta(self):
        kk.initialize("H100")
        snap = snapshot()
        kk.parallel_for(
            "work",
            kk.RangePolicy(kk.Device, 0, 10),
            lambda i: None,
            profile=kk.KernelProfile("work", flops=1e9, parallel_items=1e6),
        )
        delta = snap.delta()
        assert "work" in delta and delta["work"] > 0
        assert snap.delta_total() >= delta["work"]

    def test_region_accumulates(self):
        kk.initialize("H100")
        out: dict = {}
        with region(out, "force"):
            kk.parallel_for(
                "k",
                kk.RangePolicy(kk.Device, 0, 10),
                lambda i: None,
                profile=kk.KernelProfile("k", flops=1e9, parallel_items=1e6),
            )
        assert out["force"] > 0

    def test_kernel_report_format(self):
        kk.initialize("H100")
        assert kernel_report() == "(no kernels recorded)"
        kk.parallel_for(
            "alpha",
            kk.RangePolicy(kk.Device, 0, 10),
            lambda i: None,
            profile=kk.KernelProfile("alpha", flops=1e9, parallel_items=1e6),
        )
        report = kernel_report(top=5)
        assert "alpha" in report
        assert "launches" in report


class TestDeviceContextControls:
    def test_on_device_restores_previous_context(self):
        ctx1 = kk.initialize("H100")
        ctx1.timeline.record("marker", 1.0)
        with kk.on_device("MI300A", carveout=0.5) as ctx2:
            assert ctx2.gpu.name == "AMD MI300A"
            assert ctx2.carveout == 0.5
            assert kk.device_context() is ctx2
        assert kk.device_context() is ctx1
        assert ctx1.timeline.kernel_total("marker") == 1.0

    def test_finalize_and_autoinit(self):
        kk.initialize("H100")
        kk.finalize()
        assert not kk.is_initialized()
        ctx = kk.device_context()  # auto-initializes
        assert kk.is_initialized()
        assert ctx.gpu is not None

    def test_host_only_transfer_free(self):
        kk.initialize(None)
        assert kk.device_context().transfer_time(10**9) == 0.0

    def test_transfer_time_scales(self):
        kk.initialize("H100")
        ctx = kk.device_context()
        assert ctx.transfer_time(10**9) > ctx.transfer_time(10**6) > 0


class TestSnapshotDeltaAcrossReset:
    def test_delta_survives_device_context_reset(self):
        """A timeline reset must yield the fresh total, not drop the kernel.

        ``kk.initialize`` replaces the device context, so accumulated
        totals restart from zero.  The old delta() returned nothing for a
        kernel whose new total was below the snapshot baseline; the fixed
        version reports the whole fresh total as new work.
        """
        kk.initialize("H100")
        kk.device_context().timeline.record("K", 2.0)
        snap = snapshot()
        kk.initialize("H100")  # context reset: accumulator restarts
        kk.device_context().timeline.record("K", 0.5)
        assert snap.delta()["K"] == pytest.approx(0.5)
        assert snap.delta_total() == pytest.approx(0.5)

    def test_delta_still_diffs_within_one_context(self):
        kk.initialize("H100")
        kk.device_context().timeline.record("K", 2.0)
        snap = snapshot()
        kk.device_context().timeline.record("K", 0.5)
        assert snap.delta()["K"] == pytest.approx(0.5)
