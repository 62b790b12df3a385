"""DualView modify/sync protocol (paper section 3.2)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.kokkos as kk


@pytest.fixture(autouse=True)
def _runtime():
    kk.initialize("H100")
    yield
    kk.finalize()


class TestSyncProtocol:
    def test_fresh_dualview_needs_no_sync(self):
        dv = kk.DualView(np.zeros(4), label="f")
        assert not dv.need_sync(kk.Host)
        assert not dv.need_sync(kk.Device)

    def test_host_modify_marks_device_stale(self):
        dv = kk.DualView(np.zeros(4), label="x")
        dv.h_view.data[:] = 3.0
        dv.modify(kk.Host)
        assert dv.need_sync(kk.Device)
        assert not dv.need_sync(kk.Host)

    def test_sync_moves_data_once(self):
        dv = kk.DualView(np.zeros(4), label="x")
        dv.h_view.data[:] = 3.0
        dv.modify(kk.Host)
        assert dv.sync(kk.Device) is True
        assert np.all(dv.d_view.data == 3.0)
        # second sync is a no-op — the core promise of section 3.2
        assert dv.sync(kk.Device) is False

    def test_sync_in_current_space_never_transfers(self):
        dv = kk.DualView(np.zeros(4), label="x")
        dv.h_view.data[:] = 1.0
        dv.modify(kk.Host)
        assert dv.sync(kk.Host) is False  # host already current

    def test_roundtrip(self):
        dv = kk.DualView(np.zeros(3), label="q")
        dv.h_view.data[:] = 1.0
        dv.modify(kk.Host)
        dv.sync(kk.Device)
        dv.d_view.data[:] += 1.0
        dv.modify(kk.Device)
        dv.sync(kk.Host)
        assert np.all(dv.h_view.data == 2.0)

    def test_conflicting_modify_raises(self):
        dv = kk.DualView(np.zeros(3), label="x")
        dv.modify(kk.Host)
        with pytest.raises(RuntimeError, match="sync first"):
            dv.modify(kk.Device)


class TestTransferAccounting:
    def test_sync_charges_transfer_time(self):
        ctx = kk.device_context()
        dv = kk.DualView(np.zeros(1000), label="big")
        dv.modify(kk.Host)
        before = ctx.timeline.total()
        dv.sync(kk.Device)
        assert ctx.timeline.total() > before
        assert any("dualview_sync" in k for k in ctx.timeline.entries)


class TestHostOnlyBuild:
    def test_views_alias_in_host_build(self):
        kk.initialize(None)  # pure host: sync machinery must cost nothing
        dv = kk.DualView(np.zeros(4), label="x")
        assert dv.d_view is dv.h_view
        dv.h_view.data[:] = 5.0
        dv.modify(kk.Host)
        ctx = kk.device_context()
        before = ctx.timeline.total()
        dv.sync(kk.Device)
        assert ctx.timeline.total() == before  # zero overhead
        assert np.all(dv.d_view.data == 5.0)


class TestAtomAliasing:
    @pytest.mark.parametrize("device", [None, "H100"])
    def test_atom_dualview_host_side_is_the_atom_array(self, device):
        """The one constructor aliases the AtomVec allocation (figure 1), in
        host-only and device builds alike."""
        from repro.core.atom import AtomVec
        from repro.core.atom_kokkos import AtomKokkos

        kk.initialize(device)
        atom = AtomVec()
        atom.add_local(np.zeros((4, 3)))
        atom_kk = AtomKokkos(atom)
        for name in AtomVec.FIELD_DTYPES:
            assert atom_kk.dual(name).h_view.data is getattr(atom, name), name
        assert (atom_kk.dual("x").d_view is atom_kk.dual("x").h_view) == (device is None)
