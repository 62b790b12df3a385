"""Views: layouts and aliasing."""

from __future__ import annotations

import numpy as np
import pytest
import repro.kokkos as kk
from repro.kokkos.layout import LayoutLeft, LayoutRight, default_layout


@pytest.fixture(autouse=True)
def _runtime():
    kk.initialize("H100")
    yield
    kk.finalize()


class TestLayouts:
    def test_default_layouts_per_space(self):
        assert default_layout(kk.Host) is LayoutRight
        assert default_layout(kk.Device) is LayoutLeft

    def test_host_view_is_c_contiguous(self):
        v = kk.View((5, 3), space=kk.Host)
        assert v.data.flags["C_CONTIGUOUS"]

    def test_device_view_is_f_contiguous(self):
        v = kk.View((5, 3), space=kk.Device)
        assert v.data.flags["F_CONTIGUOUS"]

    def test_layout_changes_strides(self):
        h = kk.View((100, 3), space=kk.Host)
        d = kk.View((100, 3), space=kk.Device)
        # Host: rows contiguous.  Device: columns contiguous (interleaved
        # rows), the neighbor-list coalescing layout of paper section 4.1.
        assert h.data.strides[1] < h.data.strides[0]
        assert d.data.strides[0] < d.data.strides[1]


class TestViewBasics:
    def test_scalar_shape_promotion(self):
        v = kk.View(7)
        assert v.shape == (7,)

    def test_wrap_existing_data_no_copy(self):
        base = np.zeros((4, 3))
        v = kk.View((4, 3), data=base, space=kk.Host)
        assert v.data is base  # aliased, not copied

    def test_wrap_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="data shape"):
            kk.View((4, 3), data=np.zeros((5, 3)))
