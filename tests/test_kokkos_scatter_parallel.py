"""ScatterView strategies and the parallel dispatch patterns."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kokkos as kk
from repro.kokkos.scatter_view import ATOMIC, DUPLICATED, ScatterView


@pytest.fixture(autouse=True)
def _runtime():
    kk.initialize("H100")
    yield
    kk.finalize()


class TestScatterView:
    def test_default_strategy_by_space(self):
        dv = ScatterView(kk.View((4,), space=kk.Device))
        hv = ScatterView(kk.View((4,), space=kk.Host))
        assert dv.strategy == ATOMIC
        assert hv.strategy == DUPLICATED

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            ScatterView(kk.View((4,)), strategy="magic")

    def test_duplicate_indices_accumulate(self):
        target = kk.View((3,))
        sv = ScatterView(target, strategy=ATOMIC)
        sv.access().add(np.array([0, 0, 2, 0]), np.array([1.0, 2.0, 5.0, 4.0]))
        sv.contribute()
        assert list(target.data) == [7.0, 0.0, 5.0]

    def test_atomic_add_counting(self):
        sv = ScatterView(kk.View((8,)), strategy=ATOMIC)
        sv.access().add(np.arange(8), np.ones(8))
        assert sv.atomic_adds == 8
        sv.reset()
        assert sv.atomic_adds == 0

    def test_duplicated_reports_footprint_not_atomics(self):
        sv = ScatterView(kk.View((8,)), strategy=DUPLICATED, duplicates=4)
        sv.access(thread=1).add(np.arange(8), np.ones(8))
        assert sv.atomic_adds == 0
        assert sv.duplicated_bytes == 8 * 8 * 4

    @given(
        n_target=st.integers(2, 12),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_strategy_equivalence(self, n_target, seed):
        """Both deconfliction strategies produce identical results."""
        kk.initialize("H100")
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n_target, size=50)
        vals = rng.normal(size=50)
        results = []
        for strategy in (ATOMIC, DUPLICATED):
            target = kk.View((n_target,))
            sv = ScatterView(target, strategy=strategy, duplicates=4)
            for t in range(4):
                sel = slice(t, None, 4)
                sv.access(thread=t).add(idx[sel], vals[sel])
            sv.contribute()
            results.append(target.data.copy())
        np.testing.assert_allclose(results[0], results[1], atol=1e-12)

    def test_2d_scatter(self):
        target = kk.View((4, 3))
        sv = ScatterView(target, strategy=ATOMIC)
        sv.access().add(np.array([1, 1]), np.array([[1.0, 0, 0], [0, 2.0, 0]]))
        sv.contribute()
        assert target.data[1, 0] == 1.0 and target.data[1, 1] == 2.0


class TestParallelFor:
    def test_vectorized_index_contract(self):
        out = np.zeros(10)

        def body(i):
            out[i] = 2 * i

        kk.parallel_for("fill", kk.RangePolicy(kk.Device, 0, 10), body)
        assert np.array_equal(out, 2 * np.arange(10))

    def test_records_simulated_time(self):
        ctx = kk.device_context()
        prof = kk.KernelProfile("work", flops=1e9, parallel_items=1e6)
        kk.parallel_for("work", kk.RangePolicy(1000), lambda i: None, profile=prof)
        assert ctx.timeline.kernel_total("work") > 0


class TestParallelReduce:
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_sum_matches_numpy(self, values):
        kk.initialize("H100")
        arr = np.asarray(values)
        total = kk.parallel_reduce(
            "sum", kk.RangePolicy(len(arr)), lambda i: arr[i]
        )
        assert total == pytest.approx(arr.sum(), rel=1e-12, abs=1e-12)

    def test_custom_reducer(self):
        arr = np.array([3.0, -7.0, 5.0])
        result = kk.parallel_reduce(
            "max", kk.RangePolicy(3), lambda i: arr[i], reducer=np.max
        )
        assert result == 5.0


class TestParallelScan:
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_exclusive_scan_matches_numpy(self, values):
        kk.initialize("H100")
        arr = np.asarray(values)
        scan, total = kk.parallel_scan(
            "scan", kk.RangePolicy(len(arr)), lambda i: arr[i]
        )
        expected = np.concatenate([[0], np.cumsum(arr)[:-1]])
        assert np.array_equal(scan, expected)
        assert total == arr.sum()

    def test_inclusive_option(self):
        scan, total = kk.parallel_scan(
            "s", kk.RangePolicy(4), lambda i: np.ones(4), exclusive=False
        )
        assert list(scan) == [1, 2, 3, 4]

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError, match="scan functor"):
            kk.parallel_scan("s", kk.RangePolicy(4), lambda i: np.ones(3))
