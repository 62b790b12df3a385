"""Kokkos list/newton overrides (``Lammps.package_kokkos``, set by the
autotuner) and the post-run summary."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_melt


class TestPackageKokkos:
    def test_package_overrides_pair_defaults(self):
        lmp = make_melt(device="H100", cells=2, suffix="kk")
        lmp.package_kokkos.update(neigh="half", newton=True)
        lmp.command("run 0")
        assert lmp.pair.neighbor_request() == ("half", True)

    def test_conflicting_package_settings(self):
        from repro.core.errors import InputError

        lmp = make_melt(device="H100", cells=2, suffix="kk")
        lmp.package_kokkos.update(neigh="full", newton=True)
        with pytest.raises(InputError, match="newton on requires"):
            lmp.command("run 0")

    def test_physics_invariant_under_package_knobs(self):
        ref = make_melt(cells=3)
        ref.command("run 5")
        kkr = make_melt(device="H100", cells=3, suffix="kk")
        kkr.package_kokkos.update(neigh="half", newton=True)
        kkr.command("run 5")
        from conftest import gather_by_tag

        np.testing.assert_allclose(
            gather_by_tag(kkr, "f"), gather_by_tag(ref, "f"), atol=1e-9
        )


class TestRunSummary:
    def test_stats_recorded(self):
        lmp = make_melt(device="H100", cells=2, suffix="kk")
        lmp.command("run 5")
        s = lmp.last_run_stats
        assert s["steps"] == 5
        assert s["wall"] > 0
        assert s["simulated_device"] > 0
