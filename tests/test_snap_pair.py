"""SNAP pair style: forces, dynamics, Kokkos tuning knobs, parallel."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import fd_force_check, gather_by_tag
from repro.core import Ensemble, Lammps
from repro.core.errors import InputError
from repro.workloads.tantalum import setup_tantalum


def make_ta(device=None, cells=2, twojmax=4, nranks=1, suffix=None, pair_style="snap"):
    target = Ensemble(nranks, device=device, suffix=suffix) if nranks > 1 else Lammps(
        device=device, suffix=suffix
    )
    setup_tantalum(target, cells=cells, pair_style=pair_style, twojmax=twojmax)
    return target


class TestForces:
    def test_fd_forces(self):
        lmp = make_ta()
        lmp.command("run 2")  # break lattice symmetry with real dynamics
        assert (
            fd_force_check(lmp, [0, 7], eps=1e-5, energy=lambda l: l.pair.eng_vdwl)
            < 1e-6
        )

    def test_perfect_lattice_zero_force(self):
        lmp = make_ta(cells=2)
        lmp.atom.v[:] = 0.0
        lmp.command("run 0")
        assert np.abs(lmp.atom.f[: lmp.atom.nlocal]).max() < 1e-9

    def test_forces_sum_to_zero(self):
        lmp = make_ta()
        lmp.command("run 3")
        assert np.abs(lmp.atom.f[: lmp.atom.nlocal].sum(axis=0)).max() < 1e-9

    def test_energy_deterministic_in_coefficients(self):
        a = make_ta()
        a.command("run 0")
        b = make_ta()
        b.command("run 0")
        assert a.pair.eng_vdwl == b.pair.eng_vdwl


class TestDynamics:
    def test_nve_conservation(self):
        lmp = make_ta(cells=2, twojmax=4)
        lmp.command("thermo 20")
        lmp.command("run 20")
        h = lmp.thermo.history
        drift = abs(h[-1]["etotal"] - h[0]["etotal"]) / max(abs(h[0]["etotal"]), 1.0)
        assert drift < 1e-5


class TestKokkos:
    def test_kk_matches_plain(self):
        plain = make_ta()
        plain.command("run 5")
        kkr = make_ta(device="H100", suffix="kk")
        assert type(kkr.pair).__name__ == "PairSNAPKokkos"
        kkr.command("run 5")
        np.testing.assert_allclose(
            gather_by_tag(kkr, "f"), gather_by_tag(plain, "f"), atol=1e-10
        )

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(ui_batch=1, yi_batch=1, fuse_deidrj=False),
            dict(ui_batch=8, yi_batch=2, tile_v=16),
            dict(tile_v=64),
        ],
    )
    def test_tuning_knobs_do_not_change_physics(self, knobs):
        """Batching/tiling are performance-only (Table 2's contract)."""
        ref = make_ta(device="H100", suffix="kk")
        ref.command("run 3")
        tuned = make_ta(device="H100", suffix="kk")
        tuned.pair.set_options(**knobs)
        tuned.command("run 3")
        np.testing.assert_array_equal(
            gather_by_tag(tuned, "f"), gather_by_tag(ref, "f")
        )

    def test_tuning_knobs_change_cost(self):
        import repro.kokkos as kk

        base = make_ta(device="H100", suffix="kk")
        base.pair.set_options(ui_batch=1)
        base.command("run 1")
        t_base = kk.device_context().timeline.kernel_total("ComputeUi")
        tuned = make_ta(device="H100", suffix="kk")
        tuned.pair.set_options(ui_batch=4)
        tuned.command("run 1")
        t_tuned = kk.device_context().timeline.kernel_total("ComputeUi")
        assert t_tuned < t_base

    def test_modeled_totals_are_charged_per_directed_pair(self):
        """The wall path recurses each pair once; the model still charges
        the directed list, as LAMMPS-Kokkos SNAP runs it — pinned bit for bit
        (2J = 8, 54 atoms, ``run 3`` on H100)."""
        import repro.kokkos as kk

        lmp = make_ta(device="H100", suffix="kk", cells=3, twojmax=8)
        lmp.command("run 3")
        tl = kk.device_context().timeline
        assert [
            tl.kernel_total(k) for k in ("ComputeUi", "ComputeYi", "ComputeFusedDeidrj")
        ] == [1.0224934256055363e-4, 2.353736619463127e-4, 3.4004122522469867e-4]

    def test_unfused_kernel_renamed(self):
        import repro.kokkos as kk

        lmp = make_ta(device="H100", suffix="kk")
        lmp.pair.set_options(fuse_deidrj=False)
        lmp.command("run 1")
        tl = kk.device_context().timeline
        assert tl.kernel_total("ComputeDeidrj") > 0
        assert tl.kernel_total("ComputeFusedDeidrj") == 0

    def test_bad_knobs(self):
        lmp = make_ta(device="H100", suffix="kk")
        with pytest.raises(InputError):
            lmp.pair.set_options(ui_batch=0)
        with pytest.raises(InputError):
            lmp.pair.set_options(tile_v=-1)


class TestParallel:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_decomposition_equivalence(self, nranks):
        single = make_ta(cells=2)
        single.command("run 5")
        multi = make_ta(cells=2, nranks=nranks)
        multi.command("run 5")
        np.testing.assert_allclose(
            gather_by_tag(multi, "f"), gather_by_tag(single, "f"), atol=1e-9
        )


class TestValidation:
    def test_twojmax_bounds(self):
        lmp = Lammps(device=None)
        lmp.commands_string("units metal\nregion b block 0 9 0 9 0 9\ncreate_box 1 b")
        with pytest.raises(InputError, match="twojmax"):
            lmp.command("pair_style snap 99 4.7")

    def test_single_type_only(self):
        lmp = Lammps(device=None)
        lmp.commands_string("units metal\nregion b block 0 9 0 9 0 9\ncreate_box 2 b")
        with pytest.raises(InputError, match="single atom type"):
            lmp.command("pair_style snap 4 4.7")

    def test_coeff_required_before_run(self):
        lmp = Lammps(device=None)
        lmp.commands_string(
            "units metal\nlattice bcc 3.316\nregion b block 0 2 0 2 0 2\n"
            "create_box 1 b\ncreate_atoms 1 box\nmass 1 180.95\n"
            "pair_style snap 4 4.7\nfix 1 all nve"
        )
        with pytest.raises(InputError, match="coefficients"):
            lmp.command("run 0")
