"""Lennard-Jones: values, forces, mixing, shift, Kokkos variants."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import fd_force_check, gather_by_tag, make_melt
from repro.core import Lammps
from repro.core.errors import InputError


class TestPhysics:
    def test_melt_cohesive_energy(self):
        """The canonical LAMMPS melt: E/N = -4.6218 at rho*=0.8442, T*=1.44."""
        lmp = make_melt(cells=4)
        lmp.command("run 0")
        e_per_atom = lmp.thermo.history[0]["etotal"] / lmp.natoms_total
        assert e_per_atom == pytest.approx(-4.6218, abs=5e-3)

    def test_dimer_minimum(self):
        """Two atoms at r = 2^(1/6) sigma: E = -eps, F = 0."""
        lmp = Lammps(device=None)
        lmp.commands_string(
            "units lj\nregion b block 0 10 0 10 0 10\ncreate_box 1 b"
        )
        rmin = 2.0 ** (1.0 / 6.0)
        lmp.create_atoms_from_arrays(
            np.array([[5.0, 5, 5], [5.0 + rmin, 5, 5]]), np.array([1, 1])
        )
        lmp.commands_string(
            "mass 1 1.0\npair_style lj/cut 2.5\npair_coeff 1 1 1.0 1.0\nfix 1 all nve"
        )
        lmp.command("run 0")
        assert lmp.pair.eng_vdwl == pytest.approx(-1.0, abs=1e-12)
        assert np.abs(lmp.atom.f[:2]).max() < 1e-12

    def test_fd_forces(self):
        lmp = make_melt(cells=3)
        lmp.command("run 5")  # off-lattice configuration
        assert fd_force_check(lmp, [0, 11, 30]) < 1e-6

    def test_virial_matches_fd_of_volume(self):
        """Pressure from the virial agrees with -dE/dV (cold lattice)."""
        def energy_at_scale(s: float) -> tuple[float, float]:
            lmp = Lammps(device=None)
            a = (4 / 0.8442) ** (1 / 3) * s
            L = 3 * a
            lmp.commands_string(
                f"units lj\nregion b block 0 {L} 0 {L} 0 {L}\ncreate_box 1 b"
            )
            base = Lammps(device=None)
            base.commands_string(
                "units lj\nlattice fcc 0.8442\nregion b block 0 3 0 3 0 3\n"
                "create_box 1 b\ncreate_atoms 1 box\nmass 1 1.0"
            )
            x = base.atom.x[: base.atom.nlocal] * s
            lmp.create_atoms_from_arrays(x, np.ones(len(x), dtype=int))
            lmp.commands_string(
                "mass 1 1.0\npair_style lj/cut 2.5\npair_coeff 1 1 1.0 1.0\nfix 1 all nve"
            )
            lmp.command("run 0")
            vol = lmp.domain.volume
            press = lmp.internal_compute("pressure").finalize(
                lmp.internal_compute("pressure").local_partials()
            )
            return lmp.pair.eng_vdwl, vol, press

        eps = 2e-4
        e1, v1, _ = energy_at_scale(1.0 - eps)
        e2, v2, _ = energy_at_scale(1.0 + eps)
        _, _, p0 = energy_at_scale(1.0)
        p_fd = -(e2 - e1) / (v2 - v1)
        assert p0 == pytest.approx(p_fd, rel=2e-3)


class TestCoefficients:
    def make_two_type(self):
        lmp = Lammps(device=None)
        lmp.commands_string(
            "units lj\nlattice fcc 0.8442\nregion b block 0 2 0 2 0 2\n"
            "create_box 2 b\ncreate_atoms 1 box\nmass * 1.0\npair_style lj/cut 2.5"
        )
        return lmp

    def test_missing_coeff_detected(self):
        lmp = self.make_two_type()
        lmp.command("pair_coeff 1 1 1.0 1.0")
        lmp.command("fix 1 all nve")
        with pytest.raises(InputError, match="not set"):
            lmp.command("run 0")

    def test_wildcard_coeff(self):
        lmp = self.make_two_type()
        lmp.command("pair_coeff * * 1.0 1.0")
        assert lmp.pair.setflag[1:, 1:].all()

    def test_bad_pair_style_args(self):
        lmp = Lammps(device=None)
        lmp.commands_string(
            "units lj\nlattice fcc 1.0\nregion b block 0 2 0 2 0 2\ncreate_box 1 b"
        )
        with pytest.raises(InputError, match="cutoff"):
            lmp.command("pair_style lj/cut")
        with pytest.raises(InputError):
            lmp.command("pair_style lj/cut -2.5")


class TestKokkosVariants:
    @pytest.mark.parametrize(
        "style", ["lj/cut/kk", "lj/cut/kk/host", "lj/cut/kk/device"]
    )
    def test_matches_plain(self, style):
        ref = make_melt(cells=3)
        ref.command("run 10")
        kkr = make_melt(device="H100", cells=3, pair_style=style)
        kkr.command("run 10")
        np.testing.assert_allclose(
            gather_by_tag(kkr, "f"), gather_by_tag(ref, "f"), atol=1e-9
        )

    @pytest.mark.parametrize(
        "options",
        [
            dict(neigh="full", newton=False),
            dict(neigh="half", newton=False),
            dict(neigh="half", newton=True),
            dict(neigh="full", team=True),
        ],
    )
    def test_all_kernel_configs_identical_physics(self, options):
        ref = make_melt(cells=3)
        ref.command("run 10")
        kkr = make_melt(device="H100", cells=3, pair_style="lj/cut/kk")
        kkr.pair.set_options(**options)
        kkr.command("run 10")
        np.testing.assert_allclose(
            gather_by_tag(kkr, "f"), gather_by_tag(ref, "f"), atol=1e-9
        )
        e_ref = ref.thermo.history[-1]["etotal"]
        e_kk = kkr.thermo.history[-1]["etotal"]
        assert e_kk == pytest.approx(e_ref, abs=1e-9)

    def test_full_newton_combination_rejected(self):
        kkr = make_melt(device="H100", cells=2, pair_style="lj/cut/kk")
        with pytest.raises(InputError, match="newton on requires"):
            kkr.pair.set_options(neigh="full", newton=True)

    def test_suffix_selects_kokkos_style(self):
        lmp = make_melt(device="H100", cells=2, suffix="kk")
        assert type(lmp.pair).__name__ == "PairLJCutKokkos"

    def test_device_kernels_recorded(self):
        import repro.kokkos as kk

        lmp = make_melt(device="H100", cells=2, pair_style="lj/cut/kk")
        lmp.command("run 2")
        tl = kk.device_context().timeline
        assert tl.kernel_total("PairComputeLJCut") > 0
        assert tl.kernel_total("NeighborBuild") > 0

