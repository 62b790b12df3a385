"""Extension styles: GPU package, Morse, charged LJ, ML-IAP plug-ins."""

from __future__ import annotations

import numpy as np
import pytest

import repro.kokkos as kk
from conftest import fd_force_check, gather_by_tag, make_melt
from repro.core import Lammps
from repro.core.errors import InputError
from repro.potentials.mliap import (
    LinearSNAPModel,
    register_mliap_model,
    unregister_mliap_model,
)


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


class TestMorse:
    MORSE = """\
units lj
lattice fcc 0.8442
region box block 0 3 0 3 0 3
create_box 1 box
create_atoms 1 box
mass 1 1.0
velocity all create 1.0 777
pair_style {style} 2.5
pair_coeff 1 1 1.0 5.0 1.1
fix 1 all nve
thermo 10
"""

    def make(self, style="morse", device=None, suffix=None):
        lmp = Lammps(device=device, suffix=suffix)
        lmp.commands_string(self.MORSE.format(style=style))
        return lmp

    def test_dimer_minimum_at_r0(self):
        lmp = Lammps(device=None)
        lmp.commands_string("units lj\nregion b block 0 10 0 10 0 10\ncreate_box 1 b")
        lmp.create_atoms_from_arrays(
            np.array([[4.0, 5, 5], [5.1, 5, 5]]), np.array([1, 1])
        )
        lmp.commands_string(
            "mass 1 1.0\npair_style morse 2.5\npair_coeff 1 1 2.0 5.0 1.1\nfix 1 all nve"
        )
        lmp.command("run 0")
        assert lmp.pair.eng_vdwl == pytest.approx(-2.0, abs=1e-10)
        assert np.abs(lmp.atom.f[:2]).max() < 1e-9

    def test_fd_forces(self):
        lmp = self.make()
        lmp.command("run 3")
        assert fd_force_check(lmp, [0, 17]) < 1e-6

    def test_kk_variant_matches(self):
        plain = self.make()
        plain.command("run 5")
        kkr = self.make(device="H100", suffix="kk")
        assert type(kkr.pair).__name__ == "PairMorseKokkos"
        kkr.command("run 5")
        np.testing.assert_allclose(
            gather_by_tag(kkr, "f"), gather_by_tag(plain, "f"), atol=1e-9
        )

    def test_bad_coefficients(self):
        lmp = Lammps(device=None)
        lmp.commands_string(
            "units lj\nregion b block 0 9 0 9 0 9\ncreate_box 1 b\npair_style morse 2.5"
        )
        with pytest.raises(InputError):
            lmp.command("pair_coeff 1 1 1.0 -5.0 1.1")


class TestLJCoulCut:
    def make(self, q1=0.5, q2=-0.5, device=None, suffix=None, style="lj/cut/coul/cut"):
        lmp = Lammps(device=device, suffix=suffix)
        lmp.commands_string(
            "units lj\nlattice fcc 0.8442\nregion b block 0 3 0 3 0 3\n"
            "create_box 2 b\ncreate_atoms 1 box\nmass * 1.0\n"
        )
        lmp.atom.type[: lmp.atom.nlocal : 2] = 2  # alternate charges
        lmp.commands_string(
            f"pair_style {style} 2.5 3.0\npair_coeff * * 1.0 1.0\n"
            f"set type 1 charge {q1}\nset type 2 charge {q2}\n"
            "velocity all create 1.0 321\nfix 1 all nve\nthermo 10"
        )
        return lmp

    def test_neutral_charges_reduce_to_lj(self):
        charged = self.make(q1=0.0, q2=0.0)
        charged.command("run 0")
        lj = make_melt(cells=3)
        lj.command("run 0")
        assert charged.pair.eng_vdwl == pytest.approx(lj.pair.eng_vdwl, rel=1e-12)
        assert charged.pair.eng_coul == 0.0

    def test_opposite_charges_lower_energy(self):
        neutral = self.make(q1=0.0, q2=0.0)
        neutral.command("run 0")
        ionic = self.make(q1=0.5, q2=-0.5)
        ionic.command("run 0")
        # alternating +/- arrangement is Coulomb-stabilized
        assert ionic.pair.eng_coul < 0
        assert ionic.pair.eng_coul < neutral.pair.eng_coul

    def test_fd_forces_with_charges(self):
        lmp = self.make()
        lmp.command("run 2")
        assert fd_force_check(lmp, [0, 9]) < 1e-6

    def test_coulomb_cutoff_extends_neighbor_range(self):
        lmp = self.make()
        lmp.command("run 0")
        assert lmp.pair.max_cutoff() == 3.0

    def test_kk_matches_host(self):
        host = self.make()
        host.command("run 5")
        kkr = self.make(device="H100", suffix="kk")
        assert type(kkr.pair).__name__ == "PairLJCutCoulCutKokkos"
        kkr.command("run 5")
        np.testing.assert_allclose(
            gather_by_tag(kkr, "f"), gather_by_tag(host, "f"), atol=1e-9
        )
        # per channel: the kk style must not fold ecoul into evdwl
        assert host.pair.eng_coul != 0.0
        assert kkr.pair.eng_vdwl == pytest.approx(host.pair.eng_vdwl, rel=1e-12)
        assert kkr.pair.eng_coul == pytest.approx(host.pair.eng_coul, rel=1e-12)


class TestMLIAP:
    class SmoothWellModel:
        """E = sum_pairs k (rc^2 - r^2)^2 — smooth at the cutoff (test model)."""

        cutoff = 2.0
        k = 0.05

        def compute(self, rij, pair_i, nlocal):
            rsq = np.einsum("ij,ij->i", rij, rij)
            gap = self.cutoff**2 - rsq
            ei = np.zeros(nlocal)
            np.add.at(ei, pair_i, 0.5 * self.k * gap * gap)  # half per visit
            dedr = (-2.0 * self.k * gap)[:, None] * rij
            return ei, dedr

    def make(self, model_name="harmonic_test"):
        register_mliap_model(model_name, self.SmoothWellModel())
        lmp = Lammps(device=None)
        lmp.commands_string(
            "units lj\nlattice fcc 0.8442\nregion b block 0 3 0 3 0 3\n"
            "create_box 1 b\ncreate_atoms 1 box\nmass 1 1.0\n"
            "velocity all create 0.5 99\n"
            f"pair_style mliap\npair_coeff * * {model_name}\nfix 1 all nve\nthermo 10"
        )
        return lmp

    def teardown_method(self):
        unregister_mliap_model("harmonic_test")

    def test_python_model_drives_dynamics(self):
        lmp = self.make()
        lmp.command("run 10")
        h = lmp.thermo.history
        drift = abs(h[-1]["etotal"] - h[0]["etotal"]) / max(abs(h[0]["etotal"]), 1)
        assert drift < 1e-4

    def test_fd_forces(self):
        lmp = self.make()
        lmp.command("run 2")
        assert fd_force_check(lmp, [0, 21]) < 1e-6

    def test_unknown_model_rejected(self):
        lmp = Lammps(device=None)
        lmp.commands_string(
            "units lj\nregion b block 0 9 0 9 0 9\ncreate_box 1 b\npair_style mliap"
        )
        with pytest.raises(InputError, match="no mliap model registered"):
            lmp.command("pair_coeff * * nonexistent")

    def test_malformed_model_rejected(self):
        with pytest.raises(InputError, match="needs .cutoff"):
            register_mliap_model("bad", object())

    def test_linear_snap_model_matches_pair_snap(self):
        """Deploying SNAP through the ML-IAP plug-in reproduces the native
        pair style exactly (appendix A's two strategies, same physics)."""
        from repro.snap.pair_snap import synthetic_beta
        from repro.snap.indexing import SnapIndex
        from repro.workloads.tantalum import setup_tantalum

        native = Lammps(device=None)
        setup_tantalum(native, cells=2, twojmax=4)
        native.command("run 3")

        beta = synthetic_beta(SnapIndex(4).nbispectrum, 0.5, int(777 * 1.0))
        register_mliap_model("snap_ta", LinearSNAPModel(beta, 4, 4.7))
        try:
            plug = Lammps(device=None)
            plug.commands_string(
                "units metal\nboundary p p p\nlattice bcc 3.316\n"
                "region box block 0 2 0 2 0 2\ncreate_box 1 box\n"
                "create_atoms 1 box\nmass 1 180.95\n"
                "velocity all create 600.0 4928459\n"
                "pair_style mliap\npair_coeff * * snap_ta\n"
                "neighbor 1.0 bin\nneigh_modify every 20 delay 0 check no\n"
                "timestep 0.0005\nfix 1 all nve\nthermo 10"
            )
            plug.command("run 3")
            np.testing.assert_allclose(
                gather_by_tag(plug, "f"), gather_by_tag(native, "f"), atol=1e-10
            )
        finally:
            unregister_mliap_model("snap_ta")
