"""Extension styles: the GPU package and Morse."""

from __future__ import annotations

import numpy as np
import pytest

import repro.kokkos as kk
from conftest import fd_force_check, gather_by_tag, make_melt
from repro.core import Lammps
from repro.core.errors import InputError


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
