"""Integration loop, fixes, computes, thermo."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_melt
from repro.core import Lammps
from repro.core.errors import InputError, LammpsError, StyleError


class TestNVE:
    def test_momentum_conservation(self):
        lmp = make_melt(cells=3)
        lmp.command("run 50")
        atom = lmp.atom
        p = (atom.masses_of()[:, None] * atom.v[: atom.nlocal]).sum(axis=0)
        assert np.abs(p).max() < 1e-9

    def test_run_zero_computes_forces(self):
        lmp = make_melt(cells=2)
        lmp.command("run 0")
        assert np.abs(lmp.atom.f[: lmp.atom.nlocal]).max() > 0

    def test_run_without_pair_style(self):
        lmp = Lammps(device=None)
        lmp.commands_string(
            "units lj\nlattice fcc 1.0\nregion b block 0 2 0 2 0 2\n"
            "create_box 1 b\ncreate_atoms 1 box\nmass 1 1.0"
        )
        with pytest.raises(LammpsError, match="no pair style"):
            lmp.command("run 1")

    def test_negative_steps(self):
        lmp = make_melt(cells=2)
        with pytest.raises(LammpsError):
            lmp.run(-1)

    def test_timestep_counter(self):
        lmp = make_melt(cells=2)
        lmp.command("run 7")
        assert lmp.update.ntimestep == 7
        lmp.update.ntimestep = 100
        lmp.command("run 3")
        assert lmp.update.ntimestep == 103


class TestFixes:
    def test_fix_validation(self):
        lmp = make_melt(cells=2)
        with pytest.raises(StyleError, match="unknown fix style 'nve/limt'"):
            lmp.command("fix bad all nve/limt 0.1")
        with pytest.raises(InputError, match="unknown group"):
            lmp.command("fix bad ghosts nve")
        with pytest.raises(InputError, match="duplicate fix id"):
            lmp.command("fix 1 all nve")


class TestComputesAndThermo:
    def test_temperature_matches_velocity_create(self):
        lmp = make_melt(cells=3)
        lmp.command("run 0")
        assert lmp.thermo.history[0]["temp"] == pytest.approx(1.44, rel=1e-10)

    def test_etotal_is_pe_plus_ke(self):
        lmp = make_melt(cells=2)
        lmp.command("run 0")
        r = lmp.thermo.history[0]
        assert r["etotal"] == pytest.approx(r["pe"] + r["ke"])

    def test_pressure_sign_reasonable(self):
        lmp = make_melt(cells=3)
        lmp.command("run 0")
        # dense LJ solid at T=1.44: modest negative-to-small pressure
        assert -10 < lmp.thermo.history[0]["press"] < 10

    def test_thermo_interval(self):
        lmp = make_melt(cells=2, thermo=5)
        lmp.command("run 12")
        steps = [r.step for r in lmp.thermo.history]
        assert steps == [0, 5, 10]
