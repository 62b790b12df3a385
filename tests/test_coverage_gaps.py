"""Coverage for remaining surfaces: units, thermo options, file(), reporting."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_melt
from repro.bench.reporting import _fmt, format_table
from repro.core import Lammps
from repro.core.units import UNIT_SYSTEMS, get_units


class TestUnits:
    def test_three_systems_registered(self):
        assert set(UNIT_SYSTEMS) == {"lj", "metal", "real"}

    def test_lj_reduced(self):
        u = get_units("lj")
        assert u.boltz == 1.0 and u.mvv2e == 1.0 and u.dt == 0.005

    def test_metal_constants(self):
        u = get_units("metal")
        assert u.boltz == pytest.approx(8.617333262e-5)
        assert u.mvv2e == pytest.approx(1.0364269e-4)
        assert u.qqr2e == pytest.approx(14.399645)

    def test_real_constants(self):
        u = get_units("real")
        # 1 (g/mol)(A/fs)^2 = 48.88821291^2 kcal/mol
        assert u.mvv2e == pytest.approx(48.88821291**2, rel=1e-9)

    def test_ftm2v_inverse(self):
        for u in UNIT_SYSTEMS.values():
            assert u.ftm2v == pytest.approx(1.0 / u.mvv2e)

    def test_unknown_units(self):
        with pytest.raises(KeyError):
            get_units("cgs")

    def test_units_command_resets_skin_and_dt(self):
        lmp = Lammps(device=None)
        lmp.command("units metal")
        assert lmp.update.dt == 0.001
        assert lmp.neighbor.skin == 2.0


class TestMetalTemperatureConsistency:
    def test_velocity_create_hits_kelvin_target(self):
        lmp = Lammps(device=None)
        lmp.commands_string(
            "units metal\nlattice fcc 3.52\nregion b block 0 3 0 3 0 3\n"
            "create_box 1 b\ncreate_atoms 1 box\nmass 1 58.7\n"
            "velocity all create 750 42\n"
            "pair_style eam/fs 4.5\npair_coeff * * 2.0 0.3\nfix 1 all nve"
        )
        lmp.command("run 0")
        assert lmp.thermo.history[0]["temp"] == pytest.approx(750.0, rel=1e-9)


class TestThermoOptions:
    def test_normalize_per_atom(self):
        lmp = make_melt(cells=2)
        lmp.thermo.normalize = True
        lmp.command("run 0")
        e = lmp.thermo.history[0]["etotal"]
        assert -5.0 < e < -4.0  # per-atom LJ melt energy scale

    def test_record_indexing(self):
        lmp = make_melt(cells=2)
        lmp.command("run 0")
        rec = lmp.thermo.history[0]
        assert rec["temp"] == rec.values["temp"]


class TestFileInput:
    def test_cli_input_scripts_are_valid(self):
        """The shipped examples/scripts run end to end."""
        from repro.__main__ import main

        assert main(["-in", "examples/scripts/in.melt", "-var", "cells", "3",
                     "--quiet"]) == 0


class TestReportingEdgeCases:
    def test_fmt_variants(self):
        assert _fmt(None) == "-"
        assert _fmt(0.0) == "0"
        assert _fmt(1.23456e9) == "1.235e+09"
        assert _fmt(0.00001) == "1.000e-05"
        assert _fmt("abc") == "abc"

    def test_empty_table(self):
        out = format_table(["a", "b"], [])
        assert "a" in out and len(out.splitlines()) == 2


class TestHostOnlyEndToEnd:
    def test_device_none_runs_everything_without_kokkos_costs(self):
        import repro.kokkos as kk

        lmp = make_melt(device=None, cells=2)
        lmp.command("run 3")
        tl = kk.device_context().timeline
        # host-only run: no device kernels, no sync traffic
        assert all("dualview_sync" not in k for k in tl.entries)

    def test_kk_suffix_with_host_build(self):
        """suffix kk on a pure-host build = host-resident Kokkos styles."""
        lmp = make_melt(device=None, cells=2, suffix="kk")
        lmp.command("run 3")
        assert type(lmp.pair).__name__ == "PairLJCutKokkos"
        ref = make_melt(device=None, cells=2)
        ref.command("run 3")
        from conftest import gather_by_tag

        np.testing.assert_allclose(
            gather_by_tag(lmp, "f"), gather_by_tag(ref, "f"), atol=1e-9
        )
