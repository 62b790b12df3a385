"""Style registry / suffix resolution and the input-script parser."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro

from conftest import make_melt
from repro.__main__ import main
from repro.core import Ensemble, Lammps, ReplicaSet
from repro.core.errors import InputError, StyleError
from repro.core.input import safe_eval
from repro.core.styles import (
    _REGISTRIES, STYLE_CATALOG, known_suffixes, register_pair, resolve_style,
)
from repro.potentials.lj import PairLJCut
from repro.potentials.lj_kokkos import PairLJCutKokkos
from repro.workloads.melt import MELT_TEMPLATE


class TestSuffixResolution:
    def test_plain_lookup(self):
        cls, extra = resolve_style("pair", "lj/cut", None)
        assert cls is PairLJCut and extra == {}

    def test_kk_suffix_prefers_accelerated(self):
        cls, _ = resolve_style("pair", "lj/cut", "kk")
        assert cls is PairLJCutKokkos

    def test_explicit_kk_device(self):
        cls, extra = resolve_style("pair", "lj/cut/kk/device", None)
        assert cls is PairLJCutKokkos and extra == {}

    def test_explicit_kk_host(self):
        cls, extra = resolve_style("pair", "lj/cut/kk/host", None)
        assert cls is PairLJCutKokkos
        assert extra == {"execution_space": "host"}

    def test_kk_host_global_suffix(self):
        cls, extra = resolve_style("pair", "lj/cut", "kk/host")
        assert cls is PairLJCutKokkos
        assert extra == {"execution_space": "host"}

    def test_suffix_falls_back_when_no_accelerated_variant(self):
        # eam/fs has no /gpu registration: the suffix falls back,
        # "without losing access" (section 3.1)
        cls, _ = resolve_style("pair", "eam/fs", "gpu")
        assert cls.style_name == "eam/fs"

    def test_known_suffixes_come_from_the_registries(self):
        assert known_suffixes() == ["gpu", "kk", "kk/device", "kk/host"]
        cls, extra = resolve_style("pair", "lj/cut", "kk/device")
        assert cls is PairLJCutKokkos and extra == {}

    @pytest.mark.parametrize("suffix", ["bogus", "kk/hst", "kokkos"])
    def test_unknown_suffix_is_refused_where_it_is_set(self, suffix, melt_script):
        with pytest.raises(StyleError, match=f"unknown suffix '{suffix}'.*expected one of: gpu"):
            main(["-in", melt_script, "-sf", suffix, "--quiet"])
        with pytest.raises(StyleError, match="did you mean 'kk/host'" if suffix == "kk/hst" else "expected"):
            Lammps(device=None, suffix=suffix)

    def test_unknown_style(self):
        known = ", ".join(sorted(STYLE_CATALOG["pair"]))
        with pytest.raises(StyleError, match=f"unknown pair style 'eam/alloy'; known: {known}$"):
            resolve_style("pair", "eam/alloy", None)

    def test_unknown_category(self):
        with pytest.raises(StyleError, match="category"):
            resolve_style("bond", "harmonic", None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(StyleError, match="duplicate"):
            register_pair("lj/cut")(PairLJCut)

    def test_registry_has_paper_styles(self):
        for name in ("lj/cut", "lj/cut/kk", "eam/fs", "eam/fs/kk",
                     "reaxff", "reaxff/kk", "snap", "snap/kk"):
            cls, extra = resolve_style("pair", name, None)
            assert cls.style_name == name and extra == {}


class TestStyleCatalog:
    """``STYLE_CATALOG`` and the registering decorators cannot drift: each
    package registers exactly the names the catalogue gives it, and a name
    the catalogue does not give the registering module's package is refused."""

    def test_each_package_registers_exactly_its_catalogued_names(self):
        code = (
            "import importlib, json\n"
            "from repro.core.styles import _REGISTRIES\n"
            "def names():\n"
            "    return {f'{c} {n}' for c, r in _REGISTRIES.items() for n in r}\n"
            "seen, before = {}, set()\n"
            "for pkg in ('repro.core', 'repro.potentials', 'repro.reaxff', 'repro.snap'):\n"
            "    importlib.import_module(pkg)\n"
            "    seen[pkg], before = sorted(names() - before), names()\n"
            "print(json.dumps(seen))"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        expected: dict[str, list[str]] = {}
        for category, styles in STYLE_CATALOG.items():
            for name, package in styles.items():
                expected.setdefault(package, []).append(f"{category} {name}")
        assert json.loads(done.stdout) == {k: sorted(v) for k, v in expected.items()}

    def test_every_registered_name_is_catalogued_under_its_own_package(self):
        for category, registry in _REGISTRIES.items():
            for name, cls in registry.items():
                package = STYLE_CATALOG[category][name]
                assert f"{cls.__module__}.".startswith(f"{package}."), (category, name)

    @pytest.mark.parametrize("name", ["morse", "snap"])
    def test_a_name_not_catalogued_under_the_package_is_refused(self, name):
        class PairStray(PairLJCut):
            pass

        with pytest.raises(StyleError, match=f"pair style '{name}' is not catalogued"):
            register_pair(name)(PairStray)
        assert _REGISTRIES["pair"].get(name) is not PairStray


class TestSafeEval:
    def test_arithmetic(self):
        assert safe_eval("2*(3+4)") == 14.0
        assert safe_eval("-3**2") == -9.0
        assert safe_eval("7 % 4 + 10 // 3") == 6.0

    def test_rejects_calls_and_names(self):
        with pytest.raises(InputError):
            safe_eval("__import__('os')")
        with pytest.raises(InputError):
            safe_eval("x + 1")

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            safe_eval("2 +")


class TestParser:
    def test_variables_and_substitution(self):
        lmp = Lammps(device=None)
        lmp.command("variable rho equal 0.8442")
        lmp.command("variable half equal ${rho}/2")
        assert lmp.variables["half"] == pytest.approx(0.4221)

    def test_integral_values_substitute_as_integers(self):
        lmp = Lammps(device=None)
        lmp.commands_string("variable n equal 5\nvariable t equal 1.5")
        assert lmp.variables["n"] == 5.0
        assert lmp.input._substitute("run ${n} ${t}") == "run 5 1.5"

    @pytest.mark.parametrize("driver", ["solo", "np2", "r2"])
    def test_run_count_is_substituted_and_checked_under_every_driver(self, driver):
        """``run ${n}`` runs and a bare ``run`` is a usage error, whether the
        instance or a multi-instance driver parses the line."""
        target = {
            "solo": lambda: Lammps(device=None),
            "np2": lambda: Ensemble(2, device=None),
            "r2": lambda: ReplicaSet(2, quiet=True),
        }[driver]()
        target.commands_string(MELT_TEMPLATE.format(cells=3, pair_style="lj/cut"))
        target.command("variable n equal 5")
        target.command("run ${n}")
        members = getattr(target, "ranks", None) or getattr(target, "replicas", [target])
        assert [m.update.ntimestep for m in members] == [5] * len(members)
        with pytest.raises(InputError, match=r"usage: run <N>"):
            target.command("run")
        with pytest.raises(InputError, match="'2.5'"):
            target.command("run 2.5")

    def test_undefined_variable(self):
        lmp = Lammps(device=None)
        with pytest.raises(InputError, match="undefined variable"):
            lmp.command("lattice fcc ${missing}")

    def test_comments_and_continuations(self):
        lmp = Lammps(device=None)
        lmp.commands_string(
            "variable a & \n equal 3 # trailing comment\n# full comment\n"
        )
        assert lmp.variables["a"] == 3.0

    def test_unknown_command(self):
        with pytest.raises(InputError, match="unknown command"):
            Lammps(device=None).command("flux_capacitor on")

    def test_bad_usage_messages(self):
        lmp = Lammps(device=None)
        with pytest.raises(InputError, match="usage"):
            lmp.command("units")
        with pytest.raises(InputError, match="timestep"):
            lmp.command("timestep -0.1")

    def test_pair_coeff_before_style(self):
        lmp = Lammps(device=None)
        with pytest.raises(InputError, match="pair_coeff before pair_style"):
            lmp.command("pair_coeff 1 1 1.0 1.0")

    def test_region_scaled_by_lattice(self):
        lmp = Lammps(device=None)
        lmp.commands_string("units lj\nlattice fcc 0.8442\nregion r block 0 2 0 2 0 2")
        a = (4 / 0.8442) ** (1 / 3)
        assert lmp.regions["r"].hi[0] == pytest.approx(2 * a)

    def test_duplicate_box(self):
        lmp = Lammps(device=None)
        lmp.commands_string(
            "units lj\nlattice fcc 1.0\nregion b block 0 2 0 2 0 2\ncreate_box 1 b"
        )
        with pytest.raises(InputError, match="already exists"):
            lmp.command("create_box 1 b")

    def test_fix_unknown_group(self):
        lmp = make_melt(cells=2)
        with pytest.raises(InputError, match="unknown group"):
            lmp.command("fix 2 ghosts nve")

    def test_neigh_modify(self):
        lmp = Lammps(device=None)
        lmp.command("neigh_modify every 5 delay 2 check no")
        assert lmp.neighbor.every == 5
        assert lmp.neighbor.delay == 2
        assert lmp.neighbor.check is False
        with pytest.raises(InputError, match="unknown keyword"):
            lmp.command("neigh_modify sometimes yes")

    def test_neigh_modify_every_must_be_positive(self):
        """LAMMPS rejects ``every`` <= 0; ``delay 0`` stays legal."""
        lmp = Lammps(device=None)
        with pytest.raises(InputError, match="positive integer, got '0'"):
            lmp.command("neigh_modify every 0")
        assert lmp.neighbor.every == 1
        lmp.command("neigh_modify every 3 delay 0")
        assert (lmp.neighbor.every, lmp.neighbor.delay) == (3, 0)

    @pytest.mark.parametrize("line,token", [
        ("neigh_modify check maybe", "'maybe'"),
        ("neigh_modify every", "'every'"),
        ("neigh_modify every -5", "'-5'"),
        ("neigh_modify delay -3", "'-3'"),
        ("boundary p p q", "'q'"),
        ("neighbor 0.3 multi", "'multi'"),
        ("thermo -5", "'-5'"),
    ])
    def test_malformed_input_is_refused_naming_the_token(self, line, token):
        lmp = Lammps(device=None)
        before = (lmp.neighbor.every, lmp.neighbor.delay, lmp.neighbor.check,
                  lmp.neighbor.skin, lmp.domain.periodic, lmp.thermo.every)
        with pytest.raises(InputError, match=token):
            lmp.command(line)
        assert before == (lmp.neighbor.every, lmp.neighbor.delay, lmp.neighbor.check,
                          lmp.neighbor.skin, lmp.domain.periodic, lmp.thermo.every)

    def test_mass_wildcard(self):
        lmp = Lammps(device=None)
        lmp.commands_string(
            "units lj\nlattice fcc 1.0\nregion b block 0 2 0 2 0 2\ncreate_box 3 b"
        )
        lmp.command("mass * 2.5")
        assert np.all(lmp.atom.mass[1:] == 2.5)
