"""The ``python -m repro`` command-line entry point."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.__main__ import build_parser, main, resolve_device, workload_key

SCRIPT = """\
units lj
lattice fcc 0.8442
region box block 0 ${cells} 0 ${cells} 0 ${cells}
create_box 1 box
create_atoms 1 box
mass 1 1.0
velocity all create 1.44 87287
pair_style lj/cut 2.5
pair_coeff 1 1 1.0 1.0
fix 1 all nve
thermo 10
run 10
"""


@pytest.fixture
def script(tmp_path):
    p = tmp_path / "melt.in"
    p.write_text(SCRIPT)
    return str(p)


class TestDeviceResolution:
    def test_default_is_host(self):
        assert resolve_device(None) is None

    def test_k_off(self):
        assert resolve_device(["off"]) is None

    def test_k_on_default_gpu(self):
        assert resolve_device(["on"]) == "H100"

    def test_k_on_named_gpu(self):
        assert resolve_device(["on", "gpu", "MI300A"]) == "MI300A"

    def test_bad_k(self):
        with pytest.raises(SystemExit):
            resolve_device(["sideways"])


class TestRuns:
    def test_host_run(self, script, capsys):
        assert main(["-in", script, "-var", "cells", "3", "--quiet"]) == 0

    def test_kokkos_run(self, script):
        assert main(
            ["-in", script, "-k", "on", "-sf", "kk", "-var", "cells", "3", "--quiet"]
        ) == 0

    def test_multirank_run(self, script):
        assert main(
            ["-in", script, "-np", "2", "-var", "cells", "3", "--quiet"]
        ) == 0

    def test_thermo_printed_by_default(self, script, capsys):
        main(["-in", script, "-var", "cells", "3"])
        out = capsys.readouterr().out
        assert "Step" in out and "etotal" in out

    def test_missing_variable_surfaces_error(self, script):
        from repro.core.errors import InputError

        with pytest.raises(InputError, match="undefined variable"):
            main(["-in", script, "--quiet"])  # ${cells} never defined

    def test_missing_script_and_bench_flags(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        assert "(-in FILE) or --analyze-trace is required" in capsys.readouterr().err
        assert "--bench" not in build_parser().format_help()


class TestWorkloadKey:
    def test_lammps_script_names_map_to_the_bare_workload(self):
        for name in ("in.melt", "melt.in", "melt.lmp", "some/dir/in.melt"):
            assert workload_key(name) == "melt"
        assert workload_key("in.eam.quench") == "eam.quench"
        assert workload_key("run.txt") == "run.txt"
        assert workload_key("in.") == "in."

    def test_in_scripts_land_under_different_plan_keys(self, tmp_path):
        import json

        plan = tmp_path / "tuned_plan.json"
        for name in ("in.melt", "in.eam"):
            path = tmp_path / name
            path.write_text(SCRIPT)
            assert main([
                "-in", str(path), "-var", "cells", "2", "--quiet",
                "--autotune", "model", "--tune-plan", str(plan),
            ]) == 0
        assert set(json.loads(plan.read_text())["plans"]) == {"melt", "eam"}


class TestLazyScipy:
    """scipy (~0.5 s to import) loads only for the two styles that use it,
    and the subsystems behind ``-r`` / ``--autotune`` only under those flags."""

    @staticmethod
    def _python(code: str) -> str:
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_importing_the_cli_does_not_import_scipy(self):
        out = self._python(
            "import sys, repro.__main__\n"
            "heavy = ('scipy', 'asyncio', 'ssl', 'subprocess')\n"
            "lazy = ('repro.bench', 'repro.tune', 'repro.replica')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in heavy\n"
            "             or m.startswith(lazy)))"
        )
        assert out.strip() == "[]"

    def test_a_replica_run_never_loads_asyncio(self, script):
        out = self._python(
            "import sys, repro.__main__\n"
            f"repro.__main__.main(['-in', {script!r}, '-var', 'cells', '2',\n"
            "                     '-r', '2', '--quiet'])\n"
            "print('repro.replica' in sys.modules, 'asyncio' in sys.modules)"
        )
        assert out.split() == ["True", "False"]

    #: run in a fresh interpreter: ``lj/cut/coul/long``, then funcfl ``eam``
    USERS = r"""
import sys
import numpy as np
import repro.__main__
from repro.core import Lammps
from repro.potentials.eam_file import write_funcfl

assert "scipy" not in sys.modules
BOX = ("units metal\natom_style charge\nlattice fcc 3.52\n"
       "region b block 0 3 0 3 0 3\ncreate_box 1 b\ncreate_atoms 1 box\n"
       "mass 1 58.7\nvelocity all create 300 1\nfix 1 all nve\n")
write_funcfl(FUNCFL, element="Ni", mass=58.7, cutoff=4.5,
             f_of_rho=lambda rho: -2.0 * np.sqrt(rho),
             z_of_r=lambda r: 0.1 * (4.5 - r),
             rho_of_r=lambda r: (4.5 - r) ** 2, nrho=200, rho_max=60.0, nr=200)
coul = Lammps(quiet=True)
coul.commands_string(BOX + "set type 1 charge 0.0\nkspace_style ewald 1e-4\n"
                     "pair_style lj/cut/coul/long 3.0\npair_coeff 1 1 0.01 2.2\nrun 2")
assert "scipy.special" in sys.modules and "scipy.interpolate" not in sys.modules
eam = Lammps(quiet=True)
eam.commands_string(BOX + "pair_style eam\npair_coeff * * " + FUNCFL + "\nrun 2")
assert "scipy.interpolate" in sys.modules
print(np.isfinite(eam.pair.eng_vdwl), np.isfinite(coul.pair.eng_vdwl))
"""

    def test_the_styles_that_need_it_still_load_it(self, tmp_path):
        funcfl = str(tmp_path / "ni.funcfl")
        out = self._python(f"FUNCFL = {funcfl!r}\n" + self.USERS)
        assert out.split() == ["True", "True"]
