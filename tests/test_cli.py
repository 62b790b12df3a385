"""The ``python -m repro`` command-line entry point."""

from __future__ import annotations

import ast
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

    @pytest.mark.parametrize("flag,count", [("-np", "0"), ("-np", "-2"), ("-r", "0"), ("-r", "-3")])
    def test_rank_and_replica_counts_below_one_are_usage_errors(self, script, flag, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-in", script, "-var", "cells", "2", "--quiet", flag, count])
        assert exc.value.code == 2
        assert f"{flag} must be >= 1, got {count}" in capsys.readouterr().err

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
        assert "an input script (-in FILE) is required" in capsys.readouterr().err
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
    """numpy is the one runtime dependency: no module imports scipy or
    networkx, and the subsystems behind ``-r`` / ``--autotune`` load only
    under those flags."""

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
            "lazy = ('repro.bench', 'repro.tune', 'repro.replica', 'repro.reaxff',\n"
            "        'repro.snap')\n"
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

    @pytest.mark.parametrize("pair_style,loaded", [
        ("lj/cut", "[]"), ("snap", "['repro.snap']"),
    ], ids=["melt", "snap"])
    def test_a_run_loads_only_the_style_packages_its_script_names(
        self, tmp_path, pair_style, loaded
    ):
        from repro.workloads.tantalum import TANTALUM_TEMPLATE

        path = tmp_path / "in.run"
        if pair_style == "snap":
            path.write_text(TANTALUM_TEMPLATE.format(cells=2, pair_style="snap", twojmax=2)
                            + "run 1\n")
        else:
            path.write_text(SCRIPT)
        out = self._python(
            "import sys, repro.__main__\n"
            f"repro.__main__.main(['-in', {str(path)!r}, '-var', 'cells', '2', '--quiet'])\n"
            "print(sorted(m for m in sys.modules if m in ('repro.reaxff', 'repro.snap')))"
        )
        assert out.strip() == loaded

    def test_no_module_imports_scipy_or_networkx(self):
        root = os.path.dirname(os.path.abspath(repro.__file__))
        found = []
        for dirpath, _, names in os.walk(root):
            for name in (n for n in names if n.endswith(".py")):
                path = os.path.join(dirpath, name)
                for node in ast.walk(ast.parse(open(path).read(), path)):
                    if isinstance(node, ast.Import):
                        mods = [a.name for a in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        mods = [node.module or ""]
                    else:
                        continue
                    found += [(path, m) for m in mods
                              if m.split(".")[0] in ("scipy", "networkx")]
        assert not found
