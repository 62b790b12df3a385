"""Autotuner behavior: determinism, surfaces (CLI / input script / thermo).

The determinism contract is the one CI leans on: with the ``model`` measure
(the calibrated cost model charges exact seconds, no timing noise) and a
fixed seed, two autotuned runs pick identical winners and produce identical
thermo — pinned against a golden trace under ``tests/golden/`` with the
standard ``--update-golden`` rebless path.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import MELT_SCRIPT, make_melt
from repro.core import Lammps
from repro.core.errors import InputError
from repro.graph import set_graph_mode
from repro.kokkos.segment import set_scatter_mode
from repro.tune import Autotuner

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _reset_modes():
    set_scatter_mode(None)
    set_graph_mode(None)
    yield
    set_scatter_mode(None)
    set_graph_mode(None)


def _run_autotuned(steps=15):
    lmp = make_melt(cells=2, suffix="kk", thermo=5)
    lmp.autotuner = Autotuner(
        measure="model", repeats=2, seed=11, plan_path=None,
        workload="melt", quiet=True,
    )
    lmp.run(steps)
    trace = [
        {
            "step": rec.step,
            **{
                k: (v if isinstance(v, str) else float(v))
                for k, v in rec.values.items()
            },
        }
        for rec in lmp.thermo.history
    ]
    return lmp, trace


# -------------------------------------------------------------- determinism
def test_autotune_deterministic_and_matches_golden(update_golden):
    lmp1, trace1 = _run_autotuned()
    config1 = lmp1.autotuner.result["config"]

    set_scatter_mode(None)
    lmp2, trace2 = _run_autotuned()

    # same seed + model measure: identical winners, bit-identical thermo
    assert lmp2.autotuner.result["config"] == config1
    assert trace2 == trace1

    path = GOLDEN_DIR / "melt-autotune.json"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        payload = {"workload": "melt-autotune", "config": config1,
                   "trace": trace1}
        path.write_text(json.dumps(payload, indent=2) + "\n")
        pytest.skip(f"rewrote {path.name}")
    golden = json.loads(path.read_text())
    assert config1 == golden["config"]
    assert [r["step"] for r in trace1] == [r["step"] for r in golden["trace"]]
    for got, want in zip(trace1, golden["trace"]):
        for key, ref in want.items():
            if key in ("step", "tune"):
                assert got[key] == ref, (got["step"], key)
            else:
                assert got[key] == pytest.approx(ref, rel=1e-9, abs=1e-10), (
                    got["step"], key,
                )


# ----------------------------------------------------------- thermo column
def test_thermo_gains_tune_column(capsys):
    lmp = Lammps(device=None, suffix="kk", quiet=False)
    lmp.commands_string(
        MELT_SCRIPT.format(cells=2, pair_style="lj/cut", thermo=5)
    )
    lmp.autotuner = Autotuner(
        measure="model", repeats=1, seed=0, plan_path=None, quiet=True
    )
    lmp.run(0)
    label = lmp.autotuner.result["label"]
    assert lmp.tune_label == label
    assert lmp.thermo.columns[-1] == "tune"
    assert lmp.thermo.history[-1].values["tune"] == label
    out = capsys.readouterr().out
    header = next(line for line in out.splitlines() if line.startswith("Step"))
    assert "tune" in header
    assert label in out


def test_untuned_runs_have_no_tune_column():
    lmp = make_melt(cells=2)
    lmp.run(0)
    assert "tune" not in lmp.thermo.columns
    assert "tune" not in lmp.thermo.history[-1].values


# ----------------------------------------------------------- input command
def test_package_autotune_command(tmp_path):
    plan = tmp_path / "plan.json"
    lmp = make_melt(cells=2, suffix="kk")
    lmp.command(
        f"package autotune on measure model repeats 1 seed 3 plan {plan}"
        " workload melt"
    )
    assert lmp.autotune_request is not None
    lmp.run(3)
    assert lmp.autotuner is not None and lmp.autotuner.tuned
    assert lmp.autotune_request is None
    assert json.loads(plan.read_text())["plans"]["melt"]


def test_package_autotune_off_clears_request():
    lmp = make_melt(cells=2, suffix="kk")
    lmp.command("package autotune on measure model plan none")
    lmp.command("package autotune off")
    lmp.run(0)
    assert lmp.autotuner is None


def test_package_autotune_rejects_unknown_measure():
    lmp = make_melt(cells=2, suffix="kk")
    with pytest.raises(InputError, match="did you mean 'model'"):
        lmp.command("package autotune on measure modle")
    with pytest.raises(InputError, match="usage: package autotune"):
        lmp.command("package autotune maybe")


def test_autotuner_rejects_unknown_measure():
    with pytest.raises(ValueError, match="did you mean 'wall'"):
        Autotuner(measure="wal")


def test_ensemble_autotune_covers_overlap_dimension():
    ens = make_melt(cells=2, nranks=2)
    ens.autotuner = Autotuner(
        measure="model", repeats=1, seed=0, plan_path=None, quiet=True
    )
    ens.run(3)
    pair = ens.autotuner.result["kernels"]["pair_force"]
    assert "overlap" in pair["config"]
    for lmp in ens.ranks:
        assert lmp.tune_label == ens.autotuner.result["label"]


# -------------------------------------------------------------------- CLI
def test_cli_autotune_writes_plan(tmp_path):
    from repro.__main__ import main

    script = tmp_path / "in.melt"
    script.write_text(
        MELT_SCRIPT.format(cells=2, pair_style="lj/cut", thermo=5) + "run 5\n"
    )
    plan = tmp_path / "tuned_plan.json"
    rc = main([
        "-in", str(script), "-sf", "kk", "--quiet",
        "--autotune", "model", "--tune-plan", str(plan),
        "--tune-repeats", "1", "--tune-seed", "2",
    ])
    assert rc == 0
    data = json.loads(plan.read_text())
    kernels = data["plans"]["melt"]["host"]
    assert set(kernels) == {"pair_force", "neighbor_build"}
