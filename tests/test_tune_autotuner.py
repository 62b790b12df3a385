"""Autotuner behavior: exact probes, determinism, surfaces (CLI / input script
/ thermo).

The ``model`` measure is exact — a probe charges scratch ledgers, so its
score depends only on the probed cell — which is why the search probes each
cell once.  Two autotuned runs therefore pick identical winners and produce
identical thermo, pinned against a golden trace under ``tests/golden/`` with
the standard ``--update-golden`` rebless path.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import MELT_SCRIPT, make_melt
from repro.core import Lammps
from repro.tune import Autotuner
from repro.tune import space as tspace

GOLDEN_DIR = Path(__file__).parent / "golden"


def _run_autotuned(steps=15):
    lmp = make_melt(cells=2, suffix="kk", thermo=5)
    lmp.autotuner = Autotuner(plan_path=None, workload="melt", quiet=True)
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


# ------------------------------------------------------------ exact probes
@pytest.mark.parametrize("device", [None, "H100"])
def test_probe_scores_are_exact(device):
    """One probe per cell, baseline first; re-probing any cell, with or
    without a rebuild in between, returns the search's score bit for bit."""
    lmp = make_melt(device=device, cells=2, suffix="kk")
    baseline = tspace.short_label(tspace.snapshot_config(lmp))
    tuner = Autotuner(plan_path=None)
    scores = tuner.tune(lmp)["scores"]
    assert list(scores)[0] == baseline
    assert tuner.probes == len(scores) == 3
    assert any(score > 0.0 for score in scores.values())
    for cfg in tspace.enumerate_configs(lmp):
        tspace.apply_config(lmp, cfg)
        tuner._rebuild([lmp])
        after_rebuild = tuner._probe([lmp])
        again = tuner._probe([lmp])
        want = scores[tspace.short_label(cfg)]
        assert after_rebuild.hex() == again.hex() == want.hex(), cfg


def test_all_zero_host_scores_keep_the_baseline():
    lmp = make_melt(cells=2)  # plain lj/cut on a pure host charges nothing
    baseline = tspace.snapshot_config(lmp)
    result = Autotuner(plan_path=None).tune(lmp)
    assert set(result["scores"].values()) == {0.0}
    assert result["config"] == baseline


# -------------------------------------------------------------- determinism
def test_autotune_deterministic_and_matches_golden(update_golden):
    lmp1, trace1 = _run_autotuned()
    config1 = lmp1.autotuner.result["config"]

    lmp2, trace2 = _run_autotuned()

    # exact probes: identical winners, bit-identical thermo
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
    lmp.autotuner = Autotuner(plan_path=None, quiet=True)
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


def test_autotuner_rejects_unknown_measure(capsys):
    """``model`` is the only measure; the retired CLI knobs fail to parse."""
    from repro.__main__ import main

    for argv, message in (
        (["--autotune", "wall"], "invalid choice: 'wall'"),
        (["--tune-repeats", "1"], "unrecognized arguments: --tune-repeats"),
        (["--tune-seed", "2"], "unrecognized arguments: --tune-seed"),
    ):
        with pytest.raises(SystemExit):
            main(["-in", "in.melt", *argv])
        assert message in capsys.readouterr().err


def test_ensemble_autotune_labels_every_rank_alike():
    ens = make_melt(cells=2, nranks=2)
    ens.autotuner = Autotuner(plan_path=None, quiet=True)
    ens.run(3)
    result = ens.autotuner.result
    assert set(result["config"]) == {"neigh", "newton"}
    assert result["label"] == "half+off"
    for lmp in ens.ranks:
        assert lmp.tune_label == result["label"]


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
    ])
    assert rc == 0
    entry = json.loads(plan.read_text())["plans"]["melt"]["host"]
    assert set(entry["config"]) == {"neigh", "newton"}
