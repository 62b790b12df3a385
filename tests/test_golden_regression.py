"""Golden thermo-trace regression tests.

Each workload's first ~50 steps of thermo output (temp, pe, ke, etotal,
press) are pinned as JSON under ``tests/golden/``.  Any change to the
integrator, neighbor lists, comm, or a potential that shifts the
trajectory beyond round-off shows up here immediately.  ``melt-eam-np2``
runs ``eam/fs`` on two ranks, so the many-body ``fp`` exchange crosses a
real rank boundary.

To rebless the baselines after an intentional physics change:

    PYTHONPATH=src python -m pytest tests/test_golden_regression.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import Ensemble, Lammps
from repro.workloads.hns import setup_hns
from repro.workloads.melt import setup_melt
from repro.workloads.tantalum import setup_tantalum

GOLDEN_DIR = Path(__file__).parent / "golden"

#: reaxff is ~two orders of magnitude slower per step than the others;
#: 20 steps keeps the suite quick while still covering two list rebuilds
WORKLOADS = {
    "melt": dict(steps=50, thermo=5),
    "tantalum": dict(steps=50, thermo=5),
    "hns": dict(steps=20, thermo=5),
}

#: golden file stem -> (workload, ranks); melt on 2 ranks runs eam/fs
SCENARIOS = {
    "melt": ("melt", 1),
    "melt-eam-np2": ("melt", 2),
    "tantalum": ("tantalum", 1),
    "hns": ("hns", 1),
}


def run_workload(name: str, nranks: int):
    cfg = WORKLOADS[name]
    target = Ensemble(nranks, device=None) if nranks > 1 else Lammps(device=None)
    if name == "melt":
        setup_melt(target, cells=3, pair_style="eam/fs" if nranks > 1 else "lj/cut")
    elif name == "tantalum":
        setup_tantalum(target, cells=2, twojmax=4)
    else:
        setup_hns(target, 1, 2, 2, pair_style="reaxff cutoff 5.0")
    target.command(f"thermo {cfg['thermo']}")
    target.command(f"run {cfg['steps']}")
    return target


def run_trace(name: str, nranks: int) -> list[dict]:
    target = run_workload(name, nranks)
    root = target.ranks[0] if hasattr(target, "ranks") else target
    return [
        {"step": rec.step, **{k: float(v) for k, v in rec.values.items()}}
        for rec in root.thermo.history
    ]


@pytest.mark.parametrize("stem", sorted(SCENARIOS))
def test_thermo_trace_matches_golden(stem, update_golden):
    name, nranks = SCENARIOS[stem]
    trace = run_trace(name, nranks)
    assert trace, "workload produced no thermo output"
    path = GOLDEN_DIR / f"{stem}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        payload = {"workload": name, "trace": trace}
        path.write_text(json.dumps(payload, indent=2) + "\n")
        pytest.skip(f"rewrote {path.name}")
    golden = json.loads(path.read_text())["trace"]
    assert [rec["step"] for rec in trace] == [rec["step"] for rec in golden]
    for got, want in zip(trace, golden):
        for key, ref in want.items():
            if key == "step":
                continue
            assert got[key] == pytest.approx(ref, rel=1e-9, abs=1e-10), (
                stem, got["step"], key,
            )

