"""1-vs-N-rank invariance: decomposed runs reproduce the serial trajectory.

A brick decomposition changes only the floating point summation *order*
(ghost forces fold back through reverse comm, thermo sums through an
allreduce), so 2-, 4- and 8-rank runs must reproduce the 1-rank
trajectory to near machine precision.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import gather_by_tag, make_melt
from repro.core import Ensemble, Lammps
from repro.core.errors import InputError
from repro.workloads.hns import setup_hns
from repro.workloads.melt import setup_melt
from repro.workloads.tantalum import setup_tantalum

#: steps kept short for the expensive many-body styles; thermo every few
#: steps so the differential check also covers the reduced quantities
WORKLOADS = {
    "melt-lj": dict(steps=20, thermo=5),
    "melt-eam": dict(steps=20, thermo=5),
    "tantalum": dict(steps=6, thermo=2),
    "hns": dict(steps=4, thermo=2),
}

#: per-workload tolerances.  The pairwise and SNAP paths differ from the
#: serial run only by summation order (~1e-13); ReaxFF's QEq solver
#: converges to a fixed tolerance, so its charges (hence forces) carry a
#: legitimate decomposition-dependent residual (cf. test_reaxff_pair's
#: 1e-7 on positions/charges).
TIGHT = dict(x_atol=1e-9, f_rtol=1e-7, f_atol=1e-9, th_rel=1e-7, th_abs=1e-9)
LOOSE = dict(x_atol=1e-7, f_rtol=1e-5, f_atol=1e-5, th_rel=1e-6, th_abs=1e-6)
TOLERANCES = {
    "melt-lj": TIGHT,
    "melt-eam": TIGHT,
    "tantalum": TIGHT,
    "hns": LOOSE,
}


def build(name: str, nranks: int = 1):
    target = Ensemble(nranks, device=None) if nranks > 1 else Lammps(device=None)
    if name == "melt-lj":
        setup_melt(target, cells=3)
    elif name == "melt-eam":
        setup_melt(target, cells=3, pair_style="eam/fs")
    elif name == "tantalum":
        setup_tantalum(target, cells=2, twojmax=4)
    elif name == "hns":
        setup_hns(target, 1, 2, 2, pair_style="reaxff cutoff 5.0")
    else:  # pragma: no cover
        raise KeyError(name)
    target.command(f"thermo {WORKLOADS[name]['thermo']}")
    return target, WORKLOADS[name]["steps"]


def final_state(target):
    x = gather_by_tag(target, "x")
    f = gather_by_tag(target, "f")
    root = target.ranks[0] if hasattr(target, "ranks") else target
    history = [(rec.step, dict(rec.values)) for rec in root.thermo.history]
    return x, f, history


@pytest.fixture(scope="module")
def serial_state():
    cache: dict[str, tuple] = {}

    def get(name: str):
        if name not in cache:
            target, steps = build(name)
            target.command(f"run {steps}")
            cache[name] = final_state(target)
        return cache[name]

    return get


@pytest.mark.parametrize("nranks", [2, 4, 8])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_decomposed_matches_serial(serial_state, name, nranks):
    """1-rank vs N-rank trajectories agree in positions, forces, thermo."""
    x_ref, f_ref, hist_ref = serial_state(name)
    target, steps = build(name, nranks=nranks)
    target.command(f"run {steps}")
    x, f, hist = final_state(target)

    tol = TOLERANCES[name]
    np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=tol["x_atol"])
    np.testing.assert_allclose(f, f_ref, rtol=tol["f_rtol"], atol=tol["f_atol"])
    assert [step for step, _ in hist] == [step for step, _ in hist_ref]
    for (step, values), (_, ref_values) in zip(hist, hist_ref):
        for key, ref in ref_values.items():
            assert values[key] == pytest.approx(
                ref, rel=tol["th_rel"], abs=tol["th_abs"]
            ), (name, nranks, step, key)


def test_comm_modify_is_an_unknown_command():
    """There is no runtime comm/compute overlap mode: a script asking for
    one fails loudly instead of silently running the serial force cycle."""
    lmp = make_melt()
    with pytest.raises(InputError, match="unknown command 'comm_modify'"):
        lmp.command("comm_modify overlap yes")
