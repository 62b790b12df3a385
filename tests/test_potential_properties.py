"""Cross-potential physics invariants, in one place.

Every production pair style — LJ, EAM, SNAP, ReaxFF — must satisfy the
same three properties regardless of its kernel configuration:

* forces are the energy gradient (central finite differences);
* Newton's third law: the forces on all atoms sum to zero;
* the answer does not depend on the neighbor-list flavor (half vs full,
  newton on vs off) or on the host-vs-Kokkos implementation.

These invariants are what the 1-vs-N-rank differential suite
(test_rank_invariance) leans on: a decomposed run can only reproduce the
serial one if the underlying force field is a clean conservative
pairwise/many-body sum.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import fd_force_check, gather_by_tag, make_melt
from repro.core import Ensemble, Lammps
from repro.workloads.hns import setup_hns
from repro.workloads.melt import setup_melt
from repro.workloads.tantalum import setup_tantalum


def build(potential: str, nranks: int = 1, device=None, suffix=None):
    if nranks > 1:
        target = Ensemble(nranks, device=device, suffix=suffix)
    else:
        target = Lammps(device=device, suffix=suffix)
    if potential == "lj":
        setup_melt(target, cells=2)
    elif potential == "eam":
        setup_melt(target, cells=2, pair_style="eam/fs")
    elif potential == "snap":
        setup_tantalum(target, cells=2, twojmax=4)
    elif potential == "reaxff":
        setup_hns(target, 1, 2, 2, pair_style="reaxff cutoff 5.0")
    else:  # pragma: no cover
        raise KeyError(potential)
    return target


POTENTIALS = ["lj", "eam", "snap", "reaxff"]

#: (eps, tolerance, energy extractor) per potential, matching the
#: established per-style FD envelopes (QEq gives ReaxFF a wider one)
FD_SETTINGS = {
    "lj": (1e-6, 1e-6, None),
    "eam": (1e-6, 1e-6, None),
    "snap": (1e-5, 1e-6, lambda l: l.pair.eng_vdwl),
    "reaxff": (1e-5, 1e-5, None),
}


@pytest.mark.parametrize("potential", POTENTIALS)
def test_forces_are_energy_gradient(potential):
    lmp = build(potential)
    lmp.command("run 2")  # break the lattice symmetry first
    eps, tol, energy = FD_SETTINGS[potential]
    atoms = [0, lmp.atom.nlocal // 2, lmp.atom.nlocal - 1]
    assert fd_force_check(lmp, atoms, eps=eps, energy=energy) < tol


@pytest.mark.parametrize("nranks", [1, 2])
@pytest.mark.parametrize("potential", POTENTIALS)
def test_forces_sum_to_zero(potential, nranks):
    """Newton's third law holds globally, serial and decomposed."""
    target = build(potential, nranks=nranks)
    target.command("run 2")
    total = gather_by_tag(target, "f").sum(axis=0)
    assert np.abs(total).max() < 1e-8


@pytest.mark.parametrize(
    "options",
    [
        dict(neigh="full", newton=False),
        dict(neigh="half", newton=False),
        dict(neigh="half", newton=True),
    ],
    ids=["full-newtoff", "half-newtoff", "half-newton"],
)
def test_lj_list_flavors_agree(options):
    """Half vs full lists and newton on/off give identical LJ physics."""
    ref = make_melt(cells=2)
    ref.command("run 10")
    kkr = make_melt(device="H100", cells=2, pair_style="lj/cut/kk")
    kkr.pair.set_options(**options)
    kkr.command("run 10")
    np.testing.assert_allclose(
        gather_by_tag(kkr, "f"), gather_by_tag(ref, "f"), atol=1e-9
    )
    assert kkr.thermo.history[-1]["etotal"] == pytest.approx(
        ref.thermo.history[-1]["etotal"], abs=1e-9
    )


#: styles with no list-flavor knob: the invariant there is host == Kokkos
KK_TOL = {"lj": 1e-9, "eam": 1e-9, "snap": 1e-9, "reaxff": 1e-8}


@pytest.mark.parametrize("potential", POTENTIALS)
def test_host_and_kokkos_implementations_agree(potential):
    ref = build(potential)
    ref.command("run 3")
    kkr = build(potential, device="H100", suffix="kk")
    kkr.command("run 3")
    assert type(kkr.pair).__name__.endswith("Kokkos")
    np.testing.assert_allclose(
        gather_by_tag(kkr, "f"), gather_by_tag(ref, "f"), atol=KK_TOL[potential]
    )
    np.testing.assert_allclose(
        gather_by_tag(kkr, "x"), gather_by_tag(ref, "x"), atol=1e-10
    )
