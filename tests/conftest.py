"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro.potentials  # noqa: F401  (register styles)
import repro.reaxff  # noqa: F401
import repro.snap  # noqa: F401
from repro.core import Ensemble, Lammps
from repro.parallel.driver import drain

MELT_SCRIPT = """\
units lj
lattice fcc 0.8442
region box block 0 {cells} 0 {cells} 0 {cells}
create_box 1 box
create_atoms 1 box
mass 1 1.0
velocity all create 1.44 87287
pair_style {pair_style} 2.5
pair_coeff 1 1 1.0 1.0
neighbor 0.3 bin
fix 1 all nve
thermo {thermo}
"""


def make_melt(
    device=None, cells=3, pair_style="lj/cut", thermo=10, suffix=None, nranks=1
):
    """A ready-to-run LJ melt (Lammps or, with nranks > 1, Ensemble)."""
    script = MELT_SCRIPT.format(cells=cells, pair_style=pair_style, thermo=thermo)
    if nranks > 1:
        ens = Ensemble(nranks, device=device, suffix=suffix)
        ens.commands_string(script)
        return ens
    lmp = Lammps(device=device, suffix=suffix)
    lmp.commands_string(script)
    return lmp


@pytest.fixture
def melt():
    return make_melt()


@pytest.fixture
def melt_script(tmp_path) -> str:
    """Path of a 5-step LJ melt input script (CLI and ``tools`` tests)."""
    path = tmp_path / "melt.in"
    path.write_text(MELT_SCRIPT.format(cells=3, pair_style="lj/cut", thermo=10) + "run 5\n")
    return str(path)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json thermo baselines from the current code",
    )


@pytest.fixture
def update_golden(request) -> bool:
    """True when the run should rewrite golden baselines instead of compare."""
    return request.config.getoption("--update-golden")


def fd_force_check(lmp, atoms, eps=1e-6, energy=None):
    """Max |analytic - finite-difference| force error over selected atoms.

    ``energy`` extracts the total potential energy from the pair style
    (defaults to vdW + Coulomb tallies).
    """
    if energy is None:
        energy = lambda l: l.pair.eng_vdwl + l.pair.eng_coul  # noqa: E731
    drain(lmp.verlet.run_gen(0))
    f0 = lmp.atom.f[: lmp.atom.nlocal].copy()
    worst = 0.0
    for k in atoms:
        for d in range(3):
            lmp.atom.x[k, d] += eps
            drain(lmp.verlet.run_gen(0))
            ep = energy(lmp)
            lmp.atom.x[k, d] -= 2 * eps
            drain(lmp.verlet.run_gen(0))
            em = energy(lmp)
            lmp.atom.x[k, d] += eps
            fd = -(ep - em) / (2 * eps)
            scale = max(abs(fd), abs(f0[k, d]), 1.0)
            worst = max(worst, abs(fd - f0[k, d]) / scale)
    drain(lmp.verlet.run_gen(0))
    return worst


def gather_by_tag(lmp_or_ens, field="f"):
    """Global per-atom array ordered by tag, from one or many ranks."""
    ranks = lmp_or_ens.ranks if hasattr(lmp_or_ens, "ranks") else [lmp_or_ens]
    n = ranks[0].natoms_total
    sample = getattr(ranks[0].atom, field)
    shape = (n,) + sample.shape[1:]
    out = np.zeros(shape, dtype=sample.dtype)
    for lmp in ranks:
        atom = lmp.atom
        out[atom.tag[: atom.nlocal] - 1] = getattr(atom, field)[: atom.nlocal]
    return out
