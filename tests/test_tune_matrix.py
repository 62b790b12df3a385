"""Differential mode-matrix sweep: physics is invariant under every cell.

The autotuner (:mod:`repro.tune`) switches list style and newton handling
at run start.  That is only legal because every cell of the config space
computes identical forces and energies — this module is that safety net,
swept explicitly over melt (kokkos LJ, list x newton) and an HNS snapshot
(ReaxFF, its one list cell).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import gather_by_tag, make_melt
from repro.core import Lammps
from repro.parallel.driver import drain
from repro.tune import space as tspace
from repro.workloads.hns import setup_hns

#: (neigh, newton) cells of the section 4.1 study; full+newton is invalid.
LIST_CELLS = (("half", True), ("half", False), ("full", False))


# ------------------------------------------------------------- melt matrix
def _melt_forces(lmp, neigh, newton):
    lmp.pair.set_options(neigh=neigh, newton=newton)
    lmp.newton_pair = newton
    drain(lmp.rebuild_gen())
    lmp.atom.f[: lmp.atom.nall] = 0.0
    lmp.pair.compute(True, True)
    if lmp.pair.needs_reverse_comm:
        drain(lmp.comm_brick.reverse_comm(lmp.atom, "f"))
    return gather_by_tag(lmp, "f"), float(lmp.pair.eng_vdwl)


def test_melt_mode_matrix_forces_and_energy_agree():
    lmp = make_melt(suffix="kk")
    lmp.run(0)
    ref_f = ref_e = None
    for neigh, newton in LIST_CELLS:
        f, e = _melt_forces(lmp, neigh, newton)
        tag = f"{neigh}/newton={newton}"
        if ref_f is None:
            ref_f, ref_e = f, e
            continue
        np.testing.assert_allclose(
            f, ref_f, rtol=1e-9, atol=1e-10, err_msg=f"forces differ in {tag}"
        )
        assert e == pytest.approx(ref_e, rel=1e-9), f"energy differs in {tag}"


# -------------------------------------------------------------- hns matrix
def test_hns_mode_matrix_forces_and_energy_agree():
    """Every cell the tuner may apply to ReaxFF (its one fixed full-list
    cell) reproduces the untuned run's forces and energy."""
    lmp = Lammps(device=None)
    setup_hns(lmp, 1, 2, 2, pair_style="reaxff cutoff 5.0")
    drain(lmp.verlet.run_gen(0))
    ref_f = gather_by_tag(lmp, "f")
    ref_e = float(lmp.pair.eng_vdwl + lmp.pair.eng_coul)
    for cfg in tspace.enumerate_configs(lmp):
        tspace.apply_config(lmp, cfg)
        drain(lmp.verlet.run_gen(0))
        f = gather_by_tag(lmp, "f")
        e = float(lmp.pair.eng_vdwl + lmp.pair.eng_coul)
        tag = tspace.short_label(cfg)
        # the QEq CG solve stops at a tolerance, so charge round-off gives
        # the cells a slightly wider band than the bit-exact LJ matrix
        np.testing.assert_allclose(
            f, ref_f, rtol=1e-6, atol=1e-8, err_msg=f"forces differ in {tag}"
        )
        assert e == pytest.approx(ref_e, rel=1e-7), f"energy differs in {tag}"


def _hns_lmp(pair_style="reaxff cutoff 5.0"):
    lmp = Lammps(device=None)
    setup_hns(lmp, 1, 2, 2, pair_style=pair_style)
    return lmp


def test_tune_space_is_the_list_cells():
    """The tuner searches only the section 4.1 list cells: a fixed-list
    style (ReaxFF) gets its one cell, a /kk style the three."""
    hns = _hns_lmp()
    assert tspace.enumerate_configs(hns) == [{"neigh": "full", "newton": "off"}]
    melt = make_melt(suffix="kk")
    configs = tspace.enumerate_configs(melt)
    assert [(c["neigh"], c["newton"] == "on") for c in configs] == list(LIST_CELLS)
    assert all(set(cfg) == {"neigh", "newton"} for cfg in configs)
    assert [tspace.short_label(c) for c in configs] == [
        "half+on", "half+off", "full+off",
    ]



def test_qeq_snapshot_and_apply_roundtrip():
    """``qeq_tol`` stays user-settable: a tuner snapshot/apply round trip
    neither reads nor resets it."""
    lmp = _hns_lmp("reaxff cutoff 5.0 qeq_tol 1e-09")
    snap = tspace.snapshot_config(lmp)
    assert set(snap) == {"neigh", "newton"}
    tspace.apply_config(lmp, snap)
    assert lmp.pair.qeq_tol == 1e-09
