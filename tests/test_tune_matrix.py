"""Differential mode-matrix sweep: physics is invariant under every cell.

The autotuner (:mod:`repro.tune`) switches scatter mode, list style, and
newton handling at run start.  That is only legal because every cell of the
config product computes identical forces and energies — this module is that
safety net, swept explicitly over melt (kokkos LJ, full scatter x list x
newton product) and an HNS snapshot (ReaxFF, both scatter modes).

Also here: the regression tests for the mode setters' did-you-mean
validation (unknown names used to surface as errors deep in dispatch).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import gather_by_tag, make_melt
from repro.core import Lammps
from repro.kokkos.segment import (
    ATOMIC,
    SEGMENTED,
    force_scatter_mode,
    forced_scatter_mode,
    set_scatter_mode,
)
from repro.parallel.driver import drain
from repro.tune import space as tspace
from repro.workloads.hns import setup_hns

SCATTERS = (ATOMIC, SEGMENTED)
#: (neigh, newton) cells of the section 4.1 study; full+newton is invalid.
LIST_CELLS = (("half", True), ("half", False), ("full", False))


@pytest.fixture(autouse=True)
def _reset_modes():
    """The setters mutate process globals; never leak across tests."""
    yield
    set_scatter_mode(None)


# ------------------------------------------------------------- melt matrix
def _melt_forces(lmp, scatter, neigh, newton):
    with force_scatter_mode(scatter):
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
    for scatter, (neigh, newton) in itertools.product(SCATTERS, LIST_CELLS):
        f, e = _melt_forces(lmp, scatter, neigh, newton)
        tag = f"{scatter}/{neigh}/newton={newton}"
        if ref_f is None:
            ref_f, ref_e = f, e
            continue
        np.testing.assert_allclose(
            f, ref_f, rtol=1e-9, atol=1e-10, err_msg=f"forces differ in {tag}"
        )
        assert e == pytest.approx(ref_e, rel=1e-9), f"energy differs in {tag}"


# -------------------------------------------------------------- hns matrix
def test_hns_mode_matrix_forces_and_energy_agree():
    lmp = Lammps(device=None)
    setup_hns(lmp, 1, 2, 2, pair_style="reaxff cutoff 5.0")
    ref_f = ref_e = None
    for scatter in SCATTERS:
        with force_scatter_mode(scatter):
            drain(lmp.verlet.run_gen(0))
        f = gather_by_tag(lmp, "f")
        e = float(lmp.pair.eng_vdwl + lmp.pair.eng_coul)
        if ref_f is None:
            ref_f, ref_e = f, e
            continue
        # the QEq CG solve stops at a tolerance, so charge round-off gives
        # the cells a slightly wider band than the bit-exact LJ matrix
        np.testing.assert_allclose(
            f, ref_f, rtol=1e-6, atol=1e-8, err_msg=f"forces differ in {scatter}"
        )
        assert e == pytest.approx(ref_e, rel=1e-7), f"energy differs in {scatter}"


# ---------------------------------------------------------- qeq dimensions
def _hns_lmp(pair_style="reaxff cutoff 5.0"):
    lmp = Lammps(device=None)
    setup_hns(lmp, 1, 2, 2, pair_style=pair_style)
    return lmp


def test_hns_qeq_matrix_precond_extrap_cells_agree():
    """Every user-selectable preconditioner/extrapolation cell lands on
    the same trajectory within solver round-off."""
    ref_q = ref_f = None
    for precond, extrap in itertools.product(("none", "jacobi"), ("none", "2")):
        lmp = _hns_lmp()
        lmp.pair.set_qeq_options(precond=precond, extrap=extrap)
        lmp.run(4)
        q, f = gather_by_tag(lmp, "q"), gather_by_tag(lmp, "f")
        tag = f"{precond}/{extrap}"
        if ref_q is None:
            ref_q, ref_f = q, f
            continue
        np.testing.assert_allclose(
            q, ref_q, atol=1e-6, err_msg=f"charges differ in {tag}"
        )
        np.testing.assert_allclose(
            f, ref_f, rtol=1e-5, atol=1e-6, err_msg=f"forces differ in {tag}"
        )


def test_tune_space_is_list_cells_times_scatter():
    """The tuner searches only the section 4.1 cells: a fixed-list style
    (ReaxFF) gets its one list cell x both scatter modes, a /kk style the
    three list cells x both."""
    hns = _hns_lmp()
    assert tspace.enumerate_configs(hns) == [
        {"scatter": scatter, "neigh": "full", "newton": "off"}
        for scatter in SCATTERS
    ]
    melt = make_melt(suffix="kk")
    configs = tspace.enumerate_configs(melt)
    assert len(configs) == 6
    assert all(set(cfg) == {"scatter", "neigh", "newton"} for cfg in configs)


def test_qeq_snapshot_and_apply_roundtrip():
    """The QEq knobs stay user-settable: a tuner snapshot/apply round trip
    neither reads nor resets them."""
    lmp = _hns_lmp()
    lmp.pair.set_qeq_options(precond="jacobi", extrap="2", tol=1e-09)
    snap = tspace.snapshot_config(lmp)
    assert set(snap) == {"scatter", "neigh", "newton"}
    tspace.apply_config(lmp, snap)
    assert (lmp.pair.qeq_precond, lmp.pair.qeq_extrap, lmp.pair.qeq_tol) == (
        "jacobi", "2", 1e-09,
    )


# --------------------------------------------------- setter validation fix
def test_unknown_scatter_mode_names_fail_at_setter_with_hint():
    with pytest.raises(ValueError) as err:
        set_scatter_mode("atomci")
    msg = str(err.value)
    assert "did you mean 'atomic'" in msg
    assert "segmented" in msg
    assert forced_scatter_mode() is None  # nothing was installed


def test_context_managers_validate_before_entry():
    with pytest.raises(ValueError, match="unknown scatter mode"):
        with force_scatter_mode("bogus"):
            pass


def test_setters_return_previous_mode_for_restore():
    assert set_scatter_mode(ATOMIC) is None
    assert set_scatter_mode(SEGMENTED) == ATOMIC
    assert set_scatter_mode(None) == SEGMENTED
