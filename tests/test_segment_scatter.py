"""Segmented-reduction scatter: unit edge cases and the ``np.add.at`` oracle.

The segmented reduction (:mod:`repro.kokkos.segment`) is the one scatter
algorithm, and it must be a drop-in replacement for ``np.add.at``
everywhere the force kernels scatter: bit-identical for single
zeroed-target reductions, ≤1e-12 relative in composed force pipelines.
The unit tests compare against ``np.add.at`` directly; the force-level
tests install a test-local ``np.add.at`` body as the reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kokkos as kk
from conftest import SCATTERS, gather_by_tag, make_melt, scatter_body
from repro.core import Lammps
from repro.kokkos.scatter_view import ATOMIC, DUPLICATED, ScatterView
from repro.kokkos.segment import (
    column_scatter_plan,
    scatter_add,
    scatter_add_columns,
    scatter_sub,
    segment_sum,
    segment_sum_vec,
)


# --------------------------------------------------------------- unit tests
class TestSegmentSum:
    def test_empty_input(self):
        out = segment_sum(np.array([]), np.array([], dtype=int), 5)
        assert out.shape == (5,) and not out.any()

    def test_single_segment(self):
        v = np.array([1.0, 2.0, 4.0])
        out = segment_sum(v, np.array([2, 2, 2]), 4)
        assert list(out) == [0.0, 0.0, 7.0, 0.0]

    def test_unsorted_index_matches_add_at(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 17, size=300)
        v = rng.normal(size=300)
        ref = np.zeros(17)
        np.add.at(ref, idx, v)
        np.testing.assert_array_equal(segment_sum(v, idx, 17), ref)

    def test_sorted_fast_path_matches_unsorted(self):
        rng = np.random.default_rng(1)
        idx = np.sort(rng.integers(0, 9, size=100))
        v = rng.normal(size=100)
        # reduceat and bincount may associate partial sums differently
        np.testing.assert_allclose(
            segment_sum(v, idx, 9, assume_sorted=True),
            segment_sum(v, idx, 9),
            rtol=1e-13,
            atol=1e-14,
        )

    def test_complex_values(self):
        idx = np.array([0, 3, 0])
        v = np.array([1 + 2j, 3j, 2 - 1j])
        out = segment_sum(v, idx, 4)
        assert out[0] == 3 + 1j and out[3] == 3j

    def test_2d_values_narrow_and_wide(self):
        rng = np.random.default_rng(2)
        for ncols in (3, 12):  # bincount-per-column vs sort+reduceat routes
            idx = rng.integers(0, 11, size=200)
            v = rng.normal(size=(200, ncols))
            ref = np.zeros((11, ncols))
            np.add.at(ref, idx, v)
            np.testing.assert_allclose(
                segment_sum_vec(v, idx, 11), ref, rtol=1e-13, atol=1e-14
            )

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            segment_sum(np.ones(3), np.zeros(4, dtype=int), 5)
        with pytest.raises(ValueError, match="1-D"):
            segment_sum(np.ones((3, 2)), np.zeros(3, dtype=int), 5)
        with pytest.raises(ValueError, match="mismatch"):
            segment_sum_vec(np.ones((3, 2)), np.zeros(4, dtype=int), 5)


class TestScatterAdd:
    def test_broadcast_scalar_value(self):
        idx = np.array([1, 1, 4, 0])
        a = np.zeros(6)
        b = np.zeros(6)
        scatter_add(a, idx, 1.0)
        np.add.at(b, idx, 1.0)
        np.testing.assert_array_equal(a, b)

    def test_sub_matches_subtract_at(self):
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 8, size=64)
        v = rng.normal(size=(64, 3))
        a = rng.normal(size=(8, 3))
        b = a.copy()
        scatter_sub(a, idx, v)
        np.subtract.at(b, idx, v)
        # nonzero target: fold-in of the dense sums reassociates vs the
        # sequential in-place subtraction
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-14)

    def test_3d_target_is_refused(self):
        # the one scatter algorithm is a 1-D/2-D segmented reduction; a
        # wider target has no second algorithm to fall back to
        a = np.zeros((5, 2, 2))
        for op in (scatter_add, scatter_sub):
            with pytest.raises(ValueError, match=r"\(5, 2, 2\)"):
                op(a, np.array([0, 3]), np.ones((2, 2, 2)))
        assert not a.any()

    @pytest.mark.parametrize("scatter", SCATTERS)
    @pytest.mark.parametrize("sort", [True, False])
    @pytest.mark.parametrize("op", [scatter_add, scatter_sub])
    def test_component_rows_match_c_ordered(self, scatter, sort, op):
        """The pairwise pass hands its LayoutLeft ``(3, k)`` vectors in as
        ``rows.T``: bit for bit the C-ordered ``(k, 3)`` scatter, under the
        segmented body and the ``np.add.at`` reference alike."""
        rng = np.random.default_rng(11)
        idx = rng.integers(0, 40, size=500)
        if sort:
            idx.sort()
        rows = rng.normal(size=(3, 500))
        base = rng.normal(size=(40, 3))
        a, b = base.copy(), base.copy()
        with scatter_body(scatter):
            op(a, idx, rows.T, assume_sorted=sort)
            op(b, idx, np.ascontiguousarray(rows.T), assume_sorted=sort)
        assert a.tobytes() == b.tobytes()


class TestColumnScatter:
    def test_plan_matches_add_at(self):
        rng = np.random.default_rng(5)
        cols = rng.integers(0, 7, size=30)
        vals = rng.normal(size=(4, 30))
        plan = column_scatter_plan(cols)
        a = np.zeros((4, 7))
        b = np.zeros((4, 7))
        scatter_add_columns(a, vals, plan)
        rows = np.arange(4)[:, None]
        np.add.at(b, (rows, cols[None, :]), vals)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


class TestScatterViewContribution:
    @pytest.fixture(autouse=True)
    def _runtime(self):
        kk.initialize("H100")
        yield
        kk.finalize()

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_contribution_modes_bit_identical(self, seed):
        """Both deconfliction strategies, on either space, land bit for bit
        on ``np.add.at`` over the zeroed target."""
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, 16, size=200)
        vals = rng.normal(size=(200, 3))
        ref = np.zeros((16, 3))
        np.add.at(ref, idx, vals)
        for space in (kk.Device, kk.Host):
            for strategy in (None, ATOMIC, DUPLICATED):
                target = kk.View((16, 3), space=space)
                sv = ScatterView(target, strategy=strategy)
                sv.access().add(idx, vals)
                sv.contribute()
                assert target.data.tobytes() == ref.tobytes(), (space, strategy)


class TestPairCacheJOrder:

    def test_cache_invalidated_by_rebuild(self):
        lmp = make_melt(cells=2)
        lmp.command("neigh_modify every 1 delay 0 check no")
        lmp.command("run 0")
        before = lmp.neigh_list.pair_cache()
        lmp.command("run 2")
        assert lmp.neigh_list.pair_cache() is not before


# ------------------------------------------------- force-field equivalence
EAM_SCRIPT = """\
units metal
lattice fcc 3.52
region box block 0 2 0 2 0 2
create_box 1 box
create_atoms 1 box
mass 1 58.7
velocity all create 600 12345
pair_style eam/fs 4.5
pair_coeff * * 2.0 0.3
neighbor 1.0 bin
fix 1 all nve
"""

def _make_eam():
    lmp = Lammps()
    lmp.commands_string(EAM_SCRIPT)
    return lmp


def _make_snap():
    from repro.workloads.tantalum import setup_tantalum

    lmp = Lammps()
    setup_tantalum(lmp, cells=2, pair_style="snap", twojmax=4)
    return lmp


def _make_reaxff():
    from repro.workloads.hns import setup_hns

    lmp = Lammps()
    # tight QEq: the iterative CG otherwise leaves solver-tolerance charge
    # differences (~1e-8) that swamp the scatter comparison
    setup_hns(lmp, 2, 2, 2, pair_style="reaxff cutoff 5.0 qeq_tol 1e-13")
    lmp.command("neighbor 0.5 bin")
    return lmp


def _make_newton_off():
    lmp = make_melt(cells=3)
    lmp.newton_pair = False
    return lmp


def _make_two_rank():
    return make_melt(cells=3, nranks=2)


def _make_kokkos():
    return make_melt(cells=3, device="H100", suffix="kk")


CASES = {
    "lj-half-newton": lambda: make_melt(cells=3),
    "lj-newton-off": _make_newton_off,
    "lj-two-rank": _make_two_rank,
    "lj-kokkos": _make_kokkos,
    "eam-fs": _make_eam,
    "snap": _make_snap,
    "reaxff": _make_reaxff,
}


def _forces_energy(target, reference: bool = False):
    """Single force evaluation on frozen coordinates; with ``reference``,
    every ``scatter_add``/``scatter_sub`` runs the ``np.add.at`` body."""
    with scatter_body("atomic" if reference else "segmented"):
        target.command("run 0")
    ranks = target.ranks if hasattr(target, "ranks") else [target]
    f = gather_by_tag(target).copy()
    e = sum(r.pair.eng_vdwl + r.pair.eng_coul for r in ranks)
    return f, e


@pytest.mark.parametrize("case", sorted(CASES))
def test_force_equivalence_atomic_vs_segmented(case):
    """Forces and energies agree ≤1e-12 relative between the segmented
    scatter and the ``np.add.at`` reference, on identical coordinates a few
    steps into real dynamics."""
    target = CASES[case]()
    target.command("run 3")  # move off the lattice (and build ghost layouts)
    fa, ea = _forces_energy(target, reference=True)
    fs, es = _forces_energy(target)
    scale = np.abs(fa).max() or 1.0
    np.testing.assert_allclose(fs, fa, rtol=1e-12, atol=1e-12 * scale)
    assert es == pytest.approx(ea, rel=1e-12, abs=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=5, deadline=None)
def test_force_equivalence_random_ghost_layouts(seed):
    """Random dilute configurations: every periodic image arrangement must
    give the reference's forces (probes irregular neighbor/ghost shapes)."""
    rng = np.random.default_rng(seed)
    lmp = Lammps()
    lmp.commands_string(
        "units lj\nregion b block 0 5 0 5 0 5\ncreate_box 1 b"
    )
    pts = rng.uniform(0.0, 5.0, size=(24, 3))
    lmp.create_atoms_from_arrays(pts, np.ones(24, dtype=int))
    lmp.commands_string(
        "mass 1 1.0\npair_style lj/cut 2.5\npair_coeff 1 1 1.0 0.8\n"
        "neighbor 0.3 bin\nfix 1 all nve"
    )
    fa, ea = _forces_energy(lmp, reference=True)
    fs, es = _forces_energy(lmp)
    scale = np.abs(fa).max() or 1.0
    np.testing.assert_allclose(fs, fa, rtol=1e-12, atol=1e-12 * scale)
    assert es == pytest.approx(ea, rel=1e-12, abs=1e-12)
