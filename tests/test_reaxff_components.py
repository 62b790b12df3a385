"""ReaxFF components: bond order, triplet/quad tables, QEq, nonbonded."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InputError
from repro.core.neighbor import build_neighbor_list
from repro.reaxff.angles import build_triplets
from repro.reaxff.bond_order import (
    bond_order,
    build_bond_list,
    build_bond_list_reference,
)
from repro.reaxff.nonbonded import shielded_kernel, taper, vdw_morse
from repro.reaxff.params import default_chno
from repro.reaxff.qeq import QEqMatrix, build_qeq_matrix
from repro.reaxff.torsions import build_quads

PARAMS = default_chno()


def random_chno(seed: int, n: int = 60, box: float = 9.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, box, size=(n, 3))
    species = rng.integers(1, 5, size=n)
    return x, species


class TestBondOrder:
    def test_bo_near_r0(self):
        r0 = PARAMS.r0_ij(np.array([1]), np.array([1]))
        bo, dbo = bond_order(r0, np.array([1]), np.array([1]), PARAMS)
        assert 0.7 < bo[0] < 1.0
        assert dbo[0] < 0  # decays with distance

    def test_bo_decays_monotonically(self):
        r = np.linspace(0.8, 3.5, 50)
        t = np.ones(50, dtype=int)
        bo, _ = bond_order(r, t, t, PARAMS)
        assert np.all(np.diff(bo) < 0)

    def test_bond_search_cut_bounds_every_pair(self):
        """No type pair has BO above bo_cut at the derived search cutoff,
        and the widest (C-C) pair sits right at it."""
        cut = PARAMS.bond_search_cut
        assert 2.12 < cut < 2.14 < PARAMS.rcut_bond
        t = np.arange(1, PARAMS.ntypes + 1)
        ti, tj = (a.ravel() for a in np.meshgrid(t, t))
        bo, _ = bond_order(np.full(ti.shape, cut), ti, tj, PARAMS)
        assert np.all(bo <= PARAMS.bo_cut)
        assert bo.max() == pytest.approx(PARAMS.bo_cut, rel=1e-6)

    @pytest.mark.parametrize("pbo1, pbo2", [(0.18, 8.0), (-0.18, -8.0), (0.0, 8.0), (-0.18, 0.0)])
    def test_non_decaying_bond_order_rejected(self, pbo1, pbo2):
        """The derived cutoff assumes BO falls monotonically; a parameter
        set where it does not must fail, not silently shrink the search."""
        from dataclasses import replace

        with pytest.raises(InputError, match="pbo1 < 0 < pbo2"):
            replace(PARAMS, pbo1=pbo1, pbo2=pbo2)

    def test_dbo_matches_fd(self):
        r = np.array([1.3, 1.6, 2.1])
        t = np.ones(3, dtype=int)
        eps = 1e-7
        bo_p, _ = bond_order(r + eps, t, t, PARAMS)
        bo_m, _ = bond_order(r - eps, t, t, PARAMS)
        _, dbo = bond_order(r, t, t, PARAMS)
        np.testing.assert_allclose((bo_p - bo_m) / (2 * eps), dbo, rtol=1e-6)

    @given(seed=st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_preprocessed_equals_reference(self, seed):
        """The count->scan->fill pipeline is bit-identical to the naive
        divergent filter (paper section 4.2.1's correctness requirement)."""
        x, species = random_chno(seed)
        nlist = build_neighbor_list(x, len(x), PARAMS.rcut_bond, style="full")
        a = build_bond_list(x, species, nlist, PARAMS)
        b = build_bond_list_reference(x, species, nlist, PARAMS)
        for name in ("first", "i", "j", "bo", "dbo", "dx", "r", "candidates"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_rows_are_contiguous_per_atom(self):
        x, species = random_chno(7)
        nlist = build_neighbor_list(x, len(x), PARAMS.rcut_bond, style="full")
        bonds = build_bond_list(x, species, nlist, PARAMS)
        assert np.all(np.diff(bonds.i) >= 0)  # sorted by center atom


class TestTripletsQuads:
    def bonds_for(self, seed):
        x, species = random_chno(seed, n=80)
        nlist = build_neighbor_list(x, len(x), PARAMS.rcut_bond, style="full")
        return x, species, build_bond_list(x, species, nlist, PARAMS)

    def test_triplet_count_formula(self):
        x, species, bonds = self.bonds_for(1)
        trip = build_triplets(bonds, len(x))
        nb = bonds.numbonds()
        assert trip.ntriplets == int((nb * (nb - 1) // 2).sum())

    def test_triplet_legs_share_center(self):
        x, species, bonds = self.bonds_for(2)
        trip = build_triplets(bonds, len(x))
        if trip.ntriplets:
            assert np.array_equal(bonds.i[trip.leg1], trip.center)
            assert np.array_equal(bonds.i[trip.leg2], trip.center)
            assert np.all(trip.leg1 < trip.leg2)  # m < n, no duplicates

    def test_quads_obey_constraints(self):
        x, species, bonds = self.bonds_for(3)
        tags = np.arange(1, len(x) + 1)
        quads = build_quads(tags, len(x), bonds, PARAMS)
        if quads.nquads:
            k, i, j, l = quads.atoms.T
            # chain legs really are bonds of the right atoms
            assert np.array_equal(bonds.i[quads.leg_ik], i.astype(np.int64))
            assert np.array_equal(bonds.j[quads.leg_ik], k)
            assert np.array_equal(bonds.j[quads.leg_jl], l)
            # validity filters
            assert np.all(k != j) and np.all(l != i) and np.all(k != l)
            # bond-order product constraint (section 4.2.1)
            prod = (
                bonds.bo[quads.leg_ik]
                * bonds.bo[quads.leg_ij]
                * bonds.bo[quads.leg_jl]
            )
            assert np.all(prod > PARAMS.bo_prod_cut)
            # tie-break: each chain built once
            assert np.all(tags[i.astype(int)] < tags[j.astype(int)])

    def test_quad_sparsity_like_paper(self):
        """Section 4.2.1: a small fraction of candidate quads survives."""
        from repro.workloads.hns import hns_configuration

        x, types, box = hns_configuration(2, 3, 3)
        species = default_chno()  # types already 1..4
        nlist = build_neighbor_list(x, len(x), PARAMS.rcut_bond, style="full")
        bonds = build_bond_list(x, types.astype(np.int64), nlist, PARAMS)
        tags = np.arange(1, len(x) + 1)
        quads = build_quads(tags, len(x), bonds, PARAMS)
        assert quads.candidates > 0
        assert 0 < quads.nquads < 0.5 * quads.candidates


class TestTaperAndKernels:
    def test_taper_boundary_conditions(self):
        rc = 10.0
        t0, dt0 = taper(np.array([0.0]), rc)
        t1, dt1 = taper(np.array([rc]), rc)
        assert t0[0] == pytest.approx(1.0)
        assert dt0[0] == pytest.approx(0.0)
        assert t1[0] == pytest.approx(0.0, abs=1e-12)
        assert dt1[0] == pytest.approx(0.0, abs=1e-12)

    def test_taper_monotone(self):
        r = np.linspace(0, 10, 200)
        t, _ = taper(r, 10.0)
        assert np.all(np.diff(t) <= 1e-12)

    def test_shielded_kernel_regularizes_origin(self):
        shield = np.array([1.0 / 0.85**3])
        g, _ = shielded_kernel(np.array([0.0]), shield)
        assert np.isfinite(g[0])
        # far field approaches bare 1/r
        g_far, _ = shielded_kernel(np.array([8.0]), shield)
        assert g_far[0] == pytest.approx(1 / 8.0, rel=2e-3)

    def test_kernel_derivatives_fd(self):
        r = np.array([1.0, 2.5, 6.0])
        shield = np.full(3, 1.0 / 0.85**3)
        eps = 1e-7
        for fn, args in [
            (lambda rr: shielded_kernel(rr, shield), ()),
            (lambda rr: taper(rr, 10.0), ()),
            (lambda rr: vdw_morse(rr, np.full(3, 0.1), 10.0, np.full(3, 3.5)), ()),
        ]:
            vp, _ = fn(r + eps)
            vm, _ = fn(r - eps)
            _, dv = fn(r)
            np.testing.assert_allclose((vp - vm) / (2 * eps), dv, rtol=1e-5)


class TestQEqMatrix:
    def make(self, seed=0):
        x, species = random_chno(seed, n=70)
        nlist = build_neighbor_list(x, len(x), PARAMS.rcut_nonb + 1.0, style="full")
        return build_qeq_matrix(x, species, nlist, PARAMS, 332.06371), x, species, nlist

    def test_over_allocation(self):
        m, x, species, nlist = self.make()
        # slots come from the full neighbor list; fills may be fewer
        assert m.stored_slots == nlist.total_pairs
        assert m.total_nnz <= m.stored_slots
        assert np.all(m.nnz <= nlist.numneigh)

    def test_compacted_coo_is_the_valid_slots(self):
        """The spmv's COO and row plan, set by the build, are exactly what
        reading the four-structure CSR's valid slots back gives."""
        m, *_ = self.make(3)
        nnz = m.nnz.astype(np.int64)
        csum = np.concatenate(([0], np.cumsum(nnz)[:-1]))
        within = np.arange(nnz.sum()) - np.repeat(csum, nnz)
        idx = np.repeat(m.offsets[:-1], nnz) + within
        assert np.array_equal(m._rows_flat, np.repeat(np.arange(m.nlocal), nnz))
        assert np.array_equal(m._cols_flat, m.cols[idx].astype(np.int64))
        assert m._cols_flat.dtype == np.int64
        assert np.array_equal(m._vals_flat, m.vals[idx])
        assert np.array_equal(m._seg_rows, np.flatnonzero(nnz))
        assert np.array_equal(m._seg_starts, csum[nnz > 0])

    def test_appendix_b_dtypes(self):
        m, *_ = self.make()
        assert m.offsets.dtype == np.int64
        assert m.cols.dtype == np.int32
        assert m.nnz.dtype == np.int32

    def test_spmv_matches_dense(self):
        m, x, species, _ = self.make(4)
        n = m.nlocal
        dense = np.zeros((n, len(x)))
        rows, cols, vals = m._rows_flat, m._cols_flat, m._vals_flat
        dense[rows, cols] = vals
        dense[np.arange(n), np.arange(n)] += m.diag
        rng = np.random.default_rng(0)
        v = rng.normal(size=len(x))
        np.testing.assert_allclose(m.spmv(v), dense @ v, atol=1e-10)

    def test_matrix_symmetric_on_local_block(self):
        m, x, species, _ = self.make(5)
        n = m.nlocal
        rows, cols, vals = m._rows_flat, m._cols_flat, m._vals_flat
        dense = np.zeros((n, n))
        local = cols < n
        dense[rows[local], cols[local]] = vals[local]
        np.testing.assert_allclose(dense, dense.T, atol=1e-10)

    def test_positive_definite_with_hardness(self):
        m, *_ = self.make(6)
        n = m.nlocal
        rows, cols, vals = m._rows_flat, m._cols_flat, m._vals_flat
        dense = np.zeros((n, n))
        local = cols < n
        np.add.at(dense, (rows[local], cols[local]), vals[local])
        dense[np.arange(n), np.arange(n)] += m.diag
        eig = np.linalg.eigvalsh(dense)
        assert eig.min() > 0
