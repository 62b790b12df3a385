"""SNAP mathematics: CG coefficients, Wigner recursion, bispectrum invariance."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from snap_oracle import coo_bispectrum
from repro.snap.bispectrum import compute_bispectrum
from repro.snap.cg import clebsch_gordan, triangle_ok
from repro.snap.compute_ui import compute_ui
from repro.snap.indexing import SnapIndex
from repro.snap.wigner import switching, wigner_levels


def random_neighborhood(seed: int, n: int = 10, rcut: float = 4.7):
    rng = np.random.default_rng(seed)
    rij = rng.normal(size=(n, 3))
    rij *= (rcut * rng.uniform(0.3, 0.9, (n, 1))) / np.linalg.norm(
        rij, axis=1, keepdims=True
    )
    return rij


class TestClebschGordan:
    def test_textbook_values(self):
        # <1/2 1/2 1/2 -1/2 | 1 0> = 1/sqrt(2)
        assert clebsch_gordan(1, 1, 1, -1, 2, 0) == pytest.approx(1 / math.sqrt(2))
        # <1/2 1/2 1/2 -1/2 | 0 0> = 1/sqrt(2)
        assert clebsch_gordan(1, 1, 1, -1, 0, 0) == pytest.approx(1 / math.sqrt(2))
        # <1 0 1 0 | 2 0> = sqrt(2/3)
        assert clebsch_gordan(2, 0, 2, 0, 4, 0) == pytest.approx(math.sqrt(2 / 3))
        # <1 1 1 -1 | 0 0> = 1/sqrt(3)
        assert clebsch_gordan(2, 2, 2, -2, 0, 0) == pytest.approx(1 / math.sqrt(3))
        # <1 0 1 0 | 1 0> = 0 (antisymmetric combination vanishes)
        assert clebsch_gordan(2, 0, 2, 0, 2, 0) == 0.0

    def test_selection_rules(self):
        assert clebsch_gordan(2, 0, 2, 0, 4, 2) == 0.0  # m != m1 + m2
        assert clebsch_gordan(2, 0, 2, 0, 8, 0) == 0.0  # triangle violated
        assert clebsch_gordan(2, 4, 2, 0, 4, 4) == 0.0  # |m1| > j1

    @given(
        j1=st.integers(0, 6),
        j2=st.integers(0, 6),
        j=st.integers(0, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_orthogonality_sum_rule(self, j1, j2, j):
        """sum_{m1,m2} <j1 m1 j2 m2|j m>^2 = 1 for every valid (j, m)."""
        if not triangle_ok(j1, j2, j):
            return
        for mx2 in range(-j, j + 1, 2):
            total = 0.0
            for m1 in range(-j1, j1 + 1, 2):
                m2 = mx2 - m1
                if abs(m2) <= j2:
                    total += clebsch_gordan(j1, m1, j2, m2, j, mx2) ** 2
            assert total == pytest.approx(1.0, abs=1e-12)

    @given(
        j1=st.integers(0, 5),
        j2=st.integers(0, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_exchange_symmetry(self, j1, j2):
        """<j1 m1 j2 m2|j m> = (-1)^(j1+j2-j) <j2 m2 j1 m1|j m>."""
        for j in range(abs(j1 - j2), j1 + j2 + 1, 2):
            phase = (-1.0) ** ((j1 + j2 - j) // 2)
            for m1 in range(-j1, j1 + 1, 2):
                for m2 in range(-j2, j2 + 1, 2):
                    if abs(m1 + m2) > j:
                        continue
                    a = clebsch_gordan(j1, m1, j2, m2, j, m1 + m2)
                    b = clebsch_gordan(j2, m2, j1, m1, j, m1 + m2)
                    assert a == pytest.approx(phase * b, abs=1e-12)

    def test_invalid_factorial_arg(self):
        from repro.snap.cg import _fact

        with pytest.raises(ValueError):
            _fact(3)  # odd doubled index
        with pytest.raises(ValueError):
            _fact(-2)


class TestIndexing:
    def test_idxu_block_sizes(self):
        idx = SnapIndex(8)
        assert idx.idxu_max == sum((j + 1) ** 2 for j in range(9))  # 285
        assert idx.idxu_block[1] - idx.idxu_block[0] == 1
        assert idx.idxu_block[9] == idx.idxu_max

    def test_paper_index_constraints(self):
        """Section 4.3: 0 <= j2 <= j1 <= j <= J after symmetry reduction."""
        idx = SnapIndex(8)
        for j1, j2, j in idx.idxb:
            assert 0 <= j2 <= j1 <= j <= 8
            assert triangle_ok(j1, j2, j)

    def test_known_bispectrum_count(self):
        # LAMMPS: twojmax=8 -> 55 bispectrum components
        assert SnapIndex(8).nbispectrum == 55
        assert SnapIndex(4).nbispectrum == 14
        assert SnapIndex(0).nbispectrum == 1

    def test_flattening_row_major(self):
        idx = SnapIndex(4)
        # j slowest, m' (ma) fastest (section 4.3.1)
        assert idx.flat(2, 0, 1) == idx.flat(2, 0, 0) + 1
        assert idx.flat(2, 1, 0) == idx.flat(2, 0, 0) + 3

    def test_singleton_cache(self):
        assert SnapIndex(6) is SnapIndex(6)

    def test_tensor_coefficients_real_finite(self):
        t = SnapIndex(4).tensor
        assert np.all(np.isfinite(t.coeff))
        assert t.nterms > 0


class TestWignerRecursion:
    def test_unitarity_every_layer(self):
        rij = random_neighborhood(0, n=4)
        for J, u, _ in wigner_levels(rij, 4.7, twojmax=8):
            assert u.shape == (J + 1, J + 1, 4)  # [mb, ma, pair]
            for p in range(4):
                blk = u[:, :, p]
                np.testing.assert_allclose(
                    blk @ blk.conj().T, np.eye(J + 1), atol=1e-12
                )

    @given(seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_derivative_matches_fd(self, seed):
        rij = random_neighborhood(seed, n=3)
        du = [d for _, _, d in wigner_levels(rij, 4.7, twojmax=6, derivatives=True)]
        eps = 1e-6
        for d in range(3):
            rp, rm = rij.copy(), rij.copy()
            rp[:, d] += eps
            rm[:, d] -= eps
            for (J, up, _), (_, um, _) in zip(
                wigner_levels(rp, 4.7, twojmax=6), wigner_levels(rm, 4.7, twojmax=6)
            ):
                rows = (J + 1) // 2 + 1  # all the derivative recursion keeps
                assert du[J].shape == (rows, J + 1, 3, 3)
                np.testing.assert_allclose(
                    ((up - um) / (2 * eps))[:rows], du[J][:, :, d], atol=5e-7
                )

    def test_switching_function(self):
        sfac, dsfac = switching(np.array([0.0, 2.35, 4.7, 5.0]), 4.7, 0.0)
        assert sfac[0] == pytest.approx(1.0)
        assert sfac[1] == pytest.approx(0.5)
        assert sfac[2] == pytest.approx(0.0, abs=1e-12)
        assert sfac[3] == 0.0  # beyond cutoff
        assert dsfac[1] < 0

    def test_empty_input(self):
        levels = list(wigner_levels(np.zeros((0, 3)), 4.7, twojmax=4, derivatives=True))
        assert [u.shape for _, u, _ in levels] == [(k, k, 0) for k in range(1, 6)]
        assert [du.shape for _, _, du in levels] == [
            (k // 2 + 1, k, 3, 0) for k in range(1, 6)
        ]


class TestBispectrumInvariance:
    @given(seed=st.integers(0, 300), rot_seed=st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_rotation_invariance(self, seed, rot_seed):
        """B is invariant under any rotation of the neighborhood — the
        property that makes the triple products valid descriptors (eq. 3)."""
        rij = random_neighborhood(seed)
        pair_i = np.zeros(len(rij), dtype=int)
        U1 = compute_ui(rij, pair_i, 1, 4.7, 6)
        B1 = compute_bispectrum(U1, 6)
        R = Rotation.random(random_state=rot_seed).as_matrix()
        U2 = compute_ui(rij @ R.T, pair_i, 1, 4.7, 6)
        B2 = compute_bispectrum(U2, 6)
        np.testing.assert_allclose(B1, B2, rtol=1e-9, atol=1e-9)

    def test_permutation_invariance(self):
        rij = random_neighborhood(5)
        pair_i = np.zeros(len(rij), dtype=int)
        U1 = compute_ui(rij, pair_i, 1, 4.7, 6)
        U2 = compute_ui(rij[::-1], pair_i, 1, 4.7, 6)
        np.testing.assert_allclose(
            compute_bispectrum(U1, 6), compute_bispectrum(U2, 6), atol=1e-10
        )

    def test_neighbors_beyond_cutoff_ignored(self):
        rij = random_neighborhood(6)
        far = np.array([[10.0, 0, 0]])
        pair_i = np.zeros(len(rij), dtype=int)
        U1 = compute_ui(rij, pair_i, 1, 4.7, 4)
        U2 = compute_ui(
            np.vstack([rij, far]), np.zeros(len(rij) + 1, dtype=int), 1, 4.7, 4
        )
        np.testing.assert_allclose(
            compute_bispectrum(U1, 4), compute_bispectrum(U2, 4), atol=1e-12
        )

    def test_bispectrum_real(self):
        rij = random_neighborhood(7)
        U = compute_ui(rij, np.zeros(len(rij), dtype=int), 1, 4.7, 8)
        full = coo_bispectrum(U, 8)  # every image, complex
        assert np.abs(full.imag).max() < 1e-12 * np.abs(full).max()
        np.testing.assert_allclose(
            compute_bispectrum(U, 8), full.real, rtol=0,
            atol=1e-12 * np.abs(full).max(),
        )
