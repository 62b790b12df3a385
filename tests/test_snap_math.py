"""SNAP mathematics: CG coefficients, Wigner recursion, bispectrum invariance."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from snap_oracle import coo_bispectrum, forward_levels
from repro.snap.bispectrum import compute_bispectrum
from repro.snap.cg import clebsch_gordan, triangle_ok
from repro.snap.compute_ui import compute_ui
from repro.snap.indexing import SnapIndex, _cg_terms
from repro.snap.wigner import cayley_klein, level_rows, switching, wigner_levels


def fraction_cg(j1: int, m1: int, j2: int, m2: int, j: int, m: int) -> float:
    """Racah's formula with the alternating sum in ``Fraction`` s (doubled
    arguments): the exact-rational oracle of :func:`clebsch_gordan`."""
    if m != m1 + m2 or not triangle_ok(j1, j2, j):
        return 0.0
    if any(abs(mx) > jx or (jx + mx) % 2 for jx, mx in ((j1, m1), (j2, m2), (j, m))):
        return 0.0
    f = lambda n2: math.factorial(n2 // 2)  # noqa: E731
    pref = Fraction(f(j1 + j2 - j) * f(j1 - j2 + j) * f(-j1 + j2 + j) * (j + 1),
                    f(j1 + j2 + j + 2))
    pref *= f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2) * f(j + m) * f(j - m)
    total = Fraction(0)
    for z in range(max(0, (j2 - j - m1) // 2, (j1 - j + m2) // 2),
                   min((j1 + j2 - j) // 2, (j1 - m1) // 2, (j2 + m2) // 2) + 1):
        total += Fraction((-1) ** z, f(2 * z) * f(j1 + j2 - j - 2 * z) * f(j1 - m1 - 2 * z)
                          * f(j2 + m2 - 2 * z) * f(j - j2 + m1 + 2 * z)
                          * f(j - j1 - m2 + 2 * z))
    if total == 0:
        return 0.0
    return float(total) * math.sqrt(pref.numerator / pref.denominator)


def loop_tensor(idx: SnapIndex) -> list[np.ndarray]:
    """``[ib, out, in1, in2, coeff]`` of the contraction tensor, one row at a
    time: the loop oracle of :attr:`SnapIndex.tensor`."""
    rows = []
    for ib, (j1, j2, j) in enumerate(idx.idxb):
        cg = [_cg_terms(j1, j2, j, m) for m in range(j + 1)]
        for mb, ma in product(range(j + 1), repeat=2):
            for (mb1, mb2, cr), (ma1, ma2, cc) in product(cg[mb], cg[ma]):
                rows.append((ib, idx.flat(j, mb, ma), idx.flat(j1, mb1, ma1),
                             idx.flat(j2, mb2, ma2), cr * cc))
    *index, coeff = zip(*rows)
    return [np.asarray(c, dtype=np.int64) for c in index] + [np.asarray(coeff)]


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

    def test_every_coefficient_matches_the_fraction_oracle(self):
        """Bit for bit over every (j1, m1, j2, m2, j) with 2j <= 8."""
        checked = 0
        for j1, j2, j in product(range(9), repeat=3):
            for m1, m2 in product(range(-j1, j1 + 1, 2), range(-j2, j2 + 1, 2)):
                if abs(m1 + m2) <= j:
                    got = clebsch_gordan(j1, m1, j2, m2, j, m1 + m2)
                    want = fraction_cg(j1, m1, j2, m2, j, m1 + m2)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()
                    checked += 1
        assert checked > 4000

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

    @pytest.mark.parametrize("twojmax", range(9))
    def test_tensor_is_the_loop_oracle_bit_for_bit(self, twojmax):
        t = SnapIndex(twojmax).tensor
        for got, want in zip((t.ib, t.out, t.in1, t.in2, t.coeff),
                             loop_tensor(SnapIndex(twojmax))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_tensor_coefficients_real_finite(self):
        t = SnapIndex(4).tensor
        assert np.all(np.isfinite(t.coeff))
        assert t.nterms > 0


class TestWignerRecursion:
    """The forward-mode levels of :mod:`snap_oracle` (every row, with the
    product-rule derivative), and the trimmed levels the kernels run."""

    def test_unitarity_every_layer(self):
        rij = random_neighborhood(0, n=4)
        for J, u, _ in forward_levels(rij, 4.7, twojmax=8):
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
        du = [d for _, _, d in forward_levels(rij, 4.7, twojmax=6)]
        eps = 1e-6
        for d in range(3):
            rp, rm = rij.copy(), rij.copy()
            rp[:, d] += eps
            rm[:, d] -= eps
            for (J, up, _), (_, um, _) in zip(
                forward_levels(rp, 4.7, twojmax=6), forward_levels(rm, 4.7, twojmax=6)
            ):
                assert du[J].shape == (J + 1, J + 1, 3, 3)
                np.testing.assert_allclose(
                    (up - um) / (2 * eps), du[J][:, :, d], atol=5e-7
                )

    @pytest.mark.parametrize("twojmax", [0, 1, 4, 8, 9, 12])
    def test_trimmed_levels_are_the_oracle_rows(self, twojmax):
        """``wigner_levels`` yields only the rows a consumer reads — the
        computed rows plus an odd level's mirror row — and on the half rows
        ``S v`` (``SnapIndex.half_scale``) is the oracle's ``u`` within 1e-14 of
        the level's largest entry.  Not bit for bit: the oracle multiplies
        a square-root coefficient in at every level, the scaled form once
        (an entry near zero loses relative digits to cancellation in both,
        so the bound is per level, not per entry)."""
        rij = random_neighborhood(3, n=5)
        _, ca, cb, _, _ = cayley_klein(rij, 4.7, 0.0)
        idx = SnapIndex(twojmax)
        blk, S = idx.half_block, idx.half_scale
        for (J, v), (_, full, _) in zip(
            wigner_levels(np.ones(5), ca, cb, twojmax), forward_levels(rij, 4.7, twojmax)
        ):
            assert v.shape == (level_rows(J), J + 1, 5)
            k = blk[J + 1] - blk[J]
            u, ref = S[blk[J] : blk[J + 1]] * v.reshape(-1, 5)[:k], full.reshape(-1, 5)[:k]
            assert np.abs(u - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("twojmax", [1, 4, 8, 9, 12])
    def test_scaled_mirror_rows_are_exact(self, twojmax):
        """``S`` is the same at ``(mb, ma)`` and its mirror, so ``v`` keeps
        ``u``'s mirror relation ``v[J-mb, J-ma] = (-1)^(mb+ma) conj v[mb,
        ma]``, bit for bit, on the rows the recursion mirrors."""
        rij = random_neighborhood(4, n=6)
        _, ca, cb, _, _ = cayley_klein(rij, 4.7, 0.0)
        for J, v in wigner_levels(np.ones(6), ca, cb, twojmax):
            c, ma = J // 2, np.arange(J + 1)
            image = ((-1.0) ** (c + J - ma))[:, None] * np.conj(v[c, ::-1])
            if J % 2:
                assert np.array_equal(v[c + 1], image)
            else:
                assert np.array_equal(v[c, c + 1 :], image[c + 1 :])

    def test_switching_function(self):
        sfac, dsfac = switching(np.array([0.0, 2.35, 4.7, 5.0]), 4.7, 0.0)
        assert sfac[0] == pytest.approx(1.0)
        assert sfac[1] == pytest.approx(0.5)
        assert sfac[2] == pytest.approx(0.0, abs=1e-12)
        assert sfac[3] == 0.0  # beyond cutoff
        assert dsfac[1] < 0

    def test_empty_input(self):
        levels = list(forward_levels(np.zeros((0, 3)), 4.7, twojmax=4))
        assert [u.shape for _, u, _ in levels] == [(k, k, 0) for k in range(1, 6)]
        assert [du.shape for _, _, du in levels] == [(k, k, 3, 0) for k in range(1, 6)]
        _, ca, cb, _, _ = cayley_klein(np.zeros((0, 3)), 4.7, 0.0)
        assert [u.shape for _, u in wigner_levels(np.ones(0), ca, cb, 4)] == [
            (level_rows(J), J + 1, 0) for J in range(5)
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
        full = coo_bispectrum(SnapIndex(8).unfold(U), 8)  # every image, complex
        assert np.abs(full.imag).max() < 1e-12 * np.abs(full).max()
        np.testing.assert_allclose(
            compute_bispectrum(U, 8), full.real, rtol=0,
            atol=1e-12 * np.abs(full).max(),
        )
