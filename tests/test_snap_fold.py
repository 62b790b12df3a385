"""The folded SNAP wall path against the un-folded three-pass oracle.

``compute_yi`` returns one half-range ``Y = fold * (Y12 + conj Y3)``;
``compute_bispectrum`` sums half-range ``out`` slots only.  Both rest on
``U[j, J-mb, J-ma] = (-1)^(mb+ma) conj U[j, mb, ma]``; the oracle
(:mod:`snap_oracle`) enumerates every image and assumes nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_force_check, gather_by_tag
from snap_oracle import (
    coo_adjoints, coo_bispectrum, every_direction_forces, mirror, stacked_wigner,
)
from test_snap_math import random_neighborhood
from test_snap_pair import make_ta
from repro.core.errors import LammpsError
from repro.core.neighbor import NeighborList
from repro.snap import indexing
from repro.snap.bispectrum import compute_bispectrum
from repro.snap.compute_deidrj import compute_fused_deidrj
from repro.snap.compute_ui import compute_ui
from repro.snap.compute_yi import compute_yi, compute_ytilde
from repro.snap.indexing import SnapIndex
from repro.snap.pair_snap import keep_once, synthetic_beta
from repro.snap.wigner import switching

RCUT = 4.7


def neighborhoods(seed: int, natoms: int = 3, per: int = 7):
    """``(rij, pair_i)`` of ``natoms`` random neighborhoods, list-ordered."""
    rij = np.concatenate(
        [random_neighborhood(seed + 31 * a, n=per) for a in range(natoms)]
    )
    return rij, np.repeat(np.arange(natoms), per)


def totals(twojmax: int, seed: int = 3):
    idx = SnapIndex(twojmax)
    rij, pair_i = neighborhoods(seed)
    U = compute_ui(rij, pair_i, 3, RCUT, twojmax)
    beta = synthetic_beta(idx.nbispectrum, 1.0, seed=seed + 1)
    return idx, rij, pair_i, U, beta


def partners(pair_i: np.ndarray, natoms: int = 3) -> np.ndarray:
    """A partner per pair (another atom, sometimes the center itself), with
    every fourth pair left without one (``natoms``)."""
    partner = (pair_i + np.arange(len(pair_i))) % natoms
    partner[::4] = natoms
    return partner


def hot_ta(nranks: int, cells: int = 2, twojmax: int = 8):
    """A displaced bcc Ta snapshot — the same positions by tag at any rank
    count — with its forces computed."""
    target = make_ta(cells=cells, twojmax=twojmax, nranks=nranks)
    for lmp in getattr(target, "ranks", [target]):
        atom = lmp.atom
        tag = atom.tag[: atom.nlocal]
        atom.x[: atom.nlocal] += 0.2 * np.sin(np.outer(tag, [1.3, 2.9, 0.7]))
    target.command("run 0")
    return target


class TestFoldAgainstOracle:
    @pytest.mark.parametrize("twojmax", [0, 1, 2, 4, 6, 8, 12])
    def test_y_is_the_folded_sum_of_both_adjoints(self, twojmax):
        idx, _, _, U, beta = totals(twojmax)
        Y = compute_yi(U, beta, twojmax)
        y12, y3 = coo_adjoints(U, beta, twojmax)
        want = (idx.fold[:, None] * (y12 + np.conj(y3)))[idx.half]
        assert Y.shape == want.shape
        np.testing.assert_allclose(Y, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("twojmax", [0, 1, 2, 4, 6, 8, 12])
    def test_half_range_and_its_mirror_cover_every_row_once(self, twojmax):
        idx = SnapIndex(twojmax)
        mbar, sign = mirror(twojmax)
        assert np.array_equal(mbar, idx.mirror) and np.array_equal(sign, idx.mirror_sign)
        assert np.array_equal(np.flatnonzero(idx.fold), idx.half)
        selfconj = idx.half[mbar[idx.half] == idx.half]
        assert np.array_equal(selfconj, np.flatnonzero(idx.fold == 1.0))
        both = np.concatenate((idx.half, mbar[idx.fold == 2.0]))
        assert np.array_equal(np.sort(both), np.arange(idx.idxu_max))
        assert len(idx.half) == {0: 1, 1: 3, 2: 8, 4: 29, 6: 72, 8: 145, 12: 413}[twojmax]

    @given(seed=st.integers(0, 300))
    @settings(max_examples=10, deadline=None)
    def test_each_adjoint_inherits_the_mirror_symmetry(self, seed):
        """``Y12[mbar] = s conj Y12[m]`` and the same for ``Y3`` — what lets
        the half range stand for the whole."""
        _, _, _, U, beta = totals(4, seed)
        mbar, sign = mirror(4)
        np.testing.assert_allclose(U[mbar], sign[:, None] * np.conj(U), atol=1e-13)
        for y in coo_adjoints(U, beta, 4):
            np.testing.assert_allclose(
                y[mbar], sign[:, None] * np.conj(y), atol=1e-11 * np.abs(y).max()
            )

    @pytest.mark.parametrize("twojmax", [0, 1, 2, 4, 6, 8, 12])
    def test_bispectrum_is_the_real_part_of_the_full_sum(self, twojmax):
        """12 is the largest ``twojmax`` ``settings()`` accepts: every ``ib``
        must keep a half-range ``out`` row for ``bi_plan``'s ``reduceat``."""
        _, _, _, U, _ = totals(twojmax)
        full = coo_bispectrum(U, twojmax)
        scale = np.abs(full).max()
        assert np.abs(full.imag).max() < 1e-12 * scale
        np.testing.assert_allclose(
            compute_bispectrum(U, twojmax), full.real, rtol=0, atol=1e-12 * scale
        )

    @pytest.mark.parametrize("twojmax", [0, 3, 8])
    def test_euler_identity_ties_y_to_the_energy(self, twojmax):
        """E is homogeneous of degree 3 in (U, conj U): ``Re(Y . U) = 3 E``."""
        idx, _, _, U, beta = totals(twojmax)
        Y = compute_yi(U, beta, twojmax)
        np.testing.assert_allclose(
            np.real(Y * U[idx.half]).sum(axis=0),
            3.0 * (compute_bispectrum(U, twojmax) @ beta),
            rtol=1e-11,
        )

    @given(seed=st.integers(0, 300))
    @settings(max_examples=8, deadline=None)
    def test_force_contraction_matches_the_unfolded_form(self, seed):
        """``dE/dr`` from the half-range contraction equals the explicit
        ``Re(Y12 . dU + Y3 . conj dU)`` over all rows."""
        idx, rij, pair_i, U, beta = totals(4, seed)
        dedr = compute_fused_deidrj(rij, pair_i, compute_yi(U, beta, 4), RCUT, 4)
        y12, y3 = coo_adjoints(U, beta, 4)
        u, du = stacked_wigner(rij, RCUT, 4)
        r = np.linalg.norm(rij, axis=1)
        sfac, dsfac = switching(r, RCUT, 0.0)
        dU = (dsfac * (rij.T / r))[None] * u[:, None] + sfac * du
        want = np.real(
            np.einsum("mp,mdp->pd", y12[:, pair_i], dU)
            + np.einsum("mp,mdp->pd", y3[:, pair_i], np.conj(dU))
        )
        np.testing.assert_allclose(dedr, want, rtol=0, atol=1e-11 * np.abs(want).max())


class TestReversedPair:
    """``u(-r) = u(r)^dagger`` (and the mirror of ``U``): what lets a pair
    be recursed once and ComputeYi read only the half rows."""

    @pytest.mark.parametrize("twojmax", [0, 1, 4, 8])
    def test_reversed_pair_is_the_dagger(self, twojmax):
        dagger = SnapIndex(twojmax).dagger
        rij, _ = neighborhoods(5)
        u, du = stacked_wigner(rij, RCUT, twojmax)
        ur, dur = stacked_wigner(-rij, RCUT, twojmax)
        np.testing.assert_allclose(ur, np.conj(u[dagger]), rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            dur, -np.conj(du[dagger]), rtol=0, atol=1e-13 * np.abs(du).max()
        )

    @pytest.mark.parametrize("twojmax", [0, 1, 2, 4, 8])
    def test_ytilde_is_the_daggered_unfolded_adjoint(self, twojmax):
        idx, _, _, U, beta = totals(twojmax)
        y12, y3 = coo_adjoints(U, beta, twojmax)
        adjoint = y12 + np.conj(y3)
        want = (idx.fold[:, None] * np.conj(adjoint[idx.dagger]))[idx.half]
        got = compute_ytilde(compute_yi(U, beta, twojmax), twojmax)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("twojmax", range(13))
    def test_canonical_rows_rebuild_u_and_its_conjugate(self, twojmax):
        """Exact, on a ``U`` summed straight from the stacked recursion:
        ComputeUi sums only the half rows and unfolds the rest this way."""
        idx = SnapIndex(twojmax)
        rij, pair_i = neighborhoods(7)
        u, _ = stacked_wigner(rij, RCUT, twojmax)
        sfac, _ = switching(np.linalg.norm(rij, axis=1), RCUT, 0.0)
        U = np.zeros((idx.idxu_max, 3), dtype=complex)
        np.add.at(U.T, pair_i, (sfac * u).T)
        T = np.concatenate((U[idx.half], np.conj(U[idx.half])))
        row, sign = idx.canonical_rows
        assert np.array_equal(sign[:, None] * T[row], np.concatenate((U, np.conj(U))))
        np.testing.assert_allclose(
            compute_ui(rij, pair_i, 3, RCUT, twojmax, wself=0.0), U,
            rtol=0, atol=1e-14 * np.abs(U).max(),
        )

    @given(seed=st.integers(0, 300))
    @settings(max_examples=8, deadline=None)
    def test_one_recursion_per_pair_equals_both_directions(self, seed):
        """With a partner, ``U`` and ``dE/dr`` equal the directed kernels
        run over the pairs plus every partnered pair reversed."""
        _, rij, pair_i, _, beta = totals(4, seed)
        partner = partners(pair_i)
        back = partner < 3
        rij_d = np.concatenate((rij, -rij[back]))
        i_d = np.concatenate((pair_i, partner[back]))
        order = np.argsort(i_d, kind="stable")
        U = compute_ui(rij, pair_i, 3, RCUT, 4, partner=partner)
        U_d = compute_ui(rij_d[order], i_d[order], 3, RCUT, 4)
        np.testing.assert_allclose(U, U_d, rtol=0, atol=1e-13 * np.abs(U_d).max())
        Y = compute_yi(U, beta, 4)
        dedr = compute_fused_deidrj(rij, pair_i, Y, RCUT, 4, partner=partner)
        directed = np.empty_like(rij_d)
        directed[order] = compute_fused_deidrj(rij_d[order], i_d[order], Y, RCUT, 4)
        want = directed[: len(rij)].copy()
        want[back] -= directed[len(rij):]  # d/dr of the reverse is -d/d(-r)
        np.testing.assert_allclose(dedr, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestKeptPairs:
    """``pair snap`` recurses each owner-local pair once, from one end."""

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_forces_match_every_direction_reference(self, nranks):
        """2J = 8 at ``cells=2``: rcut > L/2, so an atom sees two images of
        the same neighbor (repeated tag pairs); on 2 and 4 ranks cross-rank
        pairs have no local partner and are kept in both directions."""
        single = hot_ta(1)
        ref = every_direction_forces(single)
        tag = single.atom.tag
        i, j = single.neigh_list.ij_pairs()
        assert len(np.unique(tag[i] * 1000 + tag[j])) < len(i)
        target = single if nranks == 1 else hot_ta(nranks)
        np.testing.assert_allclose(
            gather_by_tag(target, "f"), ref, rtol=0, atol=1e-12 * np.abs(ref).max()
        )
        stats = [lmp.pair.last_stats for lmp in getattr(target, "ranks", [target])]
        kept = sum(s["kept"] for s in stats)
        partnered = sum(s["partnered"] for s in stats)
        assert partnered > 0
        assert (kept > partnered) == (nranks > 1)

    def test_a_list_missing_one_reverse_is_refused(self):
        """A half list or an asymmetric build fails loudly at bind, not
        with silently wrong forces."""
        lmp = make_ta(cells=2, twojmax=2)
        lmp.command("run 0")
        nl = lmp.neigh_list
        assert nl.first[4] - nl.first[3] > 1
        first = nl.first.copy()
        first[4:] -= 1  # drop the second entry of row 3
        lmp.neigh_list = NeighborList(
            nl.style, nl.newton, nl.cutoff, nl.nlocal, first,
            np.delete(nl.neighbors, nl.first[3] + 1),
        )
        with pytest.raises(LammpsError, match="not symmetric on timestep 0"):
            lmp.pair.compute()

    def test_self_images_keep_the_forward_displacement(self):
        """A box shorter than the list cutoff is refused (``CommError``), so
        no run stores an atom's own image; the rule is held here directly:
        the self-image whose first non-zero component is positive is kept,
        and an unmatched one is refused like any other missing reverse."""
        L = 3.3
        tag_i = np.array([1, 2, 1, 1, 1, 1, 2])
        tag_j = np.array([2, 1, 1, 1, 1, 1, 3])
        local = np.array([True] * 6 + [False])
        d = np.array([
            [1.0, 1, 1], [-1, -1, -1],  # an owner-local pair, both directions
            [0, L, -L], [0, -L, L],  # self-images: (0, +L, -L) kept
            [L, 0, 0], [-L, 0, 0],  # self-images: (+L, 0, 0) kept
            [1, 0, 0],  # neighbor owned by another rank: no reverse here
        ])
        assert keep_once(tag_i, tag_j, local, d, 7).tolist() == [
            True, False, True, False, True, False, True,
        ]
        with pytest.raises(LammpsError, match="timestep 7: 2 self-image pairs point forward and 1 back"):
            keep_once(tag_i[:-2], tag_j[:-2], local[:-2], d[:-2], 7)


class TestEdgeCases:
    def test_atom_without_neighbors_keeps_the_self_term(self):
        idx = SnapIndex(4)
        rij, pair_i = neighborhoods(1, natoms=2)
        pair_i = pair_i * 2  # atoms 0 and 2; atom 1 has no pairs
        U = compute_ui(rij, pair_i, 3, RCUT, 4)
        alone = np.zeros(idx.idxu_max, dtype=complex)
        alone[idx.diag_indices()] = 1.0
        assert np.array_equal(U[:, 1], alone)
        Y = compute_yi(U, synthetic_beta(idx.nbispectrum, 1.0), 4)
        assert np.isfinite(compute_fused_deidrj(rij, pair_i, Y, RCUT, 4)).all()

    def test_isolated_atom_feels_no_force(self):
        from repro.core import Lammps

        lmp = Lammps()
        lmp.commands_string(
            "units metal\nboundary f f f\nregion b block 0 30 0 30 0 30\n"
            "create_box 1 b\nmass 1 180.95\n"
            "pair_style snap 4 4.7\npair_coeff 1 1 0.5 1.0\nfix 1 all nve"
        )
        pts = np.array([[5, 5, 5], [7.5, 5.5, 5], [5.5, 7.8, 6], [25, 25, 25.0]])
        lmp.create_atoms_from_arrays(pts, np.ones(4, dtype=int))
        lmp.command("run 0")
        f = gather_by_tag(lmp, "f")
        assert np.array_equal(f[3], np.zeros(3))
        assert np.abs(f[:3]).max() > 1e-3

    def test_empty_pair_list(self):
        idx = SnapIndex(4)
        none = np.zeros((0, 3))
        U = compute_ui(none, np.zeros(0, dtype=int), 2, RCUT, 4)
        assert U.shape == (idx.idxu_max, 2)
        assert U.sum() == 2 * len(idx.diag_indices())
        Y = compute_yi(U, synthetic_beta(idx.nbispectrum, 1.0), 4)
        assert compute_fused_deidrj(none, np.zeros(0, dtype=int), Y, RCUT, 4).shape == (0, 3)

    def test_twojmax_zero_is_a_pure_radial_potential(self):
        lmp = make_ta(twojmax=0)
        lmp.command("run 2")
        assert (
            fd_force_check(lmp, [0, 5], eps=1e-5, energy=lambda l: l.pair.eng_vdwl)
            < 1e-6
        )

    @pytest.mark.parametrize("pairs_per_chunk", [1, 5, 20])
    def test_pairs_straddling_a_deidrj_chunk_boundary(self, monkeypatch, pairs_per_chunk):
        _, rij, pair_i, U, beta = totals(4)  # 21 pairs
        Y = compute_yi(U, beta, 4)
        whole = compute_fused_deidrj(rij, pair_i, Y, RCUT, 4)
        monkeypatch.setattr(indexing, "CHUNK_BYTES", 48 * 25 * pairs_per_chunk)
        assert np.array_equal(compute_fused_deidrj(rij, pair_i, Y, RCUT, 4), whole)

    @pytest.mark.parametrize("pairs_per_chunk", [1, 5, 20])
    def test_kept_pairs_straddling_a_deidrj_chunk_boundary(self, monkeypatch, pairs_per_chunk):
        _, rij, pair_i, _, beta = totals(4)
        partner = partners(pair_i)
        U = compute_ui(rij, pair_i, 3, RCUT, 4, partner=partner)
        Y = compute_yi(U, beta, 4)
        whole = compute_fused_deidrj(rij, pair_i, Y, RCUT, 4, partner=partner)
        monkeypatch.setattr(indexing, "CHUNK_BYTES", 48 * 25 * pairs_per_chunk)
        assert np.array_equal(
            compute_fused_deidrj(rij, pair_i, Y, RCUT, 4, partner=partner), whole
        )

    @pytest.mark.parametrize("terms", [1, 37, 600])
    def test_yi_chunks_never_split_a_dest_segment(self, monkeypatch, terms):
        """Chunks end on ``dest`` boundaries (a segment longer than the
        budget goes whole), so no sum depends on where the chunks fall."""
        _, _, _, U, beta = totals(6)
        whole, whole_b = compute_yi(U, beta, 6), compute_bispectrum(U, 6)
        plan = SnapIndex(6).yi_plan
        assert np.diff(np.r_[plan.starts, plan.nterms]).max() > 37
        monkeypatch.setattr(indexing, "CHUNK_BYTES", 16 * U.shape[1] * terms)
        assert np.array_equal(compute_yi(U, beta, 6), whole)
        assert np.array_equal(compute_bispectrum(U, 6), whole_b)


class TestPlanKeys:
    def test_structure_is_per_twojmax(self):
        assert SnapIndex(4).yi_plan is SnapIndex(4).yi_plan
        assert SnapIndex(4).yi_plan.nterms != SnapIndex(6).yi_plan.nterms
        # 3 x 32 578 term-passes -> 50 068 half-range -> 40 504 merged over
        # [U; conj U] -> 30 598 merged over the canonical rows [U; conj U][half]
        plan = SnapIndex(8).yi_plan
        assert (SnapIndex(8).tensor.nterms, len(plan.group), plan.nterms) == (
            32578, 50068, 30598,
        )

    def test_weights_follow_the_content_of_beta(self):
        idx, _, _, U, beta = totals(4)
        other = synthetic_beta(idx.nbispectrum, 1.0, seed=99)
        y_a = compute_yi(U, beta, 4)
        assert not np.allclose(compute_yi(U, other, 4), y_a)
        mutated = beta.copy()
        mutated[3] *= 2.0  # same array shape, one entry: content, not identity
        assert not np.allclose(compute_yi(U, mutated, 4), y_a)
        assert np.array_equal(compute_yi(U, beta, 4), y_a)

    def test_second_pair_coeff_changes_the_forces(self):
        lmp = make_ta()
        lmp.command("run 2")
        first = gather_by_tag(lmp, "f").copy()
        lmp.command("pair_coeff 1 1 0.5 2.0")
        lmp.command("run 0")
        assert np.abs(gather_by_tag(lmp, "f") - first).max() > 1e-3
        lmp.command("pair_coeff 1 1 0.5 1.0")
        lmp.command("run 0")  # (re-neighbors: same forces up to summation order)
        np.testing.assert_allclose(gather_by_tag(lmp, "f"), first, atol=1e-12)

    def test_beta_of_the_wrong_length_is_refused(self):
        _, _, _, U, _ = totals(4)
        with pytest.raises(ValueError, match="beta has"):
            compute_yi(U, np.ones(3), 4)

