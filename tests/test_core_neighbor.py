"""Neighbor lists: binned build vs brute force, half/full semantics, policy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import NeighborError
from repro.core.neighbor import (
    Neighbor,
    brute_force_pairs,
    build_neighbor_list,
)


def random_config(seed: int, n: int = 120, box: float = 8.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, box, size=(n, 3))


class TestCorrectness:
    @given(seed=st.integers(0, 1000), cutoff=st.floats(0.5, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_full_list_matches_brute_force(self, seed, cutoff):
        x = random_config(seed)
        nl = build_neighbor_list(x, len(x), cutoff, style="full")
        got = set(zip(*[a.tolist() for a in nl.ij_pairs()]))
        assert got == brute_force_pairs(x, len(x), cutoff)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_half_newton_list_has_each_pair_once(self, seed):
        x = random_config(seed)
        nl = build_neighbor_list(x, len(x), 1.5, style="half", newton=True)
        got = list(zip(*[a.tolist() for a in nl.ij_pairs()]))
        # pairs are stored in scan orientation (i is the owning row, j may
        # be a lower index); normalize to unordered pairs and require each
        # physical pair exactly once
        norm = [(min(i, j), max(i, j)) for i, j in got]
        ref = {(i, j) for i, j in brute_force_pairs(x, len(x), 1.5) if j > i}
        assert len(norm) == len(set(norm))
        assert set(norm) == ref

    def test_half_list_local_ghost_semantics(self):
        """With ghosts: newton on applies the tie-break, newton off keeps all."""
        # atoms 0, 1 local; atom 2 a ghost "below" atom 0 in the tie-break
        # ordering (smaller x, same y/z)
        x = np.array([[5.0, 5, 5], [6.0, 5, 5], [4.0, 5, 5]])
        nlocal = 2
        on = build_neighbor_list(x, nlocal, 1.5, style="half", newton=True)
        off = build_neighbor_list(x, nlocal, 1.5, style="half", newton=False)
        pairs_on = set(zip(*[a.tolist() for a in on.ij_pairs()]))
        pairs_off = set(zip(*[a.tolist() for a in off.ij_pairs()]))
        assert (0, 1) in pairs_on and (0, 1) in pairs_off
        # newton on: the ghost loses the coordinate tie-break (the owning
        # rank computes it); newton off: this rank keeps its side
        assert (0, 2) not in pairs_on
        assert (0, 2) in pairs_off

    def test_chunked_build_identical(self):
        x = random_config(3, n=500)
        a = build_neighbor_list(x, len(x), 1.2, chunk=64)
        b = build_neighbor_list(x, len(x), 1.2, chunk=100000)
        assert np.array_equal(a.first, b.first)
        assert np.array_equal(np.sort(a.neighbors), np.sort(b.neighbors))

    def test_empty_and_single_atom(self):
        nl = build_neighbor_list(np.zeros((0, 3)), 0, 1.0)
        assert nl.total_pairs == 0
        nl = build_neighbor_list(np.zeros((1, 3)), 1, 1.0)
        assert nl.total_pairs == 0  # no self pairs

    def test_validation(self):
        with pytest.raises(NeighborError):
            build_neighbor_list(np.zeros((2, 3)), 2, -1.0)
        with pytest.raises(NeighborError):
            build_neighbor_list(np.zeros((2, 3)), 5, 1.0)
        with pytest.raises(NeighborError):
            build_neighbor_list(np.zeros((2, 3)), 2, 1.0, style="third")


class TestStorageFormat:
    def test_appendix_b_dtypes(self):
        x = random_config(0)
        nl = build_neighbor_list(x, len(x), 1.5)
        assert nl.first.dtype == np.int64  # row offsets: bigint
        assert nl.neighbors.dtype == np.int32  # column indices: narrow

    def test_csr_consistency(self):
        x = random_config(1)
        nl = build_neighbor_list(x, len(x), 1.5)
        assert nl.first[0] == 0
        assert nl.first[-1] == len(nl.neighbors)
        assert np.all(np.diff(nl.first) == nl.numneigh)


class TestRebuildPolicy:
    def test_first_call_builds(self):
        n = Neighbor(skin=0.3)
        assert n.decide(0, np.zeros((3, 3)))

    def test_displacement_trigger(self):
        n = Neighbor(skin=0.4)
        x = np.zeros((3, 3))
        n.record_build(0, x)
        assert not n.decide(1, x)
        moved = x.copy()
        moved[0, 0] = 0.19  # just under skin/2
        assert not n.decide(1, moved)
        moved[0, 0] = 0.21  # over skin/2
        assert n.decide(1, moved)

    def test_every_and_delay(self):
        n = Neighbor(skin=0.3, every=5, delay=3, check=False)
        n.record_build(0, np.zeros((2, 3)))
        assert not n.decide(2, np.zeros((2, 3)))  # within delay
        assert not n.decide(4, np.zeros((2, 3)))  # not on the every-grid
        assert n.decide(5, np.zeros((2, 3)))

    def test_atom_count_change_forces_rebuild(self):
        n = Neighbor(skin=0.3)
        n.record_build(0, np.zeros((3, 3)))
        assert n.decide(1, np.zeros((4, 3)))  # migration changed counts
