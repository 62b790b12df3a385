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


# ------------------------------------------------------------- box batches
def _split(nlist, nlocal) -> list[tuple[np.ndarray, np.ndarray]]:
    """A box batch's list cut into each box's ``(first, neighbors)``."""
    parts, r = [], 0
    for n in nlocal:
        a, b = nlist.first[r], nlist.first[r + n]
        parts.append((nlist.first[r : r + n + 1] - a, nlist.neighbors[a:b]))
        r += n
    return parts


def _boxes(seed: int = 5):
    """Five boxes of mixed size and shape (their grids differ in ``nbins``),
    owned atoms first then ghosts in each, one box with no owned atoms."""
    rng = np.random.default_rng(seed)
    spans = [(4.0, 4.0, 4.0), (9.0, 3.0, 5.0), (1.05, 2.2, 7.5), (6.0, 6.0, 2.0), (5.0, 5.0, 5.0)]
    counts = [(40, 150), (70, 260), (0, 60), (25, 120), (55, 55)]
    xs = [rng.uniform(-1.0, 1.0, (nall, 3)) * np.array(s) for s, (_, nall) in zip(spans, counts)]
    return xs, counts


@pytest.mark.parametrize("style,newton", [("half", True), ("half", False), ("full", False)])
@pytest.mark.parametrize("bins_per_cutoff", [2, 5 / 3])
def test_box_batch_is_each_solo_list(style, newton, bins_per_cutoff):
    """One build over a batch of boxes gives, box by box, the solo list bit
    for bit — on the default grid and on one whose boxes differ in reach
    (the batch scans every box at the widest)."""
    from repro.core.bin_grid import BinGrid

    xs, counts = _boxes()
    cutoff = 1.9
    bins = cutoff / bins_per_cutoff
    x = np.concatenate(xs)
    grid = BinGrid(x, counts, bins)
    assert len({tuple(n) for n in grid.nbins}) > 1
    if bins_per_cutoff != 2:  # a box's own reach differs from the grid's
        own = np.maximum(np.ceil(cutoff / grid.size - 1e-12), 1)
        assert len({tuple(r) for r in own}) > 1
    batch = build_neighbor_list(x, counts, cutoff, style=style, newton=newton, grid=grid)
    parts = _split(batch, [n for n, _ in counts])
    assert batch.total_pairs == sum(len(p[1]) for p in parts)
    for b, (xb, (nlocal, _), (first, neighbors)) in enumerate(zip(xs, counts, parts)):
        solo = build_neighbor_list(
            xb, nlocal, cutoff, style=style, newton=newton, grid=BinGrid(xb, nlocal, bins)
        )
        assert np.array_equal(first, solo.first), b
        assert np.array_equal(neighbors, solo.neighbors), b
        assert neighbors.dtype == solo.neighbors.dtype


def test_box_batch_private_grid_and_validation():
    """Without a grid the batch bins its boxes itself; box counts that do
    not add up to ``x`` are refused."""
    xs, counts = _boxes(6)
    x = np.concatenate(xs)
    parts = _split(
        build_neighbor_list(x, counts, 1.7, style="half", newton=True), [n for n, _ in counts]
    )
    for xb, (nlocal, _), (_, neighbors) in zip(xs, counts, parts):
        solo = build_neighbor_list(xb, nlocal, 1.7, style="half", newton=True)
        assert np.array_equal(neighbors, solo.neighbors)
    with pytest.raises(NeighborError, match="boxes hold"):
        build_neighbor_list(x[:-1], counts, 1.7)
    with pytest.raises(NeighborError, match="nlocal 9 outside"):
        build_neighbor_list(x[:13], [(9, 8), (0, 5)], 1.7)


# ------------------------------------------------ the replica batch's build
def _member(every: int, seed: int):
    from repro.core import Lammps
    from repro.workloads.melt import MELT_TEMPLATE

    lmp = Lammps(quiet=True)
    lmp.commands_string(MELT_TEMPLATE.format(cells=2, pair_style="lj/cut"))
    lmp.commands_string(
        f"velocity all create 1.44 {seed}\nneigh_modify every {every} delay 0 check no"
    )
    return lmp


def test_batch_rebuild_step_is_one_grid_and_one_build(monkeypatch):
    """Each rebuild step bins and builds once, however many members are
    due; a member that is not due records no build."""
    import repro.replica.batch as batch_mod
    from repro.core.bin_grid import BinGrid
    from repro.replica import ReplicaBatch

    builds = []
    real = batch_mod.build_neighbor_list
    monkeypatch.setattr(
        batch_mod, "build_neighbor_list", lambda *a, **k: builds.append(1) or real(*a, **k)
    )
    members = [_member(e, 500 + k) for k, e in enumerate((5, 5, 7, 7))]
    batch = ReplicaBatch()
    for m in members:
        batch.add_replica(m)
    batch.step(0)  # stacking derives every member's set-up list in one build
    seen = set()
    for step in range(1, 36):
        before = [m.neighbor.builds for m in members]
        grids, calls = BinGrid.builds_total, len(builds)
        batch.step(1)
        due = [k for k, m in enumerate(members) if m.neighbor.builds != before[k]]
        assert due == [k for k, e in enumerate((5, 5, 7, 7)) if step % e == 0], step
        assert BinGrid.builds_total - grids == len(builds) - calls == (1 if due else 0)
        seen.add(len(due))
    assert seen == {0, 2, 4}  # steps 5/7 (2 of 4 due) and 35 (all four)
