"""Shared BinGrid subsystem: brute-force equivalence, sorting, sharing.

Property tests for the neighbor subsystem (paper section 4.1): the
shared-grid half-stencil builder must produce exactly the brute-force
oracle's pair sets across every style/newton/ghost combination, one grid
must serve lists at several cutoffs, and spatial atom sorting must be a
pure permutation of the physics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.potentials  # noqa: F401  (register pair styles)
from repro.core import Lammps
from repro.core.bin_grid import BinGrid, spatial_sort_order
from repro.core.neighbor import brute_force_pairs, build_neighbor_list
from repro.workloads.melt import setup_melt


def random_config(seed: int, n: int = 150, box: float = 8.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, box, size=(n, 3))


def normalized_pairs(nl) -> set[tuple[int, int]]:
    """Orientation-free pair set: scan order differs between builds."""
    i, j = nl.ij_pairs()
    return {(min(a, b), max(a, b)) for a, b in zip(i.tolist(), j.tolist())}


def assert_matches_brute_force(x, nlocal, cutoff, style, newton) -> None:
    """The built list holds exactly the oracle's pairs, per the list rule.

    Full lists store every ordered (owned i, j) pair.  Half lists store an
    owned-owned pair once; an owned-ghost pair is stored by its owned side
    always with newton off, and with newton on only when the ghost wins
    LAMMPS's (z, y, x) coordinate tie-break.
    """
    nl = build_neighbor_list(x, nlocal, cutoff, style=style, newton=newton)
    oracle = brute_force_pairs(x, nlocal, cutoff)
    if style == "full":
        assert set(zip(*[a.tolist() for a in nl.ij_pairs()])) == oracle
        assert nl.total_pairs == len(oracle)
        return
    zyx = [tuple(row[::-1]) for row in x.tolist()]
    expected = {
        (min(i, j), max(i, j))
        for i, j in oracle
        if j < nlocal or not newton or zyx[j] > zyx[i]
    }
    assert normalized_pairs(nl) == expected
    # each physical pair once — no double count hiding behind the set
    assert nl.total_pairs == len(expected)


class TestLegacyEquivalence:
    """The shared builder against the O(n^2) oracle (the class name dates
    from when a second binned builder was the reference)."""

    @given(
        seed=st.integers(0, 500),
        cutoff=st.floats(0.8, 2.5),
        style=st.sampled_from(["half", "full"]),
        newton=st.booleans(),
        ghost_frac=st.sampled_from([0.0, 0.25]),
    )
    @settings(max_examples=40, deadline=None)
    def test_pair_sets_match_legacy(self, seed, cutoff, style, newton, ghost_frac):
        x = random_config(seed)
        nlocal = len(x) - int(ghost_frac * len(x))
        assert_matches_brute_force(x, nlocal, cutoff, style, newton)

    def test_ghost_heavy_layout(self):
        """Many ghosts (multi-rank border shells) under both newton modes."""
        x = random_config(7, n=240)
        nlocal = 80  # two thirds of the array is ghost shell
        for newton in (True, False):
            assert_matches_brute_force(x, nlocal, 1.6, "half", newton)


class TestSharedGrid:
    """One grid per rebuild serves every cutoff's list."""

    def test_multi_cutoff_builds_match_independent(self):
        """Lists at several cutoffs from one grid == private-grid builds."""
        x = random_config(11, n=300)
        nlocal = 220
        cutmax = 2.4
        grid = BinGrid(x, nlocal, 0.5 * cutmax)
        for cutoff in (0.9, 1.5, cutmax):
            for style, newton in (("full", False), ("half", True)):
                shared = build_neighbor_list(
                    x, nlocal, cutoff, style=style, newton=newton, grid=grid
                )
                private = build_neighbor_list(
                    x, nlocal, cutoff, style=style, newton=newton
                )
                assert shared.build_stats["grid_builds"] == 0  # reused
                assert private.build_stats["grid_builds"] == 1
                assert normalized_pairs(shared) == normalized_pairs(private)

    def test_mismatched_grid_is_ignored(self):
        """A grid over different atoms can't poison the build."""
        x = random_config(13, n=120)
        stale = BinGrid(x[:60], 40, 1.0)
        nl = build_neighbor_list(x, len(x), 1.5, style="full", grid=stale)
        assert nl.build_stats["grid_builds"] == 1  # built its own
        got = set(zip(*[a.tolist() for a in nl.ij_pairs()]))
        assert got == brute_force_pairs(x, len(x), 1.5)

    def test_one_grid_per_rebuild_in_dynamics(self):
        """A melt run assembles exactly one BinGrid per neighbor rebuild."""
        lmp = Lammps(quiet=True)
        setup_melt(lmp, cells=3, pair_style="lj/cut")
        lmp.run(0)
        builds0, grids0 = lmp.neighbor.builds, BinGrid.builds_total
        lmp.run(10)
        rebuilds = lmp.neighbor.builds - builds0
        grids = BinGrid.builds_total - grids0
        assert rebuilds >= 1
        assert grids == rebuilds


class TestSpatialSort:
    """``atom_modify sort``: a pure relabeling of the same physics."""

    @given(seed=st.integers(0, 300), cutoff=st.floats(0.9, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_sorted_build_matches_brute_force(self, seed, cutoff):
        x = random_config(seed)
        perm = spatial_sort_order(x, 0.5 * cutoff)
        xs = x[perm]
        nl = build_neighbor_list(xs, len(xs), cutoff, style="full")
        # map sorted-index pairs back to original labels
        got = {
            (int(perm[i]), int(perm[j]))
            for i, j in zip(*[a.tolist() for a in nl.ij_pairs()])
        }
        assert got == brute_force_pairs(x, len(x), cutoff)

    def test_sort_order_is_permutation_and_stable(self):
        x = random_config(5, n=200)
        perm = spatial_sort_order(x, 1.0)
        assert sorted(perm.tolist()) == list(range(len(x)))
        # atoms sharing a cell keep their relative order (stable sort)
        again = spatial_sort_order(x, 1.0)
        assert np.array_equal(perm, again)

    def test_sorted_dynamics_matches_unsorted(self):
        """Melt energies agree with sorting on vs off (pure relabeling)."""

        def energies(sort_every: int) -> list[float]:
            lmp = Lammps(quiet=True)
            setup_melt(lmp, cells=3, pair_style="lj/cut")
            lmp.sort_every = sort_every
            lmp.command("run 15")
            last = lmp.thermo.history[-1]
            return [last["pe"], last["ke"]]

        on, off = energies(1), energies(0)
        assert on == pytest.approx(off, rel=1e-9)

    def test_atom_modify_command(self):
        lmp = Lammps(quiet=True)
        lmp.command("atom_modify sort 50 2.5")
        assert lmp.sort_every == 50
        assert lmp.sort_binsize == 2.5
        lmp.command("atom_modify sort 0 0.0")  # disable
        assert lmp.sort_every == 0


class TestThermoNeighborStats:
    def test_run_stats_carry_neighbor_columns(self):
        lmp = Lammps(quiet=True)
        setup_melt(lmp, cells=3, pair_style="lj/cut")
        lmp.run(2)
        stats = lmp.last_run_stats
        nl = lmp.neigh_list
        assert stats["neighbor_builds"] == lmp.neighbor.builds
        assert stats["max_neighs"] == int(nl.numneigh.max())
        assert stats["ave_neighs"] == pytest.approx(nl.mean_neighbors)

    def test_maxneigh_memoized_and_correct(self):
        x = random_config(17)
        nl = build_neighbor_list(x, len(x), 1.5, style="full")
        assert nl.maxneigh == int(nl.numneigh.max())
        assert nl.maxneigh is nl.maxneigh  # cached int object survives
