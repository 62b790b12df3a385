"""Shared BinGrid subsystem: brute-force equivalence, sorting, sharing.

Property tests for the neighbor subsystem (paper section 4.1): the
shared-grid half-stencil builder must produce exactly the brute-force
oracle's pair sets across every style/newton/ghost combination, one grid
must serve lists at several cutoffs, and spatial atom sorting must be a
pure permutation of the physics.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.potentials  # noqa: F401  (register pair styles)
from repro.core import Lammps
from repro.core.bin_grid import BinGrid, spatial_sort_order
from repro.core.errors import NeighborError
from repro.core.neighbor import brute_force_pairs, build_neighbor_list
from repro.workloads.melt import setup_melt


def random_config(seed: int, n: int = 150, box: float = 8.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, box, size=(n, 3))


def normalized_pairs(nl) -> set[tuple[int, int]]:
    """Orientation-free pair set: scan order differs between builds."""
    i, j = nl.ij_pairs()
    return {(min(a, b), max(a, b)) for a, b in zip(i.tolist(), j.tolist())}


def assert_matches_brute_force(x, nlocal, cutoff, style, newton, grid=None):
    """The built list holds exactly the oracle's pairs, per the list rule.

    Full lists store every ordered (owned i, j) pair.  Half lists store an
    owned-owned pair once; an owned-ghost pair is stored by its owned side
    always with newton off, and with newton on only when the ghost wins
    LAMMPS's (z, y, x) coordinate tie-break.
    """
    nl = build_neighbor_list(
        x, nlocal, cutoff, style=style, newton=newton, grid=grid
    )
    oracle = brute_force_pairs(x, nlocal, cutoff)
    if style == "full":
        assert set(zip(*[a.tolist() for a in nl.ij_pairs()])) == oracle
        assert nl.total_pairs == len(oracle)
        return nl
    zyx = [tuple(row[::-1]) for row in x.tolist()]
    expected = {
        (min(i, j), max(i, j))
        for i, j in oracle
        if j < nlocal or not newton or zyx[j] > zyx[i]
    }
    assert normalized_pairs(nl) == expected
    # each physical pair once — no double count hiding behind the set
    assert nl.total_pairs == len(expected)
    return nl


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


def expected_candidates(grid, cutoff, style, newton) -> int:
    """Closed-form candidate count of the stencil scan, from 3-D cell boxes.

    Independent of the run table: per owned row, the members of every cell
    in its clipped stencil box (full), or the in-cell tail + the members of
    the lexicographically upper cells + the ghosts of the lower cells (half;
    newton on drops the lower z layers).
    """
    nx, ny, nz = (int(n) for n in grid.nbins)
    per_seg = np.diff(grid.starts2).reshape(nz, ny, nx, 2)
    members, ghosts = per_seg.sum(axis=3), per_seg[..., 1]
    kx, ky, kz = (int(k) for k in grid.reach(cutoff))
    total = 0
    for i in range(grid.nlocal):
        cx, cy, cz = (int(c) for c in grid.cell3[i])
        xs = slice(max(cx - kx, 0), cx + kx + 1)
        ys = slice(max(cy - ky, 0), cy + ky + 1)
        zs = slice(max(cz - kz, 0), cz + kz + 1)
        if style == "full":
            total += int(members[zs, ys, xs].sum())
            continue
        total += int(grid.starts2[2 * grid.binid[i] + 2] - grid.islot[i] - 1)
        total += int(
            members[cz + 1 : cz + kz + 1, ys, xs].sum()
            + members[cz, cy + 1 : cy + ky + 1, xs].sum()
            + members[cz, cy, cx + 1 : cx + kx + 1].sum()
        )
        total += int(
            ghosts[cz, ys.start : cy, xs].sum() + ghosts[cz, cy, xs.start : cx].sum()
        )
        if not newton:
            total += int(ghosts[zs.start : cz, ys, xs].sum())
    return total


def list_digest(nl) -> str:
    h = hashlib.sha256(np.ascontiguousarray(nl.first).tobytes())
    h.update(np.ascontiguousarray(nl.neighbors).tobytes())
    return h.hexdigest()


class TestRunScan:
    """The x-run scan: what it generates, and the order it leaves behind."""

    @given(
        seed=st.integers(0, 500),
        cutoff=st.floats(0.7, 2.4),
        bins_per_cutoff=st.sampled_from([1, 2, 3]),
        style=st.sampled_from(["half", "full"]),
        newton=st.booleans(),
        ghost_frac=st.sampled_from([0.0, 0.3, 0.7]),
        # cubic, a slab one bin thick, a pencil, and the 32-atom replica
        # regime (fewer bins than the stencil is wide: runs clipped twice)
        box=st.sampled_from(
            [(8.0, 8.0, 8.0), (9.0, 5.0, 0.4), (0.5, 0.5, 12.0), (3.0, 2.5, 3.3)]
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_sweep_matches_oracle_and_closed_form_candidates(
        self, seed, cutoff, bins_per_cutoff, style, newton, ghost_frac, box
    ):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, size=(90, 3)) * np.array(box)
        nlocal = len(x) - int(ghost_frac * len(x))
        grid = BinGrid(x, nlocal, cutoff / bins_per_cutoff)
        assert grid.reach(cutoff).max() <= bins_per_cutoff
        nl = assert_matches_brute_force(x, nlocal, cutoff, style, newton, grid)
        assert nl.build_stats["candidates"] == expected_candidates(
            grid, cutoff, style, newton
        )

    @pytest.mark.parametrize("bins_per_cutoff", [1, 2, 3])
    def test_row_order_contract(self, bins_per_cutoff):
        """The accumulation order the goldens depend on, as a property.

        A full row is strictly ascending in slot.  A half row is the
        in-cell tail and upper runs (slots after the row's own, ascending)
        followed by the lower cells' ghosts (slots before the row's cell,
        ascending = stencil-offset order).
        """
        x = random_config(23, n=260, box=7.0)
        nlocal, cutoff = 170, 1.9
        grid = BinGrid(x, nlocal, cutoff / bins_per_cutoff)
        full = build_neighbor_list(x, nlocal, cutoff, style="full", grid=grid)
        for i in range(nlocal):
            assert np.all(np.diff(grid.islot[full.neighbors_of(i)]) > 0)
        for newton in (True, False):
            half = build_neighbor_list(
                x, nlocal, cutoff, style="half", newton=newton, grid=grid
            )
            lower_seen = 0
            for i in range(nlocal):
                j = half.neighbors_of(i)
                slot = grid.islot[j]
                upper = slot > grid.islot[i]
                split = int(upper.sum())
                assert upper[:split].all() and not upper[split:].any()
                assert np.all(np.diff(slot[:split]) > 0)
                assert np.all(np.diff(slot[split:]) > 0)
                assert np.all(slot[split:] < grid.starts2[2 * grid.binid[i]])
                assert np.all(j[split:] >= nlocal)
                lower_seen += len(j) - split
            assert lower_seen > 0  # the ghost sweep is exercised

    @pytest.mark.parametrize("style,newton", [("full", False), ("half", True), ("half", False)])
    def test_chunk_size_does_not_change_the_list(self, style, newton):
        x = random_config(31, n=300)
        nlocal = 210
        default = build_neighbor_list(x, nlocal, 1.7, style=style, newton=newton)
        for chunk in (1, 7, 64):
            small = build_neighbor_list(
                x, nlocal, 1.7, style=style, newton=newton, chunk=chunk
            )
            assert np.array_equal(small.first, default.first)
            assert np.array_equal(small.neighbors, default.neighbors)
            assert small.build_stats["candidates"] == default.build_stats["candidates"]

    #: SHA-256 of first+neighbors, recorded on the per-cell scan (the commit
    #: before the x-run scan) at step 0 and after ``run 20``.  ``eam`` was
    #: re-pinned when host ``eam/fs`` moved to a half list with newton on
    #: (43 008 stored pairs at step 0); the full-list x-run scan stays
    #: pinned through ``melt_kk``.
    FROZEN = {
        "eam": (
            "fc93b01817808bbdae848b4b92f1ccab4b6a4ee1614ecb88e8620457a61e10d2",
            "bba6e93055389080db9ba9e6ffb27312575c879df0a29afe9ce2f2c08386545b",
        ),
        "melt": (
            "a915acbfd2ee7e0891740c09e0a07963be67e07604197c1a4c1bb886a371b2fa",
            "e2d1fbf567c0a3b3c6f22e46e519ce7ad583420c8a87915a120975479ef7b039",
        ),
        "melt_kk": (
            "d102495bdb680d4cc4190a6ac5d30880a06dded03c7ff5d45acf9d15257f9378",
            "7291968aa7b4b46fc26ffd817a42034fcbd9c9a364a249f024ca147af42777aa",
        ),
    }

    @pytest.mark.parametrize("workload", sorted(FROZEN))
    def test_frozen_workload_lists(self, workload):
        """The bench_e2e eam / melt / melt -sf kk lists, bit for bit."""
        if workload == "eam":
            lmp = Lammps(quiet=True)
            lmp.commands_string(
                "units metal\nlattice fcc 3.52\nregion box block 0 8 0 8 0 8\n"
                "create_box 1 box\ncreate_atoms 1 box\nmass 1 58.7\n"
                "velocity all create 3000 87287\n"
                "pair_style eam/fs 4.5\npair_coeff * * 2.0 0.3\n"
                "neighbor 0.3 bin\nneigh_modify every 1 delay 0 check yes\n"
                "fix 1 all nve"
            )
        else:
            kk = workload == "melt_kk"
            lmp = Lammps(
                device="H100" if kk else None, suffix="kk" if kk else None, quiet=True
            )
            lmp.commands_string(
                "units lj\nlattice fcc 0.8442\nregion box block 0 12 0 12 0 12\n"
                "create_box 1 box\ncreate_atoms 1 box\nmass 1 1.0\n"
                "velocity all create 1.44 87287\n"
                "pair_style lj/cut 2.5\npair_coeff 1 1 1.0 1.0\n"
                "neighbor 0.3 bin\nneigh_modify every 20 delay 0 check no\n"
                "fix 1 all nve"
            )
        lmp.command("run 0")
        step0 = list_digest(lmp.neigh_list)
        lmp.command("run 20")
        assert (step0, list_digest(lmp.neigh_list)) == self.FROZEN[workload]


class TestNonFiniteCoordinates:
    """A NaN/inf coordinate fails the build loudly instead of being binned."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index,who", [(17, "owned"), (180, "ghost")])
    def test_build_names_the_atom(self, bad, index, who):
        x = random_config(3, n=200)
        x[index, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(NeighborError) as err:
                build_neighbor_list(x, 150, 1.5)
        assert f"{who} atom {index}" in str(err.value)
        assert repr(float(bad)) in str(err.value)

    def test_first_offender_is_reported(self):
        x = random_config(3, n=50)
        x[40, 0] = x[12, 2] = np.nan
        with pytest.raises(NeighborError, match="atom 12"):
            BinGrid(x, 50, 1.0)
        with pytest.raises(NeighborError, match="atom 12"):
            spatial_sort_order(x, 1.0)


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

    def test_sorted_dynamics_matches_unsorted(self, monkeypatch):
        """Melt energies agree with sorting on vs off (pure relabeling)."""

        def energies() -> list[float]:
            lmp = Lammps(quiet=True)
            setup_melt(lmp, cells=3, pair_style="lj/cut")
            lmp.command("run 15")
            last = lmp.thermo.history[-1]
            return [last["pe"], last["ke"]]

        on = energies()
        monkeypatch.setattr(Lammps, "_maybe_sort_atoms", lambda self, binsize: False)
        off = energies()
        assert on == pytest.approx(off, rel=1e-9)


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
