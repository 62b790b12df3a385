"""Ghost communication: borders, forward/reverse comm, migration, multi-rank."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import gather_by_tag, make_melt
from repro.core import Ensemble, Lammps
from repro.core.comm_md import Swap
from repro.core.errors import CommError
from repro.parallel.driver import drain, lockstep


class TestSingleRankGhosts:
    def test_ghost_shell_complete(self):
        """Every position within the cutoff of a local atom is present."""
        lmp = make_melt(cells=3)
        lmp.command("run 0")
        atom = lmp.atom
        cutghost = lmp.pair.max_cutoff() + lmp.neighbor.skin
        L = lmp.domain.lengths
        x = atom.x[: atom.nall]
        # brute-force: each local atom's periodic neighbors must appear as
        # real entries (local or ghost) at the unwrapped position
        xl = atom.x[: atom.nlocal]
        for i in range(0, atom.nlocal, 17):
            for j in range(atom.nlocal):
                if i == j:
                    continue
                dx = xl[j] - xl[i]
                shift = -L * np.round(dx / L)
                target = xl[j] + shift
                r = np.linalg.norm(target - xl[i])
                if r < cutghost * 0.95:
                    d = np.linalg.norm(x - target, axis=1)
                    assert d.min() < 1e-9, (i, j, target)

    def test_ghosts_carry_owner_tags(self):
        lmp = make_melt(cells=2)
        lmp.command("run 0")
        atom = lmp.atom
        ghost_tags = atom.tag[atom.nlocal : atom.nall]
        assert set(ghost_tags) <= set(atom.tag[: atom.nlocal])

    def test_forward_comm_refreshes_ghosts(self):
        lmp = make_melt(cells=2)
        lmp.command("run 0")
        atom = lmp.atom
        swap = lmp.comm_brick.swaps[0]
        assert swap.sendlist.size > 0
        k = swap.sendlist[0]
        atom.x[k] += 0.001
        drain(lmp.comm_brick.forward_comm(atom))
        ghost = atom.x[swap.firstrecv]
        expected = atom.x[k] + swap.shift
        np.testing.assert_allclose(ghost, expected, atol=1e-12)

    def test_reverse_comm_returns_ghost_forces(self):
        lmp = make_melt(cells=2)
        lmp.command("run 0")
        atom = lmp.atom
        atom.f[: atom.nall] = 0.0
        g = atom.nlocal  # first ghost slot
        atom.f[g] = [1.0, 2.0, 3.0]
        owner = int(np.flatnonzero(atom.tag[: atom.nlocal] == atom.tag[g])[0])
        drain(lmp.comm_brick.reverse_comm(atom, "f"))
        np.testing.assert_allclose(atom.f[owner], [1.0, 2.0, 3.0])

    def test_cutoff_exceeding_box_rejected(self):
        lmp = Lammps(device=None)
        lmp.commands_string(
            "units lj\nlattice fcc 0.8442\nregion b block 0 1 0 1 0 1\n"
            "create_box 1 b\ncreate_atoms 1 box\nmass 1 1.0\n"
            "pair_style lj/cut 2.5\npair_coeff 1 1 1.0 1.0\nfix 1 all nve\n"
        )
        with pytest.raises(CommError, match="exceeds a box length"):
            lmp.command("run 0")


class TestReverseCommFold:
    """Reverse comm folds ghosts with ``arr[sendlist] += incoming``, exact
    because every recorded sendlist is strictly increasing."""

    def test_four_rank_fold_equals_add_at_replay(self):
        ens = make_melt(cells=3, nranks=4)
        ens.command("run 0")
        ranks = ens.ranks
        rng = np.random.default_rng(11)
        for lmp in ranks:
            lmp.atom.f[: lmp.atom.nall] = rng.standard_normal((lmp.atom.nall, 3))
        start = [lmp.atom.f[: lmp.atom.nall].copy() for lmp in ranks]
        lockstep([lmp.comm_brick.reverse_comm(lmp.atom, "f") for lmp in ranks])

        # the same swaps replayed with np.add.at: rank r's swap k receives
        # the ghost rows its send_to peer recorded under swap k
        replay = [f.copy() for f in start]
        nswaps = len(ranks[0].comm_brick.swaps)
        assert nswaps and all(len(l.comm_brick.swaps) == nswaps for l in ranks)
        for k in reversed(range(nswaps)):
            bufs = []
            for r, lmp in enumerate(ranks):
                sw = lmp.comm_brick.swaps[k]
                bufs.append(replay[r][sw.firstrecv : sw.firstrecv + sw.nrecv].copy())
            for r, lmp in enumerate(ranks):
                sw = lmp.comm_brick.swaps[k]
                np.add.at(replay[r], sw.sendlist, bufs[sw.send_to])
        for lmp, f in zip(ranks, replay):
            assert np.array_equal(lmp.atom.f[: lmp.atom.nall], f)

    @pytest.mark.parametrize("sendlist", [[3, 1, 2], [1, 2, 2]])
    def test_non_increasing_sendlist_is_refused(self, sendlist):
        with pytest.raises(CommError, match=r"dim 0, dirn 1.*not strictly increasing"):
            Swap(
                dim=0, dirn=1, send_to=0, recv_from=0,
                sendlist=np.array(sendlist), shift=np.zeros(3),
                firstrecv=10, nrecv=3,
            )


class TestFixNVEGroups:
    def test_type_group_nve_moves_only_its_atoms(self):
        """``fix nve`` on ``all`` integrates over slices; a subset group must
        keep its boolean-mask path."""
        lmp = Lammps(device=None)
        lmp.commands_string(
            "units lj\nlattice fcc 0.8442\nregion b block 0 3 0 3 0 3\n"
            "create_box 2 b\ncreate_atoms 1 box\nmass * 1.0\n"
            "pair_style lj/cut 2.5\npair_coeff * * 1.0 1.0\n"
            "velocity all create 1.0 1\nneighbor 0.3 bin\n"
        )
        lmp.atom.type[: lmp.atom.nlocal : 2] = 2
        lmp.command("group moving type 1")
        lmp.command("fix 1 moving nve")
        x0, v0 = gather_by_tag(lmp, "x"), gather_by_tag(lmp, "v")
        frozen = gather_by_tag(lmp, "type") == 2
        lmp.command("run 30")  # through rebuilds and sorts
        x, v = gather_by_tag(lmp, "x"), gather_by_tag(lmp, "v")
        assert np.array_equal(x[frozen], x0[frozen])
        assert np.array_equal(v[frozen], v0[frozen])
        assert (x[~frozen] != x0[~frozen]).any(axis=1).all()


class TestMigration:
    def test_atoms_move_to_owners(self):
        ens = make_melt(cells=3, nranks=4)
        ens.command("run 0")
        # displace everything by a third of the box and migrate
        for lmp in ens.ranks:
            lmp.atom.x[: lmp.atom.nlocal] += lmp.domain.lengths / 3.0
        lockstep(
            [
                lmp.comm_brick.exchange(lmp.atom, lmp.domain.wrap)
                for lmp in ens.ranks
            ]
        )
        total = 0
        for lmp in ens.ranks:
            atom = lmp.atom
            owners = lmp.decomp.owner_of(atom.x[: atom.nlocal])
            assert np.all(owners == lmp.comm_rank)
            total += atom.nlocal
        assert total == ens.ranks[0].natoms_total

    def test_no_atoms_lost_in_long_run(self):
        ens = make_melt(cells=3, nranks=2)
        ens.command("run 30")
        counts = sum(lmp.atom.nlocal for lmp in ens.ranks)
        assert counts == ens.ranks[0].natoms_total
        tags = np.sort(
            np.concatenate([l.atom.tag[: l.atom.nlocal] for l in ens.ranks])
        )
        assert np.array_equal(tags, np.arange(1, counts + 1))


class TestDecompositionEquivalence:
    @pytest.mark.parametrize("nranks", [2, 3, 4, 8])
    def test_trajectories_match_single_rank(self, nranks):
        single = make_melt(cells=3)
        single.command("run 25")
        multi = make_melt(cells=3, nranks=nranks)
        multi.command("run 25")
        np.testing.assert_allclose(
            gather_by_tag(multi, "x"), gather_by_tag(single, "x"), atol=1e-10
        )
        np.testing.assert_allclose(
            gather_by_tag(multi, "f"), gather_by_tag(single, "f"), atol=1e-9
        )

    def test_energy_matches_across_decompositions(self):
        single = make_melt(cells=3, thermo=20)
        single.command("run 20")
        multi = make_melt(cells=3, nranks=4, thermo=20)
        multi.command("run 20")
        e1 = single.thermo.history[-1]["etotal"]
        e4 = multi.ranks[0].thermo.history[-1]["etotal"]
        assert e4 == pytest.approx(e1, abs=1e-9)

    def test_newton_off_multirank(self):
        single = make_melt(cells=3)
        single.command("newton off")
        single.command("run 10")
        multi = make_melt(cells=3, nranks=4)
        multi.command("newton off")
        multi.command("run 10")
        np.testing.assert_allclose(
            gather_by_tag(multi, "f"), gather_by_tag(single, "f"), atol=1e-9
        )

    def test_world_drains_after_run(self):
        ens = make_melt(cells=2, nranks=2)
        ens.command("run 5")
        assert ens.world.pending_messages == 0
