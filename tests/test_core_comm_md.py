"""Ghost communication: borders, forward/reverse comm, migration, multi-rank."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from conftest import MELT_SCRIPT, gather_by_tag, make_melt
from test_potentials_eam import make_eam
from test_reaxff_pair import make_hns
from repro.core import Ensemble, Lammps
from repro.core.comm_md import CommBrick, Swap, _fold_rows
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


def _spy_messages(world, monkeypatch) -> tuple[Counter, Counter]:
    """Count posted messages by tag kind and ledger records by category."""
    kinds, categories = Counter(), Counter()
    post, record = world.post, world.ledger.record

    def spy_post(src, dest, tag, payload):
        kinds[tag if isinstance(tag, str) else tag[0]] += 1
        post(src, dest, tag, payload)

    def spy_record(category, *args):
        categories[category] += 1
        record(category, *args)

    monkeypatch.setattr(world, "post", spy_post)
    monkeypatch.setattr(world.ledger, "record", spy_record)
    return kinds, categories


class TestOneRankReplay:
    """One rank: forward/reverse comm replay the swaps ``borders`` recorded
    in place; only ``borders``/``exchange`` still go through the mailbox."""

    @pytest.mark.parametrize(
        "make",
        [lambda: make_melt(cells=2), lambda: make_eam(cells=2), make_hns],
        ids=["melt", "eam", "hns"],
    )
    def test_run_posts_no_halo_messages(self, make, monkeypatch):
        lmp = make()
        lmp.command("run 0")
        assert lmp.comm_brick.replay is not None
        kinds, categories = _spy_messages(lmp.world, monkeypatch)
        before = lmp.world.ledger.messages
        lmp.command("run 4")
        # the run's setup rebuild: one exchange message, six border swaps
        assert set(kinds) == {"border", "exchange"}, kinds
        assert kinds["border"] == 6 * kinds["exchange"] > 0
        assert set(categories) == {"allreduce", "intranode"}, categories
        assert lmp.world.ledger.messages - before == (
            categories["allreduce"] + kinds["border"] + kinds["exchange"]
        )

    def test_two_ranks_keep_the_mailbox(self, monkeypatch):
        ens = make_melt(cells=2, nranks=2)
        ens.command("run 0")
        assert all(r.comm_brick.replay is None for r in ens.ranks)
        kinds, _ = _spy_messages(ens.world, monkeypatch)
        ens.command("run 2")
        assert kinds["fwd"] > 0 and kinds["rev"] > 0, kinds

    def test_replay_equals_the_mailbox_formulas_bitwise(self):
        """x with shift, packed fields and reverse, against a hand replay of
        the recorded swaps; later swaps forward ghosts received by earlier
        ones (edge and corner ghosts retrace two or three swaps)."""
        lmp = make_melt(cells=2)
        lmp.command("run 0")
        atom, brick, swaps = lmp.atom, lmp.comm_brick, lmp.comm_brick.swaps
        nlocal, nall = atom.nlocal, atom.nall
        assert any(sw.sendlist.size and sw.sendlist.max() >= nlocal for sw in swaps)
        rng = np.random.default_rng(5)
        atom.x[:nlocal] += rng.uniform(-0.05, 0.05, (nlocal, 3))
        atom.rho[:nall], atom.fp[:nall] = rng.standard_normal((2, nall))
        atom.f[:nall] = rng.standard_normal((nall, 3))
        x, rho, fp, f = (a[:nall].copy() for a in (atom.x, atom.rho, atom.fp, atom.f))
        for sw in swaps:
            recv = slice(sw.firstrecv, sw.firstrecv + sw.nrecv)
            x[recv] = x[sw.sendlist] + sw.shift
            buf = np.column_stack([rho[sw.sendlist], fp[sw.sendlist]])
            rho[recv], fp[recv] = buf[:, 0], buf[:, 1]
        for sw in reversed(swaps):
            f[sw.sendlist] += f[sw.firstrecv : sw.firstrecv + sw.nrecv].copy()
        f_total = atom.f[:nall].sum(axis=0)

        drain(brick.forward_comm(atom))
        drain(brick.forward_comm_fields(atom, ("rho", "fp")))
        drain(brick.reverse_comm(atom, "f"))
        for name, want in (("x", x), ("rho", rho), ("fp", fp), ("f", f)):
            assert np.array_equal(getattr(atom, name)[:nall], want), name
        # every ghost is an owned atom shifted by whole box lengths, and the
        # reverse pass hands every ghost force to an owner
        owner = np.full(atom.tag[:nall].max() + 1, -1)
        owner[atom.tag[:nlocal]] = np.arange(nlocal)
        assert (owner[atom.tag[nlocal:nall]] >= 0).all()
        images = (x[nlocal:] - x[owner[atom.tag[nlocal:nall]]]) / lmp.domain.lengths
        np.testing.assert_allclose(images, np.round(images), atol=1e-12)
        np.testing.assert_allclose(atom.f[:nlocal].sum(axis=0), f_total, atol=1e-9)

    @pytest.mark.parametrize(
        "make", [lambda: make_melt(cells=3), lambda: make_eam(cells=3)],
        ids=["lj/cut", "eam/fs"],
    )
    def test_replay_equals_the_mailbox_across_rebuilds(self, make, monkeypatch):
        """25 steps over two forced rebuilds (newton on: forces, and EAM's
        ``rho``, reverse; ``fp`` forward), once replayed and once with every
        halo pass on the self-send mailbox: x, f and thermo rows bit for
        bit."""

        def run(mailbox: bool):
            lmp = make()
            lmp.commands_string("neigh_modify every 10 delay 0 check no\nthermo 5")
            if mailbox:
                kinds, _ = _spy_messages(lmp.world, monkeypatch)
            lmp.command("run 25")
            assert lmp.neighbor.builds >= 3 and lmp.newton_pair
            if mailbox:
                assert lmp.comm_brick.replay is None
                assert kinds["fwd"] > 0 and kinds["rev"] > 0, kinds
            rows = [(r.step, r.values) for r in lmp.thermo.history]
            return gather_by_tag(lmp, "x"), gather_by_tag(lmp, "f"), rows

        replayed = run(mailbox=False)
        borders = CommBrick.borders

        def mailbox_borders(self, atom, periodic):
            yield from borders(self, atom, periodic)
            self.replay = None

        monkeypatch.setattr(CommBrick, "borders", mailbox_borders)
        x, f, rows = run(mailbox=True)
        assert np.array_equal(replayed[0], x)
        assert np.array_equal(replayed[1], f)
        assert replayed[2] == rows and len(rows) == 6

    @pytest.mark.parametrize("shape", [(40,), (40, 3)], ids=["1-D", "2-D"])
    def test_fold_rows_equals_add_at(self, shape):
        """The reverse helper (gather, add, put of whole rows) against
        ``np.add.at`` over unsorted unique source rows."""
        rng = np.random.default_rng(3)
        arr = rng.standard_normal(shape)
        src = rng.permutation(25)[:12]
        assert np.any(np.diff(src) < 0)
        dst = slice(28, 40)
        want = arr.copy()
        np.add.at(want, src, want[dst])
        _fold_rows(arr, src, dst)
        assert np.array_equal(arr, want)


class TestBoundaryOrder:
    """``boundary`` holds whether it comes before ``create_box`` (LAMMPS's
    order) or after it."""

    @staticmethod
    def _script(order: str) -> str:
        box = "create_box 1 box\n"
        lines = {"before": "boundary f f f\n" + box, "after": box + "boundary f f f\n"}
        return MELT_SCRIPT.format(cells=3, pair_style="lj/cut", thermo=10).replace(
            box, lines[order]
        )

    def test_boundary_before_create_box_stands(self):
        lmp = Lammps()
        lmp.commands_string(self._script("before"))
        assert lmp.domain.periodic == (False, False, False)

    def test_two_ranks_grow_the_same_ghosts_in_either_order(self):
        shells = {}
        for order in ("before", "after"):
            ens = Ensemble(2)
            ens.commands_string(self._script(order))
            ens.command("run 0")
            shells[order] = [
                (r.atom.tag[r.atom.nlocal : r.atom.nall].copy(),
                 r.atom.x[r.atom.nlocal : r.atom.nall].copy())
                for r in ens.ranks
            ]
        periodic = make_melt(cells=3, nranks=2)
        periodic.command("run 0")
        for (tb, xb), (ta, xa), r in zip(shells["before"], shells["after"], periodic.ranks):
            assert np.array_equal(tb, ta) and np.array_equal(xb, xa)
            assert 0 < tb.size < r.atom.nghost


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
            bufs = [
                replay[r][sw.firstrecv : sw.firstrecv + sw.nrecv].copy()
                for r, sw in enumerate(l.comm_brick.swaps[k] for l in ranks)
            ]
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


class TestMigration:
    def test_atoms_move_to_owners(self):
        ens = make_melt(cells=3, nranks=4)
        ens.command("run 0")
        # displace everything by a third of the box and migrate
        for lmp in ens.ranks:
            lmp.atom.x[: lmp.atom.nlocal] += lmp.domain.lengths / 3.0
        lockstep([l.comm_brick.exchange(l.atom, l.domain.wrap) for l in ens.ranks])
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
        single.newton_pair = False
        single.command("run 10")
        multi = make_melt(cells=3, nranks=4)
        for lmp in multi.ranks:
            lmp.newton_pair = False
        multi.command("run 10")
        np.testing.assert_allclose(
            gather_by_tag(multi, "f"), gather_by_tag(single, "f"), atol=1e-9
        )

    def test_world_drains_after_run(self):
        ens = make_melt(cells=2, nranks=2)
        ens.command("run 5")
        assert ens.world.pending_messages == 0
