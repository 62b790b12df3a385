"""Simulated MPI world: messaging, deadlock detection, reductions, decomposition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import BrickDecomposition, SimComm, SimWorld, factor_ranks
from repro.parallel.comm import SimDeadlockError
from repro.parallel.driver import lockstep


class TestMessaging:
    def test_send_recv_roundtrip(self):
        world = SimWorld(2)
        world.comm(0).send(1, np.arange(5), tag="x")
        got = world.comm(1).recv(0, tag="x")
        assert np.array_equal(got, np.arange(5))

    def test_send_copies_buffers(self):
        world = SimWorld(2)
        buf = np.ones(3)
        world.comm(0).send(1, buf)
        buf[:] = 99.0  # sender reuses its buffer, MPI-style
        assert np.all(world.comm(1).recv(0) == 1.0)

    def test_self_send(self):
        world = SimWorld(1)
        world.comm(0).send(0, np.array([7.0]))
        assert world.comm(0).recv(0)[0] == 7.0

    def test_fifo_per_channel(self):
        world = SimWorld(2)
        c0 = world.comm(0)
        c0.send(1, np.array([1.0]), tag="t")
        c0.send(1, np.array([2.0]), tag="t")
        c1 = world.comm(1)
        assert c1.recv(0, "t")[0] == 1.0
        assert c1.recv(0, "t")[0] == 2.0

    def test_missing_message_is_deadlock(self):
        world = SimWorld(2)
        with pytest.raises(SimDeadlockError, match="nothing was posted"):
            world.comm(1).recv(0, tag="never")

    def test_invalid_ranks(self):
        world = SimWorld(2)
        with pytest.raises(ValueError):
            world.comm(0).send(5, np.zeros(1))
        with pytest.raises(ValueError):
            world.comm(0).recv(-1)

    def test_assert_drained_catches_lost_messages(self):
        world = SimWorld(2)
        world.comm(0).send(1, np.zeros(1), tag="lost")
        with pytest.raises(RuntimeError, match="never received"):
            world.assert_drained()

    def test_ledger_tracks_traffic(self):
        world = SimWorld(2, network="slingshot11")
        world.comm(0).send(1, np.zeros(1000), tag="x")
        world.comm(1).recv(0, "x")
        assert world.ledger.messages == 1
        assert world.ledger.bytes_moved == 8000
        assert world.ledger.total() > 0

    def test_intranode_cheaper_than_fabric(self):
        fabric = SimWorld(4, network="slingshot11", ranks_per_node=1)
        intra = SimWorld(4, network="slingshot11", ranks_per_node=4)
        fabric.comm(0).send(1, np.zeros(100_000))
        intra.comm(0).send(1, np.zeros(100_000))
        assert intra.ledger.total() < fabric.ledger.total()


class TestReduceProtocol:
    def test_sum_across_ranks(self):
        world = SimWorld(3)
        for r in range(3):
            world.reduce_contribute("k", float(r + 1))
        for _ in range(3):
            assert world.reduce_result("k") == 6.0

    def test_vector_reduce(self):
        world = SimWorld(2)
        world.reduce_contribute("v", np.array([1.0, 2.0]))
        world.reduce_contribute("v", np.array([3.0, 4.0]))
        assert np.array_equal(world.reduce_result("v"), [4.0, 6.0])

    def test_premature_read_is_deadlock(self):
        world = SimWorld(2)
        world.reduce_contribute("k", 1.0)
        with pytest.raises(SimDeadlockError, match="1/2"):
            world.reduce_result("k")

    def test_key_cleanup_allows_reuse(self):
        world = SimWorld(1)
        world.reduce_contribute("k", 1.0)
        assert world.reduce_result("k") == 1.0
        world.reduce_contribute("k", 2.0)
        assert world.reduce_result("k") == 2.0

    def test_overcontribution_rejected(self):
        world = SimWorld(1)
        world.reduce_contribute("k", 1.0)
        with pytest.raises(RuntimeError, match="more contributions"):
            world.reduce_contribute("k", 1.0)


class TestLockstep:
    def test_generators_advance_in_phase(self):
        world = SimWorld(2)
        log = []

        def rank(r):
            world.comm(r).send(1 - r, np.array([float(r)]), tag="p")
            yield
            got = world.comm(r).recv(1 - r, "p")
            log.append((r, got[0]))

        lockstep([rank(0), rank(1)])
        assert sorted(log) == [(0, 1.0), (1, 0.0)]

    def test_uneven_lengths_ok(self):
        done = []

        def short():
            yield
            done.append("s")

        def long():
            yield
            yield
            yield
            done.append("l")

        lockstep([short(), long()])
        assert done == ["s", "l"]


class TestFactorRanks:
    @given(n=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_factorization_is_exact(self, n):
        px, py, pz = factor_ranks(n, (10.0, 10.0, 10.0))
        assert px * py * pz == n

    def test_elongated_box_splits_long_axis(self):
        px, py, pz = factor_ranks(8, (100.0, 1.0, 1.0))
        assert px == 8 and py == pz == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            factor_ranks(0, (1, 1, 1))
        with pytest.raises(ValueError):
            factor_ranks(4, (1, -1, 1))


class TestBrickDecomposition:
    def make(self, n=8):
        return BrickDecomposition.create((0, 0, 0), (10, 10, 10), n)

    def test_rank_coord_roundtrip(self):
        d = self.make(8)
        for r in range(8):
            assert d.rank_of(*d.coords_of(r)) == r

    def test_subdomains_tile_box(self):
        d = self.make(8)
        vol = sum(np.prod(hi - lo) for lo, hi in (d.subdomain(r) for r in range(8)))
        assert vol == pytest.approx(1000.0)

    @given(seed=st.integers(0, 500), n=st.sampled_from([1, 2, 4, 6, 8]))
    @settings(max_examples=40, deadline=None)
    def test_owner_matches_subdomain(self, seed, n):
        d = BrickDecomposition.create((0, 0, 0), (10, 10, 10), n)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-10, 20, size=(50, 3))  # includes out-of-box points
        owners = d.owner_of(x)
        wrapped = np.mod(x, 10.0)
        for pos, r in zip(wrapped, owners):
            lo, hi = d.subdomain(int(r))
            assert np.all(pos >= lo - 1e-12) and np.all(pos < hi + 1e-12)
