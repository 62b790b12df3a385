"""Failure injection and guard-rail coverage across the engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_melt
from test_snap_pair import make_ta
from repro.core.errors import CommError, LammpsError, NeighborError


class TestLostAndCorruptState:
    def test_forward_comm_detects_changed_ghost_counts(self):
        from repro.parallel.driver import drain, lockstep

        # mailbox path (2 ranks): a recorded swap's expectation disagrees
        # with what its peer sends
        ens = make_melt(cells=2, nranks=2)
        ens.command("run 0")
        ens.ranks[0].comm_brick.swaps[0].nrecv += 1
        with pytest.raises(CommError, match="size changed"):
            lockstep([r.comm_brick.forward_comm(r.atom) for r in ens.ranks])

        # one-rank replay: the ghost shell no longer has the compiled size
        lmp = make_melt(cells=2)
        lmp.command("run 0")
        atom, g = lmp.atom, lmp.atom.nlocal
        atom.add_ghosts({k: getattr(atom, k)[g : g + 1].copy() for k in ("x", "tag", "type", "q")})
        with pytest.raises(CommError, match="size changed"):
            drain(lmp.comm_brick.forward_comm(atom))

    def test_exploding_dynamics_surfaces_as_numbers_not_hangs(self):
        lmp = make_melt(cells=2)
        lmp.command("velocity all create 1e6 1")  # absurd temperature
        lmp.command("neigh_modify every 1 delay 0 check yes")
        # atoms fly across the box; migration keeps every atom accounted for
        lmp.command("timestep 1e-6")
        lmp.command("run 5")
        assert lmp.atom.nlocal == lmp.natoms_total

    @pytest.mark.parametrize("nranks", [1, 2])
    def test_non_finite_owned_atom_is_refused_not_dropped(self, nranks):
        """No rank's subdomain holds a NaN coordinate, so the exchange
        would send the atom nowhere: the rebuild refuses it by tag."""
        target = make_melt(cells=2, nranks=nranks)
        target.command("run 5")
        ranks = getattr(target, "ranks", [target])
        atom = ranks[-1].atom
        atom.x[3] = np.nan
        tag = int(atom.tag[3])
        with pytest.raises(
            LammpsError, match=rf"step 5: rank {nranks - 1} owns atom {tag} at non-finite"
        ):
            target.command("run 20")

    @pytest.mark.parametrize("target", ["1 rank", "2 ranks", "replica"])
    def test_coordinate_turning_non_finite_mid_run_is_refused_under_check_yes(self, target):
        """A NaN displacement compares False against the skin, so ``check
        yes`` must still rebuild (and the rebuild refuse the atom) on the
        very next step, not drop the atom from every pair silently."""
        from repro.core.fixes import Fix
        from repro.replica import ReplicaBatch

        policy = "neigh_modify every 1 delay 0 check yes"
        if target == "replica":
            members = [make_melt(cells=2) for _ in range(3)]
            batch = ReplicaBatch()
            for m in members:
                m.command(policy)
                batch.add_replica(m)
            batch.step(8)
            m = batch.members[1]
            rows = slice(m.own_off, m.own_off + m.nlocal)
            batch.atom.x[rows][batch.atom.tag[rows] == 4] = np.nan
            with pytest.raises(LammpsError, match=r"step 9: replica 1 owns atom 4 at non-finite"):
                batch.step(22)
            return

        class NaNAtStep8(Fix):
            def end_of_step(self) -> None:
                atom = self.lmp.atom
                if self.lmp.update.ntimestep == 8:
                    atom.x[: atom.nlocal][atom.tag[: atom.nlocal] == 4] = np.nan

        sim = make_melt(cells=3, nranks=2 if target == "2 ranks" else 1)
        sim.command(policy)
        for lmp in getattr(sim, "ranks", [sim]):
            lmp.modify.add_fix(NaNAtStep8(lmp, "nan", "all", []))
        with pytest.raises(LammpsError, match=r"step 9: rank \d owns atom 4 at non-finite"):
            sim.command("run 30")

    def test_overflow_guard_on_neighbor_index_width(self):
        from repro.core import neighbor as nb

        x = np.zeros((4, 3))
        # fake an absurd nall by monkeypatching the check threshold is not
        # possible cheaply; instead verify the guard exists and fires on the
        # documented condition via a constructed sparse case
        with pytest.raises(NeighborError):
            nb.build_neighbor_list(x, 10, 1.0)  # nlocal > nall

    def test_atom_capacity_growth_under_migration_burst(self):
        lmp = make_melt(cells=2, nranks=2)
        lmp.command("run 0")  # establishes the communication bricks
        # push all atoms into rank 0's subdomain and migrate
        lo, hi = lmp.ranks[0].decomp.subdomain(0)
        center = (lo + hi) / 2.0
        for r in lmp.ranks:
            r.atom.x[: r.atom.nlocal] = center
        from repro.parallel.driver import lockstep

        lockstep(
            [r.comm_brick.exchange(r.atom, r.domain.wrap) for r in lmp.ranks]
        )
        counts = [r.atom.nlocal for r in lmp.ranks]
        assert sum(counts) == lmp.ranks[0].natoms_total
        assert max(counts) == lmp.ranks[0].natoms_total  # all on one rank


class TestSNAPAdjointConsistency:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=8, deadline=None)
    def test_y_adjoints_are_energy_gradients_in_u(self, seed):
        """The folded Y must be the exact gradient of E = beta . B along
        the symmetry manifold: perturbing ``U[m]`` by ``d`` drags ``U[mbar]``
        by ``s conj(d)``, and ``dE = Re(Y[m] d)``."""
        from snap_oracle import coo_energy, mirror
        from repro.snap.compute_ui import compute_ui
        from repro.snap.compute_yi import compute_yi
        from repro.snap.indexing import SnapIndex
        from repro.snap.pair_snap import synthetic_beta

        tj = 4
        idx = SnapIndex(tj)
        beta = synthetic_beta(idx.nbispectrum, 1.0, seed=seed % 97 + 1)
        rng = np.random.default_rng(seed)
        rij = rng.normal(size=(6, 3))
        rij *= 3.0 / np.linalg.norm(rij, axis=1, keepdims=True)
        Uh = compute_ui(rij, np.zeros(6, dtype=int), 1, 4.7, tj)
        Y = compute_yi(Uh, beta, tj)
        U = idx.unfold(Uh)
        mbar, sign = mirror(tj)

        # the energy comes straight from the un-folded contraction tensor,
        # so it is defined for any U and knows nothing about the fold
        def energy(u):
            return float(coo_energy(u, beta, tj)[0])

        eps = 1e-7
        for k in rng.integers(0, len(idx.half), size=4):
            m = idx.half[k]
            # the self-conjugate entry can only move along the real axis
            for d in (1.0,) if mbar[m] == m else (1.0, 1j):
                dU = np.zeros_like(U)
                dU[m, 0] = d * eps
                dU[mbar[m], 0] = sign[m] * np.conj(d * eps)
                fd = (energy(U + dU) - energy(U - dU)) / (2 * eps)
                # abs floor: central-difference round-off is ~ulp(E)/eps,
                # which for |E| ~ 10 exceeds 1e-8 when the derivative itself
                # is small (near-cancelling Y components)
                assert fd == pytest.approx(np.real(Y[k, 0] * d), rel=1e-4, abs=5e-8)


class TestSNAPGuards:
    """``pair snap`` names the step and the pair instead of writing NaN."""

    def test_coincident_atoms_raise(self):
        lmp = make_ta(twojmax=2)
        lmp.atom.x[1] = lmp.atom.x[0]
        with pytest.raises(
            LammpsError, match=r"pair \(\d+, \d+\) has zero separation on timestep 0"
        ):
            lmp.command("run 0")

    def test_non_finite_gradient_raises(self):
        lmp = make_ta(twojmax=2)
        lmp.command("run 1")
        lmp.pair.beta[0] = np.nan
        with pytest.raises(
            LammpsError, match=r"pair \(\d+, \d+\) has a non-finite dE/dr on timestep 1"
        ):
            lmp.command("run 1")
        assert np.isfinite(lmp.atom.f[: lmp.atom.nlocal]).all()  # f untouched
