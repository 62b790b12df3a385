"""Differential safety net for the replica batch engine.

The whole premise of :mod:`repro.replica` is that folding R replicas into
one stacked AtomVec and running one set of vectorized kernels changes the
wall clock and *nothing else*.  These tests enforce that premise at the
strictest level available — ``np.array_equal`` on positions, velocities,
and thermo rows against fresh solo runs — under both scatter modes, a
mid-flight join, and user custom fields riding through the stack.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import CommError, LammpsError
from repro.kokkos.segment import (
    ATOMIC,
    SEGMENTED,
    force_scatter_mode,
    set_scatter_mode,
)
from repro.replica import ReplicaBatch
from repro.workloads import ReplicaSpec

SCATTERS = (ATOMIC, SEGMENTED)


@pytest.fixture(autouse=True)
def _reset_modes():
    yield
    set_scatter_mode(None)


def _specs(family: str, n: int, thermo: int = 10) -> list[ReplicaSpec]:
    # mixed sizes + distinct seeds: identical replicas could hide
    # segment-offset bugs, equal sizes could hide ragged-stage bugs
    return [
        ReplicaSpec(
            family=family,
            cells=3 if k % 2 else 2,
            thermo=thermo,
            seed=87287 + 13 * k,
        )
        for k in range(n)
    ]


def _solo(spec: ReplicaSpec, steps: int):
    lmp = spec.build()
    lmp.run(steps)
    return lmp


def _assert_bitwise(solo, member, label: str) -> None:
    n = member.atom.nlocal
    assert np.array_equal(solo.atom.x[:n], member.atom.x[:n]), f"{label}: x"
    assert np.array_equal(solo.atom.v[:n], member.atom.v[:n]), f"{label}: v"
    a = [(r.step, r.values) for r in solo.thermo.history]
    b = [(r.step, r.values) for r in member.thermo.history]
    assert a == b, f"{label}: thermo history"


# ------------------------------------------------------ mode-matrix sweep
@pytest.mark.parametrize("scatter", SCATTERS)
def test_melt_batch_bitwise_across_mode_matrix(scatter):
    """16 LJ replicas, batch vs solo, bit-for-bit in every mode cell."""
    with force_scatter_mode(scatter):
        specs = _specs("melt", 16)
        solos = [_solo(s, 40) for s in specs]
        batch = ReplicaBatch(label=scatter)
        members = [s.build() for s in specs]
        for m in members:
            batch.add_replica(m)
        batch.step(40)
        batch.finish()
    for i, (a, b) in enumerate(zip(solos, members)):
        _assert_bitwise(a, b, f"{scatter} replica {i}")
    assert not batch.failures


def test_eam_batch_bitwise():
    """The eam/fs handler holds the same bar (rho pass + fp comm replay)."""
    specs = _specs("eam_melt", 6)
    solos = [_solo(s, 40) for s in specs]
    batch = ReplicaBatch(label="eam")
    members = [s.build() for s in specs]
    for m in members:
        batch.add_replica(m)
    batch.step(40)
    batch.finish()
    for i, (a, b) in enumerate(zip(solos, members)):
        _assert_bitwise(a, b, f"eam replica {i}")


# --------------------------------------------------- tallies after a run
@pytest.mark.parametrize("family", ["melt", "eam_melt"])
def test_member_tallies_after_run_equal_solo(family):
    """A run's last step tallies into each member's own Pair, as solo does:
    ``thermo 50`` / ``run 30`` has no thermo row on step 30."""
    specs = _specs(family, 3, thermo=50)
    members = [s.build() for s in specs]
    batch = ReplicaBatch(label="tally")
    for m in members:
        batch.add_replica(m)
    batch.step(30)
    for k, (spec, b) in enumerate(zip(specs, members)):
        a = _solo(spec, 30).pair
        assert b.pair.tallied_step == a.tallied_step == 30, k
        assert b.pair.eng_vdwl == a.eng_vdwl, k
        assert np.array_equal(b.pair.virial, a.virial), k


# ------------------------------------------------------- mid-flight join
def test_mid_flight_join():
    """Members joining a running batch never disturb the others."""
    specs = _specs("melt", 6)
    batch = ReplicaBatch(label="join")
    members = [s.build() for s in specs]
    for m in members[:4]:
        batch.add_replica(m)
    batch.step(25)
    for m in members[4:]:
        batch.add_replica(m)
    batch.step(35)
    batch.finish()
    for i in range(4):
        _assert_bitwise(_solo(specs[i], 60), members[i], f"full member {i}")
    for i in (4, 5):  # joined at 25: 35 of their own steps
        _assert_bitwise(_solo(specs[i], 35), members[i], f"late member {i}")


# ------------------------------------------------------ reverse comm fold
def test_reverse_fold_matches_add_at_and_rejects_repeated_sources():
    """``GhostReplay.reverse`` folds with ``f[src] += buf``: bitwise the
    ``np.add.at`` replay on unique sources, refused at stage build else."""
    batch = ReplicaBatch(label="fold")
    for m in [s.build() for s in _specs("melt", 4)]:
        batch.add_replica(m)
    batch.step(5)
    f = batch.atom.f
    f[:] = np.random.default_rng(0).standard_normal(f.shape)
    want = f.copy()
    for src, dst, _ in reversed(batch._replay.stages):
        np.add.at(want, src, want[dst])
    batch._replay.reverse(batch.atom)
    assert np.array_equal(f, want)

    swap = batch.members[1].lmp.comm_brick.swaps[2]
    swap.sendlist = np.array([0, 0])  # bypasses Swap's own check
    with pytest.raises(CommError, match="ghost replay stage 2: repeated"):
        batch._hoist()


# ----------------------------------------------------------- admission gate
def test_unknown_pair_style_rejected_with_choices():
    from repro.core import Lammps

    lmp = Lammps(quiet=True)
    lmp.commands_string(
        """
        units lj
        lattice fcc 0.8442
        region box block 0 2 0 2 0 2
        create_box 1 box
        create_atoms 1 box
        mass 1 1.0
        pair_style morse 2.5
        pair_coeff 1 1 1.0 2.0 1.5
        fix 1 all nve
        """
    )
    batch = ReplicaBatch(label="gate")
    with pytest.raises(LammpsError, match="morse"):
        batch.add_replica(lmp)
    assert len(batch) == 0


def test_non_nve_fix_rejected():
    spec = ReplicaSpec(family="melt", cells=2)
    lmp = spec.build()
    lmp.commands_string("unfix 1\nfix 1 all nvt temp 1.0 1.0 0.1")
    batch = ReplicaBatch(label="gate")
    with pytest.raises(LammpsError):
        batch.add_replica(lmp)


# ------------------------------------- custom fields survive the stack
def test_custom_fields_survive_batch_retirement():
    """A user custom field on a member rides the stack and syncs back."""
    specs = _specs("melt", 3, thermo=100)
    members = [s.build() for s in specs]
    for m in members:
        mark = m.atom.add_custom("mark", 1, np.int64)
        mark[: m.atom.nlocal, 0] = 1000 * id(m) % 7919 + m.atom.tag[: m.atom.nlocal]
    expect = [m.atom.custom["mark"][: m.atom.nlocal].copy() for m in members]
    batch = ReplicaBatch(label="marks")
    for m in members:
        batch.add_replica(m)
    batch.step(10)
    batch.finish()
    for m, rows in zip(members, expect):
        got = m.atom.custom["mark"][: m.atom.nlocal]
        assert np.array_equal(got, rows)
