"""Differential safety net for the replica batch engine.

The whole premise of :mod:`repro.replica` is that folding R replicas into
one stacked AtomVec and running one set of vectorized kernels changes the
wall clock and *nothing else*.  These tests enforce that premise at the
strictest level available — ``np.array_equal`` on positions, velocities,
and thermo rows against fresh solo runs — under both scatter modes,
mid-flight joins, staggered early termination, and the custom-field
compaction the retirement path depends on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import LammpsError
from repro.kokkos.segment import (
    ATOMIC,
    SEGMENTED,
    force_scatter_mode,
    set_scatter_mode,
)
from repro.replica import ReplicaBatch
from repro.replica.batch import REPLICA_FIELD
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
            steps=0,
            thermo=thermo,
            seed=87287 + 13 * k,
        )
        for k in range(n)
    ]


def _solo(spec: ReplicaSpec, steps: int):
    lmp = spec.build()
    lmp.run(steps)
    return lmp


def _assert_bitwise(solo, member, label: str, thermo: bool = True) -> None:
    n = member.atom.nlocal
    assert np.array_equal(solo.atom.x[:n], member.atom.x[:n]), f"{label}: x"
    assert np.array_equal(solo.atom.v[:n], member.atom.v[:n]), f"{label}: v"
    if thermo:
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


# --------------------------------------- join / staggered early termination
def test_mid_flight_join_and_staggered_termination():
    """Members joining late and retiring early never disturb the others."""
    specs = _specs("melt", 6)
    batch = ReplicaBatch(label="churn")
    members = [s.build() for s in specs]
    rids = [batch.add_replica(m) for m in members[:4]]
    batch.step(25)
    rids += [batch.add_replica(m) for m in members[4:]]  # join mid-flight
    batch.step(20)
    batch.remove_replica(rids[1])  # staggered early termination...
    batch.step(10)
    batch.remove_replica(rids[4])
    batch.step(5)
    batch.finish()

    # full-tenure members ran 60 steps
    for i in (0, 2, 3):
        _assert_bitwise(_solo(specs[i], 60), members[i], f"full member {i}")
    # removed at step 45 (its own clock): synced truth at removal
    _assert_bitwise(_solo(specs[1], 45), members[1], "removed@45", thermo=False)
    # joined at 25, removed after 20+10 more of its own steps
    _assert_bitwise(_solo(specs[4], 30), members[4], "late+removed", thermo=False)
    # joined at 25, ran to the end: 35 of its own steps
    _assert_bitwise(_solo(specs[5], 35), members[5], "late member 5")
    assert len(batch) == 4


def test_remove_compacts_replica_id_column():
    specs = _specs("melt", 3)
    batch = ReplicaBatch(label="compact")
    members = [s.build() for s in specs]
    rids = [batch.add_replica(m) for m in members]
    batch.step(3)
    batch.remove_replica(rids[1])
    col = batch.atom.custom[REPLICA_FIELD][: batch.atom.nlocal, 0]
    assert sorted(set(col.tolist())) == [rids[0], rids[2]]
    # survivors keep contiguous segments in member order
    counts = [int((col == r).sum()) for r in (rids[0], rids[2])]
    assert counts == [m.atom.nlocal for m in (members[0], members[2])]


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
    spec = ReplicaSpec(family="melt", cells=2, steps=0)
    lmp = spec.build()
    lmp.commands_string("unfix 1\nfix 1 all nvt temp 1.0 1.0 0.1")
    batch = ReplicaBatch(label="gate")
    with pytest.raises(LammpsError):
        batch.add_replica(lmp)


# ------------------------------------- custom fields survive compaction
def test_custom_fields_survive_delete_local():
    """Regression: delete_local must carry registered custom rows along."""
    spec = ReplicaSpec(family="melt", cells=2, steps=0)
    lmp = spec.build()
    atom = lmp.atom
    n = atom.nlocal
    field = atom.add_custom("flavor", 2, np.float64)
    field[:n, 0] = np.arange(n, dtype=np.float64)
    field[:n, 1] = atom.tag[:n]
    atom.clear_ghosts()
    keep = np.ones(n, dtype=bool)
    keep[1::3] = False
    tags = atom.tag[:n][keep].copy()
    rows = atom.custom["flavor"][:n][keep].copy()
    nkeep = atom.delete_local(keep)
    assert nkeep == int(keep.sum())
    assert np.array_equal(atom.tag[:nkeep], tags)
    assert np.array_equal(atom.custom["flavor"][:nkeep], rows)
    # rows still travel with their atoms: column 1 mirrors the tag
    assert np.array_equal(atom.custom["flavor"][:nkeep, 1], atom.tag[:nkeep])


def test_custom_fields_survive_batch_retirement():
    """End-to-end: a user custom field on a member survives remove_replica."""
    specs = _specs("melt", 3, thermo=100)
    members = [s.build() for s in specs]
    for m in members:
        mark = m.atom.add_custom("mark", 1, np.int64)
        mark[: m.atom.nlocal, 0] = 1000 * id(m) % 7919 + m.atom.tag[: m.atom.nlocal]
    expect = [m.atom.custom["mark"][: m.atom.nlocal].copy() for m in members]
    batch = ReplicaBatch(label="marks")
    rids = [batch.add_replica(m) for m in members]
    batch.step(5)
    batch.remove_replica(rids[0])
    batch.step(5)
    batch.finish()
    for m, rows in zip(members, expect):
        got = m.atom.custom["mark"][: m.atom.nlocal]
        assert np.array_equal(got, rows)
