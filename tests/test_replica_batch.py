"""Differential safety net for the replica batch engine.

The whole premise of :mod:`repro.replica` is that folding R replicas into
one stacked AtomVec and running one set of vectorized kernels changes the
wall clock and *nothing else*.  These tests enforce that premise at the
strictest level available — ``np.array_equal`` on positions, velocities,
and thermo rows against fresh solo runs — under the production scatter and
an ``np.add.at`` reference body, for a mixed-size batch, members that
rebuild their neighbor lists on different steps, and user custom fields
riding through the stack; each member's ghost shell and replay stages equal
its solo ones.  Membership is fixed before the first step, and a failed
member rebuild stops the batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import SCATTERS, scatter_body
from repro.core import Lammps
from repro.core.atom import BORDER_FIELDS
from repro.core.comm_md import Swap
from repro.core.errors import CommError, LammpsError
from repro.replica import ReplicaBatch
from repro.replica.batch import SHARED
from repro.tools import registry as kp
from repro.workloads.melt import MELT_TEMPLATE


def _specs(n: int, thermo: int = 10) -> list[tuple[int, int, int]]:
    """``(cells, seed, thermo)`` per member: mixed sizes + distinct seeds —
    identical replicas could hide segment-offset bugs, equal sizes could
    hide ragged-stage bugs."""
    return [(3 if k % 2 else 2, 87287 + 13 * k, thermo) for k in range(n)]


def _build(spec: tuple[int, int, int], extra: str = "") -> Lammps:
    """A fresh single-rank melt member at its ready-to-run state."""
    cells, seed, thermo = spec
    lmp = Lammps(quiet=True)
    lmp.commands_string(MELT_TEMPLATE.format(cells=cells, pair_style="lj/cut"))
    lmp.commands_string(f"velocity all create 1.44 {seed}\nthermo {thermo}\n{extra}")
    return lmp


def _solo(spec, steps: int, extra: str = ""):
    lmp = _build(spec, extra)
    lmp.run(steps)
    return lmp


def _batch(members) -> ReplicaBatch:
    batch = ReplicaBatch()
    for m in members:
        batch.add_replica(m)
    return batch


def _assert_bitwise(solo, member, label: str) -> None:
    n = member.atom.nlocal
    assert np.array_equal(solo.atom.x[:n], member.atom.x[:n]), f"{label}: x"
    assert np.array_equal(solo.atom.v[:n], member.atom.v[:n]), f"{label}: v"
    a = [(r.step, r.values) for r in solo.thermo.history]
    b = [(r.step, r.values) for r in member.thermo.history]
    assert a == b, f"{label}: thermo history"


# ------------------------------------------------------------ batch = solo
@pytest.mark.parametrize("scatter", SCATTERS)
def test_melt_batch_bitwise_across_mode_matrix(scatter):
    """16 LJ replicas, batch vs solo, bit-for-bit under the segmented
    scatter and the ``np.add.at`` reference body alike."""
    with scatter_body(scatter):
        specs = _specs(16)
        solos = [_solo(s, 40) for s in specs]
        members = [_build(s) for s in specs]
        batch = _batch(members)
        batch.step(40)
        batch.finish()
    for i, (a, b) in enumerate(zip(solos, members)):
        _assert_bitwise(a, b, f"{scatter} replica {i}")


def test_members_rebuild_on_their_own_steps():
    """Members whose lists go stale on different steps rebuild alone (only
    the stale ones migrate and record a build) and still equal solo, bit for
    bit."""
    policy = "neigh_modify every 1 delay 0 check yes"
    specs = _specs(4)
    solos = [_solo(s, 60, policy) for s in specs]
    members = [_build(s, policy) for s in specs]
    batch = _batch(members)
    batch.step(60)
    batch.finish()
    builds = [m.neighbor.builds for m in members]
    assert builds == [s.neighbor.builds for s in solos]
    assert len(set(builds)) > 1, builds
    for i, (a, b) in enumerate(zip(solos, members)):
        _assert_bitwise(a, b, f"replica {i}")


# --------------------------------------------------- tallies after a run
@pytest.mark.parametrize("family", ["melt"])
def test_member_tallies_after_run_equal_solo(family):
    """A run's last step tallies into each member's own Pair, as solo does:
    ``thermo 50`` / ``run 30`` has no thermo row on step 30."""
    specs = _specs(3, thermo=50)
    members = [_build(s) for s in specs]
    _batch(members).step(30)
    for k, (spec, b) in enumerate(zip(specs, members)):
        a = _solo(spec, 30).pair
        assert b.pair.tallied_step == a.tallied_step == 30, (family, k)
        assert b.pair.eng_vdwl == a.eng_vdwl, (family, k)
        assert np.array_equal(b.pair.virial, a.virial), (family, k)


# ------------------------------------------------------ fixed membership
def test_add_after_the_first_step_raises():
    """Members join before the first step; a late one is refused untouched."""
    specs = _specs(3)
    members = [_build(s) for s in specs]
    batch = _batch(members[:2])
    batch.step(5)
    with pytest.raises(LammpsError, match="join before the first step"):
        batch.add_replica(members[2])
    assert len(batch.members) == 2
    assert members[2].update.ntimestep == 0 and not members[2].thermo.history


def test_failed_member_rebuild_stops_the_step():
    """A non-finite coordinate in one member's box stops ``step`` at its
    next rebuild, before the wrap, with the solo rebuild's error naming the
    step, that replica and the atom tag; nobody steps on."""
    members = [_build(s) for s in _specs(3)]
    batch = _batch(members)
    batch.step(5)
    m = batch.members[1]
    tag = int(batch.atom.tag[m.own_off + 3])
    batch.atom.x[m.own_off + 3] = np.nan  # the template rebuilds every 20
    with pytest.raises(LammpsError, match=rf"step 20: replica 1 owns atom {tag} at non-finite"):
        batch.step(35)
    assert [m.update.ntimestep for m in members] == [20, 20, 20]


def test_a_batch_rebuild_step_posts_no_message():
    """The batch migrates its members without the mailbox: a rebuild step
    that prints no thermo row leaves every member's world ledger as it was."""
    members = [_build(s) for s in _specs(3, thermo=100)]
    batch = _batch(members)
    batch.step(19)
    builds = [m.neighbor.builds for m in members]
    ledgers = [(m.world.ledger.messages, m.world.ledger.bytes_moved) for m in members]
    batch.step(1)  # step 20: every member rebuilds
    assert [m.neighbor.builds for m in members] == [b + 1 for b in builds]
    assert [(m.world.ledger.messages, m.world.ledger.bytes_moved) for m in members] == ledgers


# ----------------------------------------------------------- tool spans
class _Spans(kp.Tool):
    def __init__(self) -> None:
        self.kernels: list[str] = []
        self.regions: list[str] = []

    def end_parallel_for(self, ev) -> None:
        self.kernels.append(ev.name)

    def push_region(self, ev) -> None:
        self.regions.append(ev.name)


def test_stacked_phases_are_regions_not_kernels():
    """The batch's phases dispatch nothing, so tools see them as regions."""
    batch = _batch([_build(s) for s in _specs(2)])
    spans = _Spans()
    with kp.attached(spans):
        batch.step(2)
    assert spans.kernels == []
    phases = ["initial_integrate", "forward_comm", "pair_force", "final_integrate"]
    assert spans.regions == [f"replica/{p}" for p in phases] * 2


# ------------------------------------------------------ reverse comm fold
def test_reverse_fold_matches_add_at_and_rejects_repeated_sources():
    """``GhostReplay.reverse`` folds with ``f[src] += buf``: bitwise the
    ``np.add.at`` replay on unique sources; a swap refuses a repeated one."""
    batch = _batch([_build(s) for s in _specs(4)])
    batch.step(5)
    f = batch.atom.f
    f[:] = np.random.default_rng(0).standard_normal(f.shape)
    want = f.copy()
    for src, dst, _ in reversed(batch._replay.stages):
        np.add.at(want, src, want[dst])
    batch._replay.reverse(batch.atom)
    assert np.array_equal(f, want)

    swap = batch._brick.swaps[2]
    with pytest.raises(CommError, match="sendlist is not strictly increasing"):
        Swap(swap.dim, swap.dirn, 0, 0, np.array([0, 0]), swap.shift[:2], 0, 2)


# ------------------------------------------------------ the slice contract
def _box_rows(batch) -> list[np.ndarray]:
    """Each member's stacked rows, owned then ghost, in ascending order."""
    box = batch._brick.box
    return [np.flatnonzero(box == m.index) for m in batch.members]


def _assert_solo_shell(solo, batch, m, rows, label: str) -> None:
    """Member ``m``'s stacked rows and replay stages are ``solo``'s arrays
    and one-rank replay stages, bit for bit."""
    a = solo.atom
    assert len(rows) == a.nall, label
    for name in BORDER_FIELDS:
        assert np.array_equal(getattr(batch.atom, name)[rows], getattr(a, name)[: a.nall]), (label, name)
    local = np.full(batch.atom.nall, -1)
    local[rows] = np.arange(len(rows))
    mine = []
    for src, dst, shift in batch._replay.stages:
        keep = batch._brick.box[src] == m.index
        dst_rows = np.arange(dst.start, dst.stop)[keep]
        if keep.any():
            mine.append((local[src[keep]], local[dst_rows], shift[keep]))
    theirs = solo.comm_brick.replay.stages
    assert len(mine) == len(theirs), label
    for (src, dst, shift), (s_src, s_dst, s_shift) in zip(mine, theirs):
        assert np.array_equal(src, s_src), label
        assert np.array_equal(dst, np.arange(s_dst.start, s_dst.stop)), label
        assert np.array_equal(shift, np.broadcast_to(s_shift, shift.shape)), label


def test_every_stage_is_one_slice_and_each_member_reads_its_solo_shell():
    """A solo replay's and a 4-member batch's stages each write one slice;
    the batch's ghosts follow its owned rows swap by swap, and each member's
    stacked rows (owned and ghost) are its own solo shell."""
    solo = _build(_specs(1)[0])
    solo.command("run 0")
    assert all(isinstance(dst, slice) for _, dst, _ in solo.comm_brick.replay.stages)

    specs = _specs(4)
    batch = _batch([_build(s) for s in specs])
    batch.step(0)
    stages = batch._replay.stages
    assert len(stages) == 6 and all(isinstance(dst, slice) for _, dst, _ in stages)
    assert stages[0][1].start == batch.atom.nlocal
    assert all(a[1].stop == b[1].start for a, b in zip(stages, stages[1:]))
    assert stages[-1][1].stop == batch.atom.nall
    rows = _box_rows(batch)
    assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(batch.atom.nall))
    for m, mine, spec in zip(batch.members, rows, specs):
        _assert_solo_shell(_solo(spec, 0), batch, m, mine, f"member {m.index}")


def test_batch_migration_equals_each_solo_exchange_sort_and_borders():
    """Mixed-size members, two of them re-neighboring on their own steps
    (``check yes``): after several batch rebuild steps each member's owned
    order, stacked ghost rows and replay stages equal a solo run's, bit for
    bit."""
    policy = "neigh_modify every 1 delay 0 check yes"
    specs = _specs(4)
    extra = ["", policy, policy, ""]
    members = [_build(s, e) for s, e in zip(specs, extra)]
    batch = _batch(members)
    batch.step(60)  # the template's members rebuild at 20, 40 and 60
    solos = [_solo(s, 60, e) for s, e in zip(specs, extra)]
    builds = [m.neighbor.builds for m in members]
    assert builds == [s.neighbor.builds for s in solos]
    assert builds[1] != 4 and builds[2] != 4 and builds[1] != builds[2], builds
    for m, rows, solo in zip(batch.members, _box_rows(batch), solos):
        _assert_solo_shell(solo, batch, m, rows, f"member {m.index}")


# ----------------------------------------------------------- admission gate
def test_unknown_pair_style_rejected_with_choices():
    lmp = Lammps(quiet=True)
    lmp.commands_string(
        """
        units lj
        lattice fcc 0.8442
        region box block 0 2 0 2 0 2
        create_box 1 box
        create_atoms 1 box
        mass 1 1.0
        pair_style lj/cut/gpu 2.5
        pair_coeff 1 1 1.0 1.0
        fix 1 all nve
        """
    )
    batch = ReplicaBatch()
    with pytest.raises(LammpsError, match="'lj/cut/gpu'.*expected one of: lj/cut"):
        batch.add_replica(lmp)
    assert batch.members == []


def _differ_in(name: str, lmp: Lammps) -> None:
    """Make ``lmp`` differ from a :func:`_build` copy in one shared setting."""
    if name == "step":
        lmp.update.ntimestep = 5
    elif name == "custom fields":
        lmp.atom.add_custom("mark", 1, np.int64)
    else:
        lmp.commands_string({
            "units": "units metal\nneighbor 0.3 bin",
            "timestep": "timestep 0.004",
            "thermo interval": "thermo 20",
            "masses": "mass 1 2.0",
            "pair coefficients": "pair_coeff 1 1 0.9 1.0",
        }[name])


@pytest.mark.parametrize("name", [name for name, _ in SHARED])
def test_member_differing_in_a_shared_setting_is_refused(name):
    """Members are copies of one script: one that differs from the first in
    a shared setting is refused at ``add_replica``, naming the setting."""
    spec = _specs(2)[1]
    other = _build(spec)
    _differ_in(name, other)
    batch = _batch([_build(_specs(1)[0])])
    with pytest.raises(LammpsError, match=f"replica 1 differs from replica 0 in its {name}:"):
        batch.add_replica(other)
    assert len(batch.members) == 1


def test_non_nve_fix_rejected():
    lmp = _build((2, 87287, 100))
    lmp.modify.fixes.clear()
    lmp.command("fix 1 all nve/kk")
    with pytest.raises(LammpsError, match=r"exactly 'fix all nve'; got nve/kk\(all\)"):
        ReplicaBatch().add_replica(lmp)


# ------------------------------------- custom fields survive the stack
def test_custom_fields_survive_batch_retirement():
    """A user custom field on a member rides the stack and syncs back."""
    members = [_build(s) for s in _specs(3, thermo=100)]
    for m in members:
        mark = m.atom.add_custom("mark", 1, np.int64)
        mark[: m.atom.nlocal, 0] = 1000 * id(m) % 7919 + m.atom.tag[: m.atom.nlocal]
    expect = [m.atom.custom["mark"][: m.atom.nlocal].copy() for m in members]
    batch = _batch(members)
    batch.step(10)
    batch.finish()
    for m, rows in zip(members, expect):
        got = m.atom.custom["mark"][: m.atom.nlocal]
        assert np.array_equal(got, rows)
