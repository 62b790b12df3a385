"""ReplicaBatch: R independent replicas stepped through one kernel set.

Small MD systems cannot saturate wide hardware — or, here, amortize Python
dispatch overhead.  Below the saturation size, throughput comes from running
*many systems per device* (Trott et al., PAPERS.md), so this engine packs R
independent single-rank :class:`~repro.core.Lammps` replicas into one
stacked :class:`~repro.core.atom.AtomVec` and advances them all with one
vectorized pass per step: one LJ force evaluation, one NVE
half-kick/drift, one ghost-comm replay — over arrays R times longer.

**Layout.**  The stacked array holds every replica's owned atoms first
(``[own_0 | own_1 | ...]``, so the "is j owned" predicate ``j < nlocal``
keeps its solo meaning), then the ghosts of one six-swap ``borders`` pass
over every replica's box at once (:meth:`CommBrick.stack
<repro.core.comm_md.CommBrick.stack>`): swap by swap, each swap's ghosts of
every box in one contiguous slice, so each stage of the ghost replay writes
one slice.  A replica's rows, owned and ghost, in ascending stacked order
are its solo arrays in its solo order; one stable sort by box lays them out
box-major, the layout the one list build reads.  Cross-replica pairs cannot
exist *structurally*: each box is built as a box of its own (DESIGN §3.3),
and only then is the one list translated into stacked indices.

**Bitwise equivalence.**  Per-replica trajectories and thermo are bit-for-bit
identical to solo runs, enforced by ``tests/test_replica_batch.py``.  The
engine earns this by construction:

* the pair math is not replicated at all: the batch is one more executor
  of the solo pass (:func:`repro.graph.pairwise.pairwise`), run over the
  stacked ``i/j`` vectors with the first member's
  :meth:`~repro.potentials.pair.Pair.pair_constants` (the ones its
  ``bind_pairs`` binds), and the NVE update is ``FixNVE``'s own
  (:func:`~repro.core.fixes.nve_initial`, :func:`~repro.core.fixes.nve_final`)
  over the stacked atom — elementwise, so each replica's rows see exactly
  the solo operation sequence;
* scatter adds accumulate per destination in input order, and replica
  segments are disjoint, so concatenating streams never reorders any
  single destination's sum;
* reductions are the solo code's own: on a step the first member's
  :meth:`~repro.core.integrate.Verlet.ev_set` marks for ``ev_tally``, every
  member tallies into its own ``Pair`` over its contiguous slice of the cut
  pair stream, and on a thermo step every member syncs its owned rows home
  and emits its own ``Thermo.output_gen`` row;
* migration runs the solo functions over a batch of boxes: the wrap is
  :func:`~repro.core.domain.wrap` (``Domain.wrap``'s) per box, the sort is
  :func:`~repro.core.bin_grid.spatial_sort_order` with the box as its
  slowest coordinate, and each ``borders`` swap is the solo selection
  (:func:`~repro.core.comm_md.border_sendlist`) with each box's own bounds
  and shift, so each box's send lists, ghost rows and replay stages are
  its solo ones.

**One script.**  The members are copies of one script (``ReplicaSet``
sends R of them; its ``${replica}`` varies per-box state such as the
velocity seed): :meth:`add_replica
<ReplicaBatch.add_replica>` refuses a member that differs from the first in
any of :data:`SHARED` — units, timestep, step, thermo interval, masses,
pair coefficients, custom fields — so the batch keeps one clock, one NVE
update, one pair table and one set of custom fields.  Each member keeps
its own box, positions, velocities and neighbor policy.

**Epochs.**  Members join before the first step; the first ``step``
stacks their owned rows once, and from then on the stacked arrays are the
truth.  Members keep only their ``Neighbor`` decide/record state, their
``Pair`` tallies and their thermo (a member's owned rows sync home for its
thermo rows and at :meth:`finish`).  On a rebuild step the due boxes
migrate as one batch: one wrap into each box's own bounds
(``CommBrick.exchange``) and one sort; then one ``borders`` pass over every
box, one bin grid and one list build, and the epoch's pair env as one
translation of that list.  A box that is not due keeps its ghost shell and
list: the pass re-derives both, bit for bit, from the coordinates of its
own last build (``Neighbor.last_build_x``), and its current coordinates
come back after.  Per-replica neighbor staleness is tracked individually —
one hot replica rebuilding does not force the rest to.  A due box holding a
non-finite owned coordinate stops the step before its wrap, with the solo
rebuild's :class:`~repro.core.errors.LammpsError`
(:func:`~repro.core.domain.require_finite`) naming the step, the replica
and the atom tag.

The batched pair style is host ``lj/cut`` (the one style a replica
workload runs); batchability violations raise with the shared
``errors.unknown_choice`` did-you-mean hint where the set is closed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.atom import AtomVec
from repro.core.bin_grid import spatial_sort_order, stable_order
from repro.core.comm_md import CommBrick, GhostReplay
from repro.core.domain import require_finite, wrap
from repro.core.errors import LammpsError, unknown_choice
from repro.core.fixes import nve_final, nve_initial
from repro.core.neighbor import build_neighbor_list
from repro.graph.pairwise import ARENA, pairwise
from repro.parallel.driver import drain
from repro.potentials.lj import lj_energy, lj_force
from repro.tools import registry as kp


# ------------------------------------------------------------------ members
@dataclass
class _Member:
    """One replica: its solo Lammps instance plus its stacked rows."""

    lmp: "object"
    index: int  #: position in the members list == stacking order
    own_off: int = 0
    nlocal: int = 0


#: ``(name, value of)`` every setting a member shares with the first: the
#: settings of one script, which the batch holds once
SHARED = (
    ("units", lambda lmp: lmp.update.units.name),
    ("timestep", lambda lmp: lmp.update.dt),
    ("step", lambda lmp: lmp.update.ntimestep),
    ("thermo interval", lambda lmp: lmp.thermo.every),
    ("masses", lambda lmp: lmp.atom.mass.tolist()),
    ("pair coefficients", lambda lmp: {k: t.tolist() for k, t in lmp.pair.pair_tables().items()}),
    ("custom fields", lambda lmp: {k: (a.shape[1], a.dtype) for k, a in lmp.atom.custom.items()}),
)


@contextmanager
def _region(name: str) -> Iterator[None]:
    """A tool region around one stacked phase (it dispatches no kernel)."""
    kp.push_region(f"replica/{name}")
    try:
        yield
    finally:
        kp.pop_region()


# ---------------------------------------------------------------- the batch
class ReplicaBatch:
    """R single-rank replicas packed into one stacked AtomVec.

    Usage::

        batch = ReplicaBatch()
        for lmp in members:             # each fully set up (pair, fix nve...)
            batch.add_replica(lmp)
        batch.step(100)                  # all replicas advance together
        batch.finish()                   # final state synced back to each lmp

    Members are copies of one script (every :data:`SHARED` setting equal to
    the first member's) and may differ in box size, positions, velocities
    and neighbor policy; they run host ``lj/cut`` with one newton setting
    and one ghost cutoff.  Thermo rows land in each member's own
    ``lmp.thermo.history``, exactly as a solo run would record them.
    """

    def __init__(self) -> None:
        self.members: list[_Member] = []
        #: the stacked AtomVec, built by the first :meth:`step`
        self.atom: AtomVec | None = None
        self._sig: tuple | None = None
        self._brick: CommBrick | None = None  #: every member's box, stacked
        self._replay: GhostReplay | None = None
        self._env: dict = {}  #: stacked pairwise env, rebuilt every epoch

    # ------------------------------------------------------------ admission
    def add_replica(self, lmp) -> None:
        """Validate a fully configured Lammps instance, then run its own solo
        setup: pair init, neighbor build, initial forces and the forced
        step-0 thermo row — exactly ``run 0``'s prologue.  Every check runs
        first (the pair tables and the ghost cutoff need only
        ``pair.init()``), so a refused member is left as it was.  Members
        join before the first :meth:`step`, which stacks them."""
        if self.atom is not None:
            raise LammpsError("replica members must join before the first step")
        sig = self._validate(lmp)
        lmp.pair.init()
        sig += (lmp.pair.max_cutoff() + lmp.neighbor.skin,)  # the ghost cutoff
        if self.members and sig != self._sig:
            raise LammpsError(
                f"replica signature mismatch: batch runs {self._sig}, new member "
                f"wants {sig} (pair style, newton and ghost cutoff must match)"
            )
        if self.members:
            lead = self.members[0].lmp
            for name, get in SHARED:
                if get(lmp) != get(lead):
                    raise LammpsError(
                        f"replica {len(self.members)} differs from replica 0 in "
                        f"its {name}: replica members run copies of one script"
                    )
        drain(lmp.verlet.setup_gen())
        lmp.world.assert_drained()
        self.members.append(_Member(lmp=lmp, index=len(self.members)))
        self._sig = sig

    def _validate(self, lmp) -> tuple:
        if lmp.comm_size != 1:
            raise LammpsError(
                "replica members must be single-rank Lammps instances "
                "(multi-rank runs go through Ensemble)"
            )
        if lmp.atom is None:
            raise LammpsError("replica member has no simulation box")
        pair = lmp.pair
        if pair is None:
            raise LammpsError("replica member needs a pair style before batching")
        style = getattr(pair, "style_name", type(pair).__name__)
        if style != "lj/cut" or getattr(pair, "kokkos_style", False):
            raise LammpsError(unknown_choice("replica pair style", style, ("lj/cut",)))
        fixes = lmp.modify.fixes
        if (
            len(fixes) != 1
            or type(fixes[0]).style_name != "nve"
            or fixes[0].group != "all"
        ):
            got = [f"{type(f).style_name}({f.group})" for f in fixes] or ["none"]
            raise LammpsError(
                "replica members must integrate with exactly 'fix all nve'; "
                f"got {', '.join(got)}"
            )
        if lmp.autotuner is not None:
            raise LammpsError(
                "autotune the solo workload first; replica members cannot "
                "carry an autotuner"
            )
        if "tune" in lmp.thermo.columns:
            raise LammpsError(
                "replica members cannot use the 'tune' thermo column"
            )
        style_req, newton = pair.neighbor_request()
        return (style, style_req, newton)

    # ------------------------------------------------------------- syncing
    def _sync_member(self, m: _Member) -> None:
        """Copy a member's stacked owned rows back into its solo arrays."""
        a = m.lmp.atom
        sl = slice(m.own_off, m.own_off + m.nlocal)
        st = self.atom
        for name in ("x", "v", "f", "q", "type", "tag"):
            getattr(a, name)[: m.nlocal] = getattr(st, name)[sl]
        for name, arr in a.custom.items():
            arr[: m.nlocal] = st.custom[name][sl]

    # -------------------------------------------------------------- stacking
    def _stack(self) -> None:
        """Stack the members' owned rows once — with, per atom, its box's
        periodic bounds — and the members' boxes into one brick; then derive
        the first epoch, in which no box is due (each keeps its set-up ghost
        shell and list)."""
        members = self.members
        atoms = [m.lmp.atom for m in members]
        self._nlocal = np.array([a.nlocal for a in atoms], dtype=np.int64)
        self._own_off = np.concatenate(([0], np.add.accumulate(self._nlocal)))
        for m, off, n in zip(members, self._own_off.tolist(), self._nlocal.tolist()):
            m.own_off, m.nlocal = off, n

        def owned(name: str) -> np.ndarray:
            return np.concatenate([getattr(a, name)[: a.nlocal] for a in atoms])

        def per_atom(values) -> np.ndarray:
            return np.repeat(np.asarray(values), self._nlocal, axis=0)

        atom = self.atom = AtomVec(ntypes=atoms[0].ntypes)
        atom.mass[:] = atoms[0].mass
        custom = {
            name: np.concatenate([a.custom[name][: a.nlocal] for a in atoms])
            for name in atoms[0].custom
        }
        atom.replace_local(x=owned("x"), v=owned("v"), types=owned("type"),
                           tags=owned("tag"), q=owned("q"), custom=custom)
        # the very next initial half-kick reads the members' current forces
        atom.f[: atom.nlocal] = owned("f")
        atom.grow(sum(a.nall for a in atoms))  # the first epoch's rows, exactly

        domains = [m.lmp.domain for m in members]  # each atom's box, to wrap into
        self._lo = per_atom([d.boxlo for d in domains])
        self._len = per_atom([d.lengths for d in domains])
        self._periodic = per_atom([d.periodic for d in domains])

        self._brick = CommBrick.stack(
            [m.lmp.comm_brick for m in members], [d.periodic for d in domains], self._nlocal
        )
        for m in members:  # the batch owns their ghost shells, lists and halos now
            m.lmp.neigh_list = m.lmp.bin_grid = m.lmp.comm_brick = None
        self._rebuild(np.zeros(len(members), dtype=bool))

    # ------------------------------------------------------------- stepping
    def step(self, nsteps: int = 1) -> None:
        """Advance every replica ``nsteps`` timesteps; the first call stacks
        the members."""
        if nsteps < 0:
            raise LammpsError("negative step count")
        if self.atom is None:
            self._stack()
        last = self.members[0].lmp.update.ntimestep + nsteps
        for _ in range(nsteps):
            self._one_step(last)

    def _one_step(self, last: int) -> None:
        """One solo timestep of every member on the one clock: the first
        member's ``update``, ``ev_set`` and thermo interval are all of
        theirs (:data:`SHARED`)."""
        atom, lead = self.atom, self.members[0].lmp
        step = lead.update.ntimestep + 1
        for m in self.members:
            m.lmp.update.ntimestep = step
        with _region("initial_integrate"):
            nve_initial(atom, lead.update)
        due = np.array([
            m.lmp.neighbor.decide(step, atom.x[m.own_off : m.own_off + m.nlocal])
            for m in self.members
        ])
        if due.any():
            self._rebuild(due)
        else:
            with _region("forward_comm"):
                self._replay.forward_x(atom)
        ev = lead.verlet.ev_set(step, last)
        with _region("pair_force"):
            self._force(ev)
        with _region("final_integrate"):
            nve_final(atom, lead.update)
        if ev and lead.thermo.should_output(step):
            for m in self.members:
                self._require_finite(m)
            for m in self.members:
                self._sync_member(m)
                drain(m.lmp.thermo.output_gen())

    def _require_finite(self, m: _Member) -> None:
        """The solo guard over member ``m``'s stacked owned rows, naming the
        step, the replica and the atom tag."""
        rows = slice(m.own_off, m.own_off + m.nlocal)
        require_finite(self.atom.x[rows], self.atom.tag[rows],
                       f"step {m.lmp.update.ntimestep}: replica {m.index}")

    def _force(self, ev: bool) -> None:
        """Stacked ``lj/cut``: the untallied pairwise pass, every member's
        tally when ``ev``, then the ghost-force fold when newton is on."""
        atom = self.atom
        env = self._env
        atom.zero_forces()
        env.update(x=atom.x[: atom.nall], f=atom.f)
        pairwise(env, False)
        if ev:
            lj_energy(env)
            self._tally()
        if env["newton"]:
            self._replay.reverse(atom)

    # -------------------------------------------------------------- rebuild
    def _rebuild(self, due: np.ndarray) -> None:
        """One epoch over every box; ``due[b]``: box ``b`` re-neighbors now.

        Every box stands at the coordinates of its own last build — a due
        box's are its current ones, wrapped and sorted here (the exchange and
        sort of its solo rebuild) — while ``borders`` and the list build run
        once over all of them; then the not-due boxes get their current
        coordinates back and the replay refreshes every ghost.
        """
        atom, brick, members = self.atom, self._brick, self.members
        nown = atom.nlocal
        now = atom.x[:nown].copy()
        built = np.concatenate([m.lmp.neighbor.last_build_x for m in members])
        keep = np.repeat(~due, self._nlocal)[:, None]
        if due.any():
            for m in members:
                if due[m.index]:
                    self._require_finite(m)
            drain(brick.exchange(atom, lambda x: wrap(x, self._lo, self._len, self._periodic)))
            # a box that is not due is back at its last build's (wrapped,
            # sorted) coordinates, so the sort leaves it as it is
            np.copyto(atom.x[:nown], built, where=keep)
            atom.reorder_local(spatial_sort_order(atom.x[:nown], brick.cutghost, self._nlocal))
        else:
            atom.x[:nown] = built
        drain(brick.borders(atom, None))
        # each box's rows in its solo order, box-major: one build
        order = stable_order(brick.box, len(members))
        counts = np.bincount(brick.box, minlength=len(members))
        ARENA.release()  # end the arena's epoch, as a solo rebuild does
        _, style, newton, cutghost = self._sig
        nlist = build_neighbor_list(
            atom.x[order], np.stack([self._nlocal, counts], axis=1), cutghost,
            style=style, newton=newton,
        )
        for m in members:
            if due[m.index]:
                rows = atom.x[m.own_off : m.own_off + m.nlocal]
                m.lmp.neighbor.record_build(m.lmp.update.ntimestep, rows)
        np.copyto(atom.x[:nown], now, where=keep)
        self._env_of(nlist, order, counts)
        self._replay = brick.replay
        self._replay.forward_x(atom)

    def _env_of(self, nlist, order: np.ndarray, counts: np.ndarray) -> None:
        """The epoch's pairwise env: the one list's pairs in stacked indices
        (its rows are the stacked owned rows; a box's neighbor ``j`` is its
        ``j``-th row in ``order``) with the members' one pair table — the
        stacked executor of :func:`repro.graph.pairwise.pairwise`, whose
        arithmetic stays in ``potentials/lj.py``."""
        atom = self.atom
        nown = atom.nlocal
        i0, j_box = nlist.ij_pairs()
        first = np.add.accumulate(counts) - counts
        j0 = order.take(first.take(self._brick.box[:nown]).take(i0) + j_box)
        _, list_style, newton, _ = self._sig
        full = list_style == "full"
        pair = self.members[0].lmp.pair
        env = self._env = {
            "pair": pair,
            "i0": i0,  # owned, globally ascending
            "j0": j0,  # owned or ghost
            "jl0": None if full or newton else j0 < nown,
            "off": nlist.first[self._own_off],  # member pair offsets
            "full": full,
            "newton": newton,
            "f_view": None,
            "force_fn": lj_force,
            **pair.pair_constants(atom.type[: atom.nall], i0, j0),
        }

    # -------------------------------------------------------------- tallies
    def _tally(self) -> None:
        """Solo ``ev_tally`` into each member's own ``Pair``.

        The solo order per member: reset, then ``tally_pairs`` over its
        contiguous slice of the cut pair stream — the same length, values
        and contiguity as the solo reductions.
        """
        env = self._env
        bounds = np.searchsorted(env["idx"], env["off"])
        jl = env["jl_n"]
        for m in self.members:
            pair = m.lmp.pair
            pair.reset_tallies(True)
            cut = slice(bounds[m.index], bounds[m.index + 1])
            pair.tally_pairs(
                env["evdwl_n"][cut],
                env["dx_n"].T[cut],
                env["fvec_n"].T[cut],
                None if jl is None else jl[cut],
                full_list=env["full"],
                newton=env["newton"],
            )

    # -------------------------------------------------------------- finish
    def finish(self) -> None:
        """Sync every member's stacked state back to its solo instance.

        Call after stepping when the members will be read (or run further)
        outside the batch.
        """
        for m in self.members:
            self._sync_member(m)
