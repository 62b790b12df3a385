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
  stacked ``i/j/cutsq/coefficient`` vectors, and the NVE kicks are
  elementwise, so each replica's rows see exactly the solo operation
  sequence;
* scatter adds accumulate per destination in input order, and replica
  segments are disjoint, so concatenating streams never reorders any
  single destination's sum;
* reductions are the solo code's own: a member due for ``ev_tally`` (its
  own :meth:`~repro.core.integrate.Verlet.ev_set`) tallies into its own
  ``Pair`` over its contiguous slice of the cut pair stream, and a member
  due for thermo syncs its owned rows home and emits its own
  ``Thermo.output_gen`` row;
* migration runs the solo functions over a batch of boxes: the wrap is
  :func:`~repro.core.domain.wrap` (``Domain.wrap``'s) per box, the sort is
  :func:`~repro.core.bin_grid.spatial_sort_order` with the box as its
  slowest coordinate, and each ``borders`` swap is the solo selection
  (:func:`~repro.core.comm_md.border_sendlist`) with each box's own bounds
  and shift, so each box's send lists, ghost rows and replay stages are
  its solo ones.

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
one hot replica rebuilding does not force the rest to.  A non-finite
coordinate stops the step with a :class:`~repro.core.errors.LammpsError`
naming the replica and the step.

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
from repro.core.domain import wrap
from repro.core.errors import LammpsError, NeighborError, unknown_choice
from repro.core.neighbor import build_neighbor_list, present_type_pairs, type_pair_constants
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
    #: the member's last step of the current ``step(n)`` (``Verlet.ev_set``)
    last_step: int = 0


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

    Members may differ in timestep, size, dt, thermo interval and neighbor
    policy; they run host ``lj/cut`` with one newton setting and one ghost
    cutoff.  Thermo rows
    land in each member's own ``lmp.thermo.history``, exactly as a solo run
    would record them.
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
        """Validate a fully configured Lammps instance and run its own solo
        setup: pair init, neighbor build, initial forces and the forced
        step-0 thermo row — exactly ``run 0``'s prologue.  Members join
        before the first :meth:`step`, which stacks them."""
        if self.atom is not None:
            raise LammpsError("replica members must join before the first step")
        sig = self._validate(lmp)
        drain(lmp.verlet.setup_gen())
        lmp.world.assert_drained()
        sig += (lmp.comm_brick.cutghost,)
        if self.members and sig != self._sig:
            raise LammpsError(
                f"replica signature mismatch: batch runs {self._sig}, new member "
                f"wants {sig} (pair style, newton and ghost cutoff must match)"
            )
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
        """Stack the members' owned rows once — with, per atom, its member's
        integration constants, periodic bounds and pair-table offsets — and
        the members' boxes into one brick; then derive the first epoch, in
        which no box is due (each keeps its set-up ghost shell and list)."""
        members = self.members
        atoms = [m.lmp.atom for m in members]
        self._nlocal = np.array([a.nlocal for a in atoms], dtype=np.int64)
        self._own_off = np.concatenate(([0], np.add.accumulate(self._nlocal)))
        for m, off, n in zip(members, self._own_off.tolist(), self._nlocal.tolist()):
            m.own_off, m.nlocal = off, n
        specs: dict[str, tuple[int, np.dtype]] = {}
        for a in atoms:
            for name, arr in a.custom.items():
                if specs.setdefault(name, (arr.shape[1], arr.dtype)) != (arr.shape[1], arr.dtype):
                    raise LammpsError(
                        f"custom field {name!r} has mismatched shape/dtype "
                        "across replicas"
                    )
        custom = {
            name: np.concatenate([
                a.custom[name][: a.nlocal]
                if name in a.custom
                else np.zeros((a.nlocal, w), dtype=dt)
                for a in atoms
            ])
            for name, (w, dt) in specs.items()
        }

        def owned(name: str) -> np.ndarray:
            return np.concatenate([getattr(a, name)[: a.nlocal] for a in atoms])

        def per_atom(values) -> np.ndarray:
            return np.repeat(np.asarray(values), self._nlocal, axis=0)

        atom = self.atom = AtomVec(ntypes=max(a.ntypes for a in atoms))
        atom.replace_local(x=owned("x"), v=owned("v"), types=owned("type"),
                           tags=owned("tag"), q=owned("q"), custom=custom)
        # the very next initial half-kick reads the members' current forces
        atom.f[: atom.nlocal] = owned("f")
        atom.grow(sum(a.nall for a in atoms))  # the first epoch's rows, exactly

        # FixNVE's scalars and masses per atom, each member's own
        self._m_own = np.concatenate([a.mass[a.type[: a.nlocal]] for a in atoms])
        updates = [m.lmp.update for m in members]
        self._dt_col = per_atom([u.dt for u in updates])
        self._dtf_col = per_atom([0.5 * u.dt * u.units.ftm2v for u in updates])
        domains = [m.lmp.domain for m in members]  # each atom's box, to wrap into
        self._lo = per_atom([d.boxlo for d in domains])
        self._len = per_atom([d.lengths for d in domains])
        self._periodic = per_atom([d.periodic for d in domains])
        # each member's per-type-pair tables, flat, one block per member:
        # pair (i, j) reads entry base[i] + type[i] * width[i] + type[j];
        # ``_coef_used`` holds the entries the members' own types read
        tables = [m.lmp.pair.pair_tables() for m in members]
        self._coef = {name: np.concatenate([t[name].ravel() for t in tables]) for name in tables[0]}
        widths = [t["cutsq0"].shape[1] for t in tables]
        bases = np.add.accumulate([0] + [w * w for w in widths[:-1]])
        self._coef_used = np.concatenate([
            b + present_type_pairs(a.type[: a.nlocal], w) for b, w, a in zip(bases, widths, atoms)
        ])
        self._coef_base = per_atom(bases)
        self._coef_width = per_atom(widths)

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
        for m in self.members:
            m.last_step = m.lmp.update.ntimestep + nsteps
        for _ in range(nsteps):
            self._one_step()

    def _one_step(self) -> None:
        atom = self.atom
        for m in self.members:
            m.lmp.update.ntimestep += 1
        with _region("initial_integrate"):
            self._nve_initial()
        due = np.array([
            m.lmp.neighbor.decide(
                m.lmp.update.ntimestep, atom.x[m.own_off : m.own_off + m.nlocal]
            )
            for m in self.members
        ])
        if due.any():
            self._rebuild(due)
        else:
            with _region("forward_comm"):
                self._replay.forward_x(atom)
        due = [
            m
            for m in self.members
            if m.lmp.verlet.ev_set(m.lmp.update.ntimestep, m.last_step)
        ]
        with _region("pair_force"):
            self._force(due)
        with _region("final_integrate"):
            self._nve_final()
        for m in due:
            if m.lmp.thermo.should_output(m.lmp.update.ntimestep):
                self._sync_member(m)
                drain(m.lmp.thermo.output_gen())

    def _force(self, due: list[_Member]) -> None:
        """Stacked ``lj/cut``: the untallied pairwise pass, the due members'
        tallies, then the ghost-force fold when newton is on."""
        atom = self.atom
        env = self._env
        atom.zero_forces()
        env.update(x=atom.x[: atom.nall], f=atom.f)
        pairwise(env, False)
        if due:
            lj_energy(env)
            self._tally(due)
        if env["newton"]:
            self._replay.reverse(atom)

    # ------------------------------------------------------------ integrate
    def _nve_initial(self) -> None:
        atom = self.atom
        n = atom.nlocal
        v = atom.v[:n]
        # FixNVE's kick/drift with the member scalars broadcast per atom:
        # v += dtf * f / m ; x += dt * v — elementwise, so each replica's
        # rows see the identical solo operation sequence
        v += self._dtf_col[:, None] * atom.f[:n] / self._m_own[:, None]
        atom.x[:n] += self._dt_col[:, None] * v

    def _nve_final(self) -> None:
        atom = self.atom
        n = atom.nlocal
        atom.v[:n] += self._dtf_col[:, None] * atom.f[:n] / self._m_own[:, None]

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
        try:
            if due.any():
                drain(brick.exchange(atom, lambda x: wrap(x, self._lo, self._len, self._periodic)))
                # a box that is not due is back at its last build's (wrapped,
                # sorted) coordinates, so the sort leaves it as it is
                np.copyto(atom.x[:nown], built, where=keep)
                perm = spatial_sort_order(atom.x[:nown], brick.cutghost, self._nlocal)
                atom.reorder_local(perm)
                self._m_own = self._m_own[perm]
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
        except NeighborError as exc:
            if exc.box is None:
                raise
            m = members[exc.box]
            raise LammpsError(
                f"replica {m.index} failed its neighbor rebuild at step "
                f"{m.lmp.update.ntimestep}: {exc}"
            ) from exc
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
        ``j``-th row in ``order``) with each member's per-pair constants —
        the stacked executor of :func:`repro.graph.pairwise.pairwise`, whose
        arithmetic stays in ``potentials/lj.py``."""
        atom = self.atom
        nown = atom.nlocal
        i0, j_box = nlist.ij_pairs()
        first = np.add.accumulate(counts) - counts
        j0 = order.take(first.take(self._brick.box[:nown]).take(i0) + j_box)
        row = self._coef_base + atom.type[:nown] * self._coef_width
        _, list_style, newton, _ = self._sig
        full = list_style == "full"
        env = self._env = {
            # formula methods only: member coefficients are bound below
            "pair": self.members[0].lmp.pair,
            "i0": i0,  # owned, globally ascending
            "j0": j0,  # owned or ghost
            "jl0": None if full or newton else j0 < nown,
            "off": nlist.first[self._own_off],  # member pair offsets
            "full": full,
            "newton": newton,
            "f_view": None,
            "force_fn": lj_force,
            **type_pair_constants(self._coef, self._coef_used, row, atom.type, i0, j0),
        }

    # -------------------------------------------------------------- tallies
    def _tally(self, due: list[_Member]) -> None:
        """Solo ``ev_tally`` into each due member's own ``Pair``.

        The solo order per member: reset, then ``tally_pairs`` over its
        contiguous slice of the cut pair stream — the same length, values
        and contiguity as the solo reductions.
        """
        env = self._env
        bounds = np.searchsorted(env["idx"], env["off"])
        jl = env["jl_n"]
        for m in due:
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
