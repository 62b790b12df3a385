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
keeps its solo meaning), then every replica's ghosts *stage-major*: swap 0's
ghosts of every member, then swap 1's, and so on, so each stage of the
stacked ghost replay writes one contiguous slice.  Each member keeps its
``(own_off, nlocal)`` owned segment and a ``lookup`` table from its local
indices (owned and ghost) to stacked rows.  Cross-replica pairs cannot exist
*structurally*: the stale members' lists are built in one pass in which each
member is a box of its own (DESIGN §3.3), and only then translated into the
stacked index space through ``lookup``.

**Bitwise equivalence.**  Per-replica trajectories and thermo are bit-for-bit
identical to solo runs, enforced by ``tests/test_replica_batch.py``.  The
engine earns this by construction:

* the pair math is not replicated at all: the batch is one more executor
  of the solo stage functions (:mod:`repro.graph.pairwise`), run over the
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
* ghost communication is the solo one-rank
  :class:`~repro.core.comm_md.GhostReplay`, built over every member's
  recorded swaps (aligned by swap index, ragged-safe), preserving each
  member's staged order — including the bucket-brigade multi-hop semantics.

**Epochs.**  Members join before the first step; the first ``step``
stacks them once.  Between neighbor rebuilds the stacked arrays are the
truth.  Each rebuild epoch re-hoists: every member syncs its owned state
back, each stale one runs its own solo ``migrate_gen`` (exchange, sort,
borders), then one bin grid and one list build serve every stale member,
and the stacked arrays, the pairwise env, and the ghost replay are rebuilt
from all members.  Per-replica neighbor staleness is tracked individually —
one hot replica rebuilding does not force the rest to.  A member whose
rebuild raises stops the step with a
:class:`~repro.core.errors.LammpsError` naming the replica and the step.

The batched pair style is host ``lj/cut`` (the one style a replica
workload runs); batchability violations raise with the shared
``errors.unknown_choice`` did-you-mean hint where the set is closed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.atom import BORDER_FIELDS, AtomVec
from repro.core.comm_md import GhostReplay
from repro.core.errors import LammpsError, unknown_choice
from repro.core.neighbor import build_neighbor_list
from repro.graph.pairwise import ARENA, pairwise_stages, run_stages
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
    #: member-local index (owned + ghost) -> stacked row, per epoch
    lookup: np.ndarray | None = None
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
    policy; they run host ``lj/cut`` with one newton setting.  Thermo rows
    land in each member's own ``lmp.thermo.history``, exactly as a solo run
    would record them.
    """

    def __init__(self) -> None:
        self.members: list[_Member] = []
        #: the stacked AtomVec, built by the first :meth:`step`
        self.atom: AtomVec | None = None
        self._sig: tuple | None = None
        self._replay: GhostReplay | None = None
        self._env: dict = {}  #: stacked pairwise env, rebuilt every epoch
        self._pair_stages: list = []  #: the pairwise stage list

    # ------------------------------------------------------------ admission
    def add_replica(self, lmp) -> None:
        """Validate a fully configured Lammps instance and run its own solo
        setup: pair init, neighbor build, initial forces and the forced
        step-0 thermo row — exactly ``run 0``'s prologue.  Members join
        before the first :meth:`step`, which stacks them."""
        if self.atom is not None:
            raise LammpsError("replica members must join before the first step")
        sig = self._validate(lmp)
        if self.members and sig != self._sig:
            raise LammpsError(
                f"replica signature mismatch: batch runs {self._sig}, "
                f"new member wants {sig} (pair style and newton must match)"
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
        n = m.nlocal
        sl = slice(m.own_off, m.own_off + n)
        st = self.atom
        a.x[:n] = st.x[sl]
        a.v[:n] = st.v[sl]
        a.f[:n] = st.f[sl]
        a.q[:n] = st.q[sl]
        for name, arr in a.custom.items():
            arr[:n] = st.custom[name][sl]

    # -------------------------------------------------------------- hoisting
    def _hoist(self) -> None:
        """Rebuild the stacked epoch state from the members' solo truth:
        owned rows, ghosts, ghost replay, pair plans and the per-atom
        integration constants."""
        members = self.members
        nown = nghost = 0
        gbase = []  # each member's ghost block in the members' concatenation
        for m in members:
            a = m.lmp.atom
            m.own_off, m.nlocal = nown, a.nlocal
            gbase.append(nghost)
            nown += a.nlocal
            nghost += a.nghost
        # the ghosts stage-major: swap k's receive of every member in turn,
        # so each stage of the stacked replay is one slice
        runs = [
            (base + sw.firstrecv - m.nlocal, sw.nrecv)
            for k in range(max(len(m.lmp.comm_brick.swaps) for m in members))
            for m, base in zip(members, gbase)
            for sw in m.lmp.comm_brick.swaps[k : k + 1]
        ]
        starts, counts = np.array(runs, dtype=np.int64).reshape(-1, 2).T
        # stacked ghost p is concatenated ghost perm[p]; rank inverts it
        perm = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        perm += np.arange(nghost)
        rank = np.empty(nghost, dtype=np.int64)
        rank[perm] = np.arange(nown, nown + nghost)
        for m, base in zip(members, gbase):
            m.lookup = np.concatenate([
                np.arange(m.own_off, m.own_off + m.nlocal),
                rank[base : base + m.lmp.atom.nghost],
            ])

        atom = AtomVec(ntypes=max(m.lmp.atom.ntypes for m in members))
        specs: dict[str, tuple[int, np.dtype]] = {}
        for m in members:
            for name, arr in m.lmp.atom.custom.items():
                spec = (arr.shape[1], arr.dtype)
                if specs.setdefault(name, spec) != spec:
                    raise LammpsError(
                        f"custom field {name!r} has mismatched shape/dtype "
                        "across replicas"
                    )
        custom = {
            name: np.concatenate(
                [
                    m.lmp.atom.custom[name][: m.nlocal]
                    if name in m.lmp.atom.custom
                    else np.zeros((m.nlocal, w), dtype=dt)
                    for m in members
                ]
            )
            for name, (w, dt) in specs.items()
        }
        atom.replace_local(
            x=np.concatenate([m.lmp.atom.x[: m.nlocal] for m in members]),
            v=np.concatenate([m.lmp.atom.v[: m.nlocal] for m in members]),
            types=np.concatenate(
                [m.lmp.atom.type[: m.nlocal] for m in members]
            ),
            tags=np.concatenate([m.lmp.atom.tag[: m.nlocal] for m in members]),
            q=np.concatenate([m.lmp.atom.q[: m.nlocal] for m in members]),
            custom=custom,
        )
        # carry the members' current forces: the very next initial
        # half-kick reads them (replace_local does not take f)
        atom.f[:nown] = np.concatenate(
            [m.lmp.atom.f[: m.nlocal] for m in members]
        )
        self.atom = atom

        # one gather per field, over the members' concatenated ghost blocks
        atom.add_ghosts({
            name: np.take(
                np.concatenate([
                    getattr(m.lmp.atom, name)[m.nlocal : m.lmp.atom.nall]
                    for m in members
                ]),
                perm,
                axis=0,
            )
            for name in BORDER_FIELDS
        })

        # per-atom integration constants (FixNVE's scalars, per member)
        self._m_own = np.concatenate(
            [
                m.lmp.atom.mass[atom.type[m.own_off : m.own_off + m.nlocal]]
                for m in members
            ]
        )
        self._dt_col = np.concatenate(
            [np.full(m.nlocal, m.lmp.update.dt) for m in members]
        )
        self._dtf_col = np.concatenate(
            [
                np.full(
                    m.nlocal, 0.5 * m.lmp.update.dt * m.lmp.update.units.ftm2v
                )
                for m in members
            ]
        )

        self._replay = GhostReplay(
            [(m.lmp.comm_brick.swaps, m.lookup.take) for m in members],
            atom.reorder_generation,
            atom.nall,
        )
        self._build_pair_env()
        # refresh every member's ghost positions from the stacked owned rows
        # (idempotent for just-rebuilt members: ghosts are pure functions of
        # owned x + shift, so the replay reproduces their current bits)
        self._replay.forward_x(atom)

    def _build_pair_env(self) -> None:
        """Stack every member's stored pairs and per-pair constants into the
        env the pairwise stage functions run over (one per epoch).  The
        stacked executor of the pairwise pass: the stage functions of
        :mod:`repro.graph.pairwise` over the whole batch's concatenated
        ``i/j/cutsq/coefficient`` vectors; the pair arithmetic stays in
        ``potentials/lj.py``."""
        i_parts, j_parts, cut_parts, const_parts = [], [], [], []
        off = [0]
        for m in self.members:
            lmp = m.lmp
            i_l, j_l, itype, jtype, cutsq = lmp.pair.pair_table(lmp.neigh_list, lmp.atom)
            off.append(off[-1] + i_l.shape[0])
            i_parts.append(m.own_off + i_l.astype(np.int64))
            j_parts.append(np.take(m.lookup, j_l))
            cut_parts.append(cutsq)
            consts: dict = {}
            lmp.pair.eval_setup(consts, itype, jtype)
            const_parts.append(consts)
        _, list_style, newton = self._sig
        full = list_style == "full"
        j0 = np.concatenate(j_parts)
        env = self._env = {
            # formula methods only: member coefficients travel as vectors
            "pair": self.members[0].lmp.pair,
            "i0": np.concatenate(i_parts),  # owned, globally ascending
            "j0": j0,  # owned or ghost
            "cutsq0": np.concatenate(cut_parts),
            "jl0": None if full or newton else j0 < self.atom.nlocal,
            "off": np.asarray(off, dtype=np.int64),  # member pair offsets
            "full": full,
            "newton": newton,
            "f_view": None,
        }
        for name in const_parts[0]:
            env[name] = np.concatenate([c[name] for c in const_parts])
            assert len(env[name]) == len(j0), name  # gathered unchecked by idx
        self._pair_stages, _ = pairwise_stages(lj_force)

    # ------------------------------------------------------------- stepping
    def step(self, nsteps: int = 1) -> None:
        """Advance every replica ``nsteps`` timesteps; the first call stacks
        the members."""
        if nsteps < 0:
            raise LammpsError("negative step count")
        if self.atom is None:
            self._hoist()
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
        stale = [
            m
            for m in self.members
            if m.lmp.neighbor.decide(
                m.lmp.update.ntimestep,
                atom.x[m.own_off : m.own_off + m.nlocal],
            )
        ]
        if stale:
            self._rebuild(stale)
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
        """Stacked ``lj/cut``: the pairwise stages, the due members'
        tallies, then the ghost-force fold when newton is on."""
        atom = self.atom
        env = self._env
        atom.zero_forces()
        env.update(x=atom.x[: atom.nall], f=atom.f)
        run_stages(self._pair_stages, env)
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
    def _rebuild(self, stale: list[_Member]) -> None:
        """Re-neighbor the stale members only, then re-hoist the epoch.

        Every member syncs its stacked state home; each stale one runs its
        own solo ``migrate_gen`` (exchange, spatial sort, borders) — the
        unchanged machinery, so atom order matches a solo run exactly —
        then :meth:`_build_lists`.  A rebuild that raises stops the batch.
        """
        for m in self.members:
            self._sync_member(m)
        for m in stale:
            try:
                drain(m.lmp.migrate_gen())
                m.lmp.world.assert_drained()
            except Exception as exc:
                raise LammpsError(
                    f"replica {m.index} failed its neighbor rebuild at step "
                    f"{m.lmp.update.ntimestep}: {exc}"
                ) from exc
        self._build_lists(stale)
        self._hoist()

    def _build_lists(self, stale: list[_Member]) -> None:
        """One bin grid and one list build over the stale members' atoms,
        each member a box of its own (its solo geometry and order), per
        ghost cutoff they share; each member gets its slice of the one list
        as its own ``neigh_list`` and records the build, as solo does."""
        ARENA.release()  # the pairwise scratch is dead between force calls
        _, style, newton = self._sig
        by_cut: dict[float, list[_Member]] = {}
        for m in stale:
            by_cut.setdefault(m.lmp.comm_brick.cutghost, []).append(m)
        for cutghost, group in by_cut.items():
            atoms = [m.lmp.atom for m in group]
            x = np.concatenate([a.x[: a.nall] for a in atoms])
            boxes = np.array([(a.nlocal, a.nall) for a in atoms])
            nlist = build_neighbor_list(x, boxes, cutghost, style=style, newton=newton)
            for m, a, part in zip(group, atoms, nlist.split(boxes[:, 0])):
                m.lmp.bin_grid = None  # the grid was the batch's
                m.lmp.neigh_list = part
                m.lmp.neighbor.record_build(m.lmp.update.ntimestep, a.x[: a.nlocal])

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
