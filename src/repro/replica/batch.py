"""ReplicaBatch: R independent replicas stepped through one kernel set.

Small MD systems cannot saturate wide hardware — or, here, amortize Python
dispatch overhead.  Below the saturation size, throughput comes from running
*many systems per device* (Trott et al., PAPERS.md), so this engine packs R
independent single-rank :class:`~repro.core.Lammps` replicas into one
stacked :class:`~repro.core.atom.AtomVec` and advances them all with one
vectorized pass per step: one LJ/EAM force evaluation, one NVE
half-kick/drift, one ghost-comm replay — over arrays R times longer.

**Layout.**  The stacked array holds every replica's owned atoms first
(``[own_0 | own_1 | ...]``, so the "is j owned" predicate ``j < nlocal``
keeps its solo meaning), then every replica's ghosts.  Each member keeps
``(own_off, nlocal, ghost_off, nghost)`` segment offsets.  Cross-replica
pairs cannot exist *structurally*: neighbor lists are built per replica (by
the member's own unchanged rebuild machinery) and only then translated into
the stacked index space.

**Bitwise equivalence.**  Per-replica trajectories and thermo are bit-for-bit
identical to solo runs, enforced by ``tests/test_replica_batch.py``.  The
engine earns this by construction:

* the pair math is not replicated at all: the batch is one more executor
  of the solo stage functions (:mod:`repro.graph.pairwise`), run over the
  stacked ``i/j/cutsq/coefficient`` vectors, and the NVE kicks are
  elementwise, so each replica's rows see exactly the solo operation
  sequence;
* scatter adds accumulate per destination in input order in both
  ``atomic`` and ``segmented`` modes, and replica segments are disjoint, so
  concatenating streams never reorders any single destination's sum;
* reductions are the solo code's own: a member due for ``ev_tally`` (its
  own :meth:`~repro.core.integrate.Verlet.ev_set`) tallies into its own
  ``Pair`` over its contiguous slice of the cut pair stream, and a member
  due for thermo syncs its owned rows home and emits its own
  ``Thermo.output_gen`` row;
* ghost communication is the solo one-rank
  :class:`~repro.core.comm_md.GhostReplay`, built over every member's
  recorded swaps (aligned by swap index, ragged-safe), preserving each
  member's staged order — including the bucket-brigade multi-hop semantics.

**Epochs.**  Between neighbor rebuilds the stacked arrays are the truth.
Each rebuild epoch re-hoists: stale members get their owned state synced
back, run their own solo ``rebuild_gen`` (exchange/sort/borders/build), and
the stacked arrays, the pairwise env, and the ghost replay are rebuilt from
all members.  Per-replica neighbor staleness is tracked individually — one hot
replica rebuilding does not force the rest to.  Membership is fixed by the
caller (:meth:`repro.core.ReplicaSet.run`: ``add_replica`` × R, ``step``,
``finish``); the only way a member leaves early is a failed rebuild
(:attr:`ReplicaBatch.failures`).

Pair-style coverage is the closed set in ``HANDLERS`` (host ``lj/cut`` and
``eam/fs``); batchability violations raise with the shared
``errors.unknown_choice`` did-you-mean hint where the set is closed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.atom import AtomVec
from repro.core.comm_md import GhostReplay
from repro.core.errors import LammpsError, unknown_choice
from repro.graph.pairwise import PROLOGUE, pairwise_stages, run_stages
from repro.kokkos.core import Host
from repro.kokkos.segment import scatter_add
from repro.parallel.driver import drain
from repro.potentials.eam import eam_energy, eam_force_stages, gather_eam_coeffs
from repro.potentials.lj import lj_energy, lj_force
from repro.tools import registry as kp


# ------------------------------------------------------------------ members
@dataclass
class _Member:
    """One replica: its solo Lammps instance plus stacked-segment offsets."""

    lmp: "object"
    rid: int
    index: int = 0  #: position in the members list == stacking order
    own_off: int = 0
    nlocal: int = 0
    ghost_off: int = 0
    nghost: int = 0
    #: the member's last step of the current ``step(n)`` (``Verlet.ev_set``)
    last_step: int = 0


# ----------------------------------------------------------- force handlers
# The stacked executor of the pairwise pass: the stage functions of
# :mod:`repro.graph.pairwise` run over the whole batch's concatenated
# ``i/j/cutsq/coefficient`` vectors.  A handler only says which per-pair
# constants to stack and in which order the stages and the batch's own
# comm replays interleave; the pair arithmetic stays in ``potentials/``.
class _LJHandler:
    """Stacked ``lj/cut``: half list, newton per the global setting."""

    style = "lj/cut"

    @staticmethod
    def constants(pair, itype: np.ndarray, jtype: np.ndarray) -> dict:
        consts: dict = {}
        pair.eval_setup(consts, itype, jtype)
        return consts

    @staticmethod
    def bind(batch: "ReplicaBatch", env: dict) -> list:
        env["energy_fn"] = lj_energy
        stages, _ = pairwise_stages(Host, len(env["i0"]), batch.atom.nlocal, lj_force)
        return stages

    @staticmethod
    def force(batch: "ReplicaBatch", due: list[_Member]) -> None:
        atom = batch.atom
        env = batch._env
        atom.zero_forces()
        env.update(x=atom.x[: atom.nall], f=atom.f)
        run_stages(batch._pair_stages, env)
        if due:
            env["energy_fn"](env)
            batch._tally(due)
        if env["newton"]:
            batch._replay.reverse(atom)


class _EAMHandler:
    """Stacked ``eam/fs``: the solo half list with newton on — two-sided
    density, rho reverse, embed, fp forward, force, f reverse."""

    style = "eam/fs"

    @staticmethod
    def constants(pair, itype: np.ndarray, jtype: np.ndarray) -> dict:
        return pair.pair_coeffs(itype, jtype)

    @staticmethod
    def bind(batch: "ReplicaBatch", env: dict) -> list:
        atom = batch.atom
        env["energy_fn"] = eam_energy
        # per-owned-atom embedding strengths, each member's own table
        env["A_own"] = np.concatenate(
            [
                m.lmp.pair.embed_A[atom.type[m.own_off : m.own_off + m.nlocal]]
                for m in batch.members
            ]
        )
        stages, _ = eam_force_stages(Host, len(env["i0"]), atom.nlocal)
        return stages

    @staticmethod
    def force(batch: "ReplicaBatch", due: list[_Member]) -> None:
        atom = batch.atom
        env = batch._env
        pair = env["pair"]
        atom.zero_forces()
        nall = atom.nall
        atom.rho[:nall] = 0.0
        atom.fp[:nall] = 0.0
        env.update(x=atom.x[:nall], f=atom.f, fp=atom.fp)
        for fn in PROLOGUE:
            fn(env)
        gather_eam_coeffs(env, env)
        # loop 1: electron density, each bond to both ends, ghost ends home
        d = pair.dens(env["r_n"], env["rc_n"])
        scatter_add(atom.rho, env["i_n"], d, assume_sorted=True)
        scatter_add(atom.rho, env["j_n"], d)
        batch._replay.reverse(atom, "rho")
        nown = atom.nlocal
        rho_own = atom.rho[:nown]
        A = env["A_own"]
        atom.fp[:nown] = pair.dembed(rho_own, A)
        # figure 1's "additional communication": ghost fp before the force loop
        batch._replay.forward_fields(atom, ("fp",))
        run_stages(batch._pair_stages, env)
        if due:
            env["energy_fn"](env)
            batch._tally(due, embed=(rho_own, A))
        batch._replay.reverse(atom)


HANDLERS = {h.style: h for h in (_LJHandler, _EAMHandler)}


# ---------------------------------------------------------------- the batch
class ReplicaBatch:
    """R single-rank replicas packed into one stacked AtomVec.

    Usage::

        batch = ReplicaBatch()
        rid = batch.add_replica(lmp)    # lmp fully set up (pair, fix nve...)
        batch.step(100)                  # all replicas advance together
        batch.finish()                   # final state synced back to each lmp

    Members may be at different timesteps, sizes, dt, thermo intervals, and
    neighbor policies; they must share one pair style (and newton setting).
    Thermo rows land in each member's own ``lmp.thermo.history``, exactly as
    a solo run would record them.
    """

    def __init__(self, label: str = "replica") -> None:
        self.label = label
        self.members: list[_Member] = []
        self.atom: AtomVec | None = None
        #: ``(rid, exception)`` pairs from members dropped by a failed
        #: rebuild — the fail-open path: the batch keeps stepping the rest,
        #: and :meth:`repro.core.ReplicaSet.run` raises the first one.
        self.failures: list[tuple[int, Exception]] = []
        self._next_rid = 0
        self._sig: tuple | None = None
        self._handler = None
        self._newton = False
        self._replay: GhostReplay | None = None
        self._env: dict = {}  #: stacked pairwise env, rebuilt every epoch
        self._pair_stages: list = []  #: the handler's pairwise stage list
        self._m_own = np.zeros(0)
        self._dt_col = np.zeros(0)
        self._dtf_col = np.zeros(0)

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.members)

    # ------------------------------------------------------------ admission
    def add_replica(self, lmp) -> int:
        """Fold a fully configured Lammps instance into the batch.

        Runs the member's own solo setup (pair init, neighbor build, initial
        forces, the forced step-0 thermo row — exactly ``run 0``'s prologue),
        then re-hoists the stacked arrays.  Joining mid-flight is the same
        operation: running members sync to their solo instances first, so
        the new epoch stacks everyone's current truth.
        """
        sig = self._validate(lmp)
        if self.members and sig != self._sig:
            raise LammpsError(
                f"replica signature mismatch: batch runs {self._sig}, "
                f"new member wants {sig} (pair style and newton must match)"
            )
        if self.members:
            self._sync_all_owned()
        with kp.kernel_scope(self.label):
            drain(lmp.verlet.setup_gen())
        lmp.world.assert_drained()
        m = _Member(lmp=lmp, rid=self._next_rid)
        self._next_rid += 1
        self.members.append(m)
        self._sig = sig
        self._handler = HANDLERS[sig[0]]
        self._newton = sig[2]
        self._hoist()
        return m.rid

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
        if style not in HANDLERS or getattr(pair, "kokkos_style", False):
            raise LammpsError(
                unknown_choice("replica pair style", style, tuple(sorted(HANDLERS)))
            )
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
        if lmp.kspace is not None:
            raise LammpsError("replica members cannot use kspace styles")
        if lmp.dumps:
            raise LammpsError("replica members cannot have dumps attached")
        if lmp.autotuner is not None or lmp.autotune_request is not None:
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

    def _reset_empty(self) -> None:
        self.atom = None
        self._replay = None
        self._env = {}
        self._pair_stages = []
        self._m_own = self._dt_col = self._dtf_col = np.zeros(0)

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

    def _sync_all_owned(self) -> None:
        if self.atom is not None:
            for m in self.members:
                self._sync_member(m)

    # -------------------------------------------------------------- hoisting
    def _hoist(self) -> None:
        """Rebuild the stacked epoch state from the members' solo truth:
        owned rows, ghosts, ghost replay, pair plans and the per-atom
        integration constants."""
        members = self.members
        nown = 0
        for idx, m in enumerate(members):
            a = m.lmp.atom
            m.index = idx
            m.own_off = nown
            m.nlocal = a.nlocal
            m.nghost = a.nghost
            nown += a.nlocal
        ghost_off = nown
        for m in members:
            m.ghost_off = ghost_off
            ghost_off += m.nghost

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

        for m in members:
            a = m.lmp.atom
            atom.add_ghosts(
                {
                    "x": a.x[a.nlocal : a.nall],
                    "tag": a.tag[a.nlocal : a.nall],
                    "type": a.type[a.nlocal : a.nall],
                    "q": a.q[a.nlocal : a.nall],
                }
            )

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
            [
                (m.lmp.comm_brick.swaps, lambda idx, m=m: self._map_local(m, idx))
                for m in members
            ],
            atom.reorder_generation,
            atom.nall,
        )
        self._build_pair_env()
        # refresh every member's ghost positions from the stacked owned rows
        # (idempotent for just-rebuilt members: ghosts are pure functions of
        # owned x + shift, so the replay reproduces their current bits)
        self._replay.forward_x(atom)

    def _map_local(self, m: _Member, idx: np.ndarray) -> np.ndarray:
        """Member-local indices (owned + ghost) -> stacked indices."""
        return np.where(
            idx < m.nlocal, m.own_off + idx, m.ghost_off + (idx - m.nlocal)
        )

    def _build_pair_env(self) -> None:
        """Stack every member's stored pairs and per-pair constants into the
        env the pairwise stage functions run over (one per epoch)."""
        handler = self._handler
        i_parts, j_parts, cut_parts, const_parts = [], [], [], []
        off = [0]
        for m in self.members:
            lmp = m.lmp
            i_l, j_l, itype, jtype, cutsq = lmp.pair.pair_table(lmp.neigh_list, lmp.atom)
            off.append(off[-1] + i_l.shape[0])
            i_parts.append(m.own_off + i_l.astype(np.int64))
            j_parts.append(self._map_local(m, j_l.astype(np.int64)))
            cut_parts.append(cutsq)
            const_parts.append(handler.constants(lmp.pair, itype, jtype))
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
        self._pair_stages = handler.bind(self, env)

    # ------------------------------------------------------------- stepping
    @contextmanager
    def _kernel(self, name: str, work: int) -> Iterator[None]:
        if not kp.TOOLS:
            yield
            return
        kid = kp.begin_kernel(
            "parallel_for", f"{self.label}/{name}", "Host", work_items=float(work)
        )
        try:
            yield
        finally:
            kp.end_kernel(kid, None, 0.0)

    def step(self, nsteps: int = 1) -> None:
        """Advance every live replica ``nsteps`` timesteps."""
        if nsteps < 0:
            raise LammpsError("negative step count")
        for m in self.members:
            m.last_step = m.lmp.update.ntimestep + nsteps
        for _ in range(nsteps):
            if not self.members:
                return
            self._one_step()

    def _one_step(self) -> None:
        atom = self.atom
        for m in self.members:
            m.lmp.update.ntimestep += 1
        with self._kernel("initial_integrate", atom.nlocal):
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
            if not self.members:
                return
            atom = self.atom
        else:
            with self._kernel("forward_comm", atom.nghost):
                self._replay.forward_x(atom)
        due = [
            m
            for m in self.members
            if m.lmp.verlet.ev_set(m.lmp.update.ntimestep, m.last_step)
        ]
        with self._kernel("pair_force", len(self._env["i0"])):
            self._handler.force(self, due)
        with self._kernel("final_integrate", atom.nlocal):
            self._nve_final()
        for m in due:
            if m.lmp.thermo.should_output(m.lmp.update.ntimestep):
                self._sync_member(m)
                drain(m.lmp.thermo.output_gen())

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

        Each stale member syncs its stacked state home and runs its own solo
        ``rebuild_gen`` (exchange, spatial sort, borders, list build) — the
        unchanged machinery, so list contents and atom order match a solo
        run exactly.  A member whose rebuild raises is dropped fail-open:
        its ``(rid, exception)`` lands in :attr:`failures` and the batch
        keeps stepping everyone else.
        """
        self._sync_all_owned()
        failed: list[tuple[_Member, Exception]] = []
        for m in stale:
            try:
                with kp.kernel_scope(self.label):
                    drain(m.lmp.rebuild_gen())
                m.lmp.world.assert_drained()
            except Exception as exc:  # noqa: BLE001 — fail-open by design
                failed.append((m, exc))
        for m, exc in failed:
            self.failures.append((m.rid, exc))
            self.members.remove(m)
        if not self.members:
            self._reset_empty()
            return
        self._hoist()

    # -------------------------------------------------------------- tallies
    def _tally(self, due: list[_Member], *, embed: tuple | None = None) -> None:
        """Solo ``ev_tally`` into each due member's own ``Pair``.

        The solo order per member: reset, the EAM embedding sum over its
        owned rows (``embed = (rho_own, A_own)``), then ``tally_pairs`` over
        its contiguous slice of the cut pair stream — the same length,
        values and contiguity as the solo reductions.
        """
        env = self._env
        bounds = np.searchsorted(env["idx"], env["off"])
        jl = env["jl_n"]
        for m in due:
            pair = m.lmp.pair
            pair.reset_tallies(True)
            if embed is not None:
                own = slice(m.own_off, m.own_off + m.nlocal)
                pair.eng_vdwl += float(pair.embed(embed[0][own], embed[1][own]).sum())
            cut = slice(bounds[m.index], bounds[m.index + 1])
            pair.tally_pairs(
                env["evdwl_n"][cut],
                env["dx_n"][cut],
                env["fvec_n"][cut],
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
        self._sync_all_owned()
