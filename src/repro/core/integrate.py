"""The Verlet integration driver (LAMMPS's ``Verlet`` run style).

``setup_gen``/``run_gen`` are generators so multi-rank runs can be advanced
in lockstep (see :mod:`repro.parallel.driver`); the per-step phase order is
LAMMPS's:

1. ``initial_integrate`` fixes (first Verlet half-kick + drift);
2. either a neighbor-list rebuild cycle (migrate -> borders -> build) or a
   cheap forward communication of ghost positions;
3. force computation (pair style), then ``post_force`` fixes;
4. reverse communication of ghost forces when Newton's third law is on;
5. ``final_integrate`` fixes (second half-kick), ``end_of_step`` fixes;
6. thermo output on its interval.

Energy and virial are tallied only on steps where something reads them
(:meth:`Verlet.ev_set`, LAMMPS's ``ev_set``); forces never depend on it.

Each stage runs under the matching :class:`repro.core.timer.PhaseTimer`
category (Pair/Neigh/Comm/Modify/Output), which both feeds the
thermo timing breakdown and opens an observability region on the rank's
track.  Categories are strictly sequential — never nested inside one
another — so the breakdown and the space-time-stack agree exactly.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.computes import ComputePE, ComputePressure
from repro.core.errors import LammpsError


class Verlet:
    """Integration loop bound to one Lammps instance."""

    def __init__(self, lmp) -> None:
        self.lmp = lmp

    # ------------------------------------------------------------- setup
    def setup_gen(self) -> Iterator[None]:
        lmp = self.lmp
        if lmp.pair is None:
            raise LammpsError("no pair style defined before run")
        lmp.pair.init()
        lmp.modify.init()
        yield from lmp.count_atoms_gen()
        yield from lmp.rebuild_gen()
        yield from self.force_cycle()
        with lmp.timer.phase("Output"):
            yield from lmp.thermo.output_gen(force=True)

    # -------------------------------------------------------------- force
    def ev_set(self, step: int, last_step: int) -> bool:
        """Whether ``step`` of a run ending at ``last_step`` tallies energy/virial.

        True iff a consumer exists: thermo prints a row on it, it is the
        run's last step (callers read ``pair.eng_vdwl`` after ``run``), or
        the user defined a ``compute pe``/``pressure`` — those may be read
        at any time, so conservatively every step.
        """
        lmp = self.lmp
        return (
            step == last_step
            or lmp.thermo.should_output(step)
            or any(
                isinstance(c, (ComputePE, ComputePressure))
                for c in lmp.modify.computes.values()
            )
        )

    def force_cycle(self, ev: bool = True) -> Iterator[None]:
        lmp = self.lmp
        with lmp.timer.phase("Pair"):
            lmp.atom.zero_forces()
            lmp.mark_host_writes("f")
            if hasattr(lmp.pair, "compute_gen"):
                # Styles with mid-compute communication (EAM's rho/fp exchanges,
                # ReaxFF's QEq) run as generators.  Their embedded comm is
                # credited to Pair, as LAMMPS does for in-style exchanges.
                yield from lmp.pair.compute_gen(eflag=ev, vflag=ev)
            else:
                lmp.pair.compute(eflag=ev, vflag=ev)
        with lmp.timer.phase("Comm"):
            lmp.sync_host_fields("f")
            # LAMMPS order: ghost forces return to their owners *before*
            # post-force fixes run, so fixes see complete forces.
            if lmp.pair.needs_reverse_comm:
                yield from lmp.comm_brick.reverse_comm(lmp.atom, "f")
        with lmp.timer.phase("Modify"):
            lmp.modify.post_force()
            lmp.mark_host_writes("f")

    # ---------------------------------------------------------------- run
    def run_gen(self, nsteps: int) -> Iterator[None]:
        lmp = self.lmp
        if nsteps < 0:
            raise LammpsError("negative step count")
        yield from self.setup_gen()
        last_step = lmp.update.ntimestep + nsteps
        for _ in range(nsteps):
            lmp.update.ntimestep += 1
            ev = self.ev_set(lmp.update.ntimestep, last_step)
            with lmp.timer.phase("Modify"):
                lmp.modify.initial_integrate()
                lmp.mark_host_writes("x", "v")
            # The rebuild decision is collective (LAMMPS allreduces the
            # check-distance flag): every rank must take the same branch or
            # the communication phases misalign.
            local_flag = lmp.neighbor.decide(
                lmp.update.ntimestep, lmp.atom.x[: lmp.atom.nlocal]
            )
            key = ("rebuild", lmp.update.ntimestep)
            with lmp.timer.phase("Comm"):
                lmp.world.reduce_contribute(key, float(local_flag))
                yield
                rebuild = lmp.world.reduce_result(key) > 0.0
            if rebuild:
                yield from lmp.rebuild_gen()
                lmp.mark_host_writes("x")
                yield from self.force_cycle(ev)
            else:
                with lmp.timer.phase("Comm"):
                    yield from lmp.comm_brick.forward_comm(lmp.atom)
                    lmp.mark_host_writes("x")
                yield from self.force_cycle(ev)
            with lmp.timer.phase("Modify"):
                lmp.modify.final_integrate()
                lmp.modify.end_of_step()
            with lmp.timer.phase("Output"):
                yield from lmp.thermo.output_gen()
