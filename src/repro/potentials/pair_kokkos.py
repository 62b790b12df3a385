"""The ``pair_kokkos`` abstraction (paper section 4.1).

"In the KOKKOS package, most two-body forces are implemented through a
pair_kokkos abstraction.  Each two-body pair style derives from a base
PairKokkos class ... The derived class implements its own kernels that only
compute the pairwise force and, if required, energy for the specific
potential form.  The base class handles all other details: neighbor list
style, managing ScatterView objects, radial cutoff calculations,
accumulating forces and energies."

The base implemented here is exactly that: a derived style supplies its
formula through the one ``eval_setup`` hook (its force and energy halves,
as ``LJMixin`` does) and the base runs the shared pairwise pass
(:mod:`repro.graph.pairwise`) inside one charged dispatch, in any of the
section 4.1 configurations:

* ``neigh full`` (default on Device) — duplicated work, no write conflicts;
* ``neigh half`` — ScatterView-deconflicted accumulation (atomics on
  Device, duplication on Host), optional ``newton on`` ghost reduction;
* ``team on`` — hierarchical parallelism over each atom's neighbors, the
  small-problem optimization of figure 2a.

Each launch charges a :class:`KernelProfile` assembled from the *measured*
workload (stored pairs, in-cutoff fraction, neighbor statistics), so the
figure 2 benchmarks read model time grounded in functional runs.
"""

from __future__ import annotations

import repro.kokkos as kk
from repro.core.errors import InputError
from repro.graph.pairwise import pairwise
from repro.kokkos.core import Device, Host
from repro.potentials.pair import Pair

#: FP64 operations per attempted pair in a generic cheap pair kernel
#: (distance, cutoff test, powers, force/energy assembly).
FLOPS_PER_PAIR = 23.0
#: Per-atom overhead flops (loop setup, force reduction).
FLOPS_PER_ATOM = 12.0


class PairKokkos(Pair):
    """Generic Kokkos pairwise base."""

    kokkos_style = True
    #: Per-neighbor L1 working-set contribution, bytes: gathered neighbor
    #: coordinates stay hot across consecutive atoms sharing bins (~40 atoms'
    #: rows touch overlapping coordinate sets).
    l1_bytes_per_neighbor = 200.0
    #: Force-array atomics hit conflicting destinations (every neighbor of
    #: an atom updates the same row), serializing relative to the device's
    #: distributed-atomic rate.
    atomic_conflict_factor = 4.0
    #: Irregular neighbor gathers vectorize poorly on CPUs.
    cpu_efficiency = 0.05

    def __init__(self, lmp, args: list[str], execution_space: str = "device") -> None:
        super().__init__(lmp, args, execution_space)
        # Section 4.1 defaults: full list / newton off on GPUs, half list /
        # newton on for CPU-resident execution.
        self.neigh_mode = "full" if self.execution_space is Device else "half"
        self.newton_mode = self.execution_space is Host
        self.team_mode = False

    # ------------------------------------------------------------- options
    def set_options(
        self,
        *,
        neigh: str | None = None,
        newton: bool | None = None,
        team: bool | None = None,
    ) -> None:
        """Select the kernel configuration (the figure 2 experiment knobs)."""
        if neigh is not None:
            if neigh not in ("half", "full"):
                raise InputError(f"neigh option must be half/full, got {neigh!r}")
            self.neigh_mode = neigh
        if newton is not None:
            self.newton_mode = newton
        if team is not None:
            self.team_mode = team
        if self.neigh_mode == "full" and self.newton_mode:
            raise InputError("newton on requires a half neighbor list")

    def neighbor_request(self) -> tuple[str, bool]:
        return self.neigh_mode, self.newton_mode

    # ------------------------------------------------------------- kernels

    def _compute_pairs(self, eflag: bool, vflag: bool) -> None:
        """The Kokkos executor: one charged whole-kernel dispatch whose
        functor runs the pass."""
        lmp = self.lmp
        atom = lmp.atom
        atom_kk = lmp.atom_kk
        nlist = lmp.neigh_list
        space = self.execution_space

        # Datamask protocol (section 3.2): sync reads, then compute on the
        # space's views, then mark writes.
        atom_kk.sync(space, ("x", "type", "f"))
        env = self.pair_kernel()
        # the half list deconflicts through a ScatterView over the f View
        f_view = env["f_view"] = atom_kk.view("f", space)
        env["x"] = atom_kk.view("x", space).data[: atom.nall]
        env["f"] = f_view.data
        env["atomic_adds"] = 0
        env["duplicated_bytes"] = 0.0
        tally = eflag or vflag

        kk.parallel_for(
            self.kernel_name(),
            self._policy(atom.nlocal, nlist.mean_neighbors),
            lambda idx: pairwise(env, tally),
            # resolved after the functor ran: the cost profile is
            # assembled from the *measured* cut pairs and atomics
            profile=lambda: self.kernel_profile(
                natoms=atom.nlocal,
                stored_pairs=len(env["i0"]),
                cut_pairs=int(env["idx"].size),
                mean_neighbors=nlist.mean_neighbors,
                atomic_adds=env["atomic_adds"],
                duplicated_bytes=env["duplicated_bytes"],
            ),
        )
        atom_kk.modified(space, ("f",))

    def _policy(self, natoms: int, mean_neighbors: float):
        if self.team_mode:
            # Hierarchical parallelism: a team per atom, lanes over
            # neighbors (section 4.1's small-problem optimization).
            vector = int(min(max(mean_neighbors, 1.0), 32.0))
            return kk.TeamPolicy(self.execution_space, natoms, 1, vector)
        return kk.RangePolicy(self.execution_space, 0, natoms)

    def kernel_profile(
        self,
        *,
        natoms: int,
        stored_pairs: int,
        cut_pairs: int,
        mean_neighbors: float,
        atomic_adds: int,
        duplicated_bytes: float = 0.0,
    ) -> kk.KernelProfile:
        """Cost profile from measured workload statistics."""
        convergent = cut_pairs / max(stored_pairs, 1)
        flops = FLOPS_PER_PAIR * stored_pairs + FLOPS_PER_ATOM * natoms
        bytes_streamed = 4.0 * stored_pairs + 48.0 * natoms  # idx + x/f rows
        if self.team_mode:
            # The more complex iteration pattern costs lane efficiency and
            # splits per-atom streams across lanes (figure 2a's large-N
            # penalty for the extra parallelism).
            convergent *= 0.8
            bytes_streamed *= 1.25
        bytes_reusable = 24.0 * stored_pairs  # gathered neighbor coordinates
        parallel = float(natoms)
        if self.team_mode:
            parallel *= min(max(mean_neighbors, 1.0), 32.0)
        return kk.KernelProfile(
            name=self.kernel_name(),
            flops=flops,
            bytes_streamed=bytes_streamed,
            bytes_reusable=bytes_reusable,
            l1_working_set_kb=self.l1_bytes_per_neighbor
            * max(mean_neighbors, 1.0)
            * 40.0
            / 1024.0,
            l2_working_set_mb=72.0 * natoms / 1e6,
            atomic_ops=float(atomic_adds) * self.atomic_conflict_factor,
            duplicated_bytes=duplicated_bytes,
            parallel_items=parallel,
            convergent_fraction=convergent,
            cpu_efficiency=self.cpu_efficiency,
        )
