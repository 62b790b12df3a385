"""The per-rank LAMMPS facade.

A :class:`Lammps` object is what one MPI rank holds in real LAMMPS: the
atom arrays for its subdomain, the domain/neighbor/communication machinery,
the active styles, and the input-script interpreter.  Single-rank scripts
drive it directly::

    lmp = Lammps(device="H100")
    lmp.commands_string(MELT_SCRIPT)
    lmp.run(100)

Multi-rank runs wrap several instances in an :class:`Ensemble`, which
broadcasts commands and advances the per-rank run generators in lockstep.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.atom import AtomVec
from repro.core.atom_kokkos import AtomKokkos
from repro.core.computes import Compute
from repro.core.domain import BlockRegion, Domain, Lattice
from repro.core.errors import InputError, LammpsError
from repro.core.integrate import Verlet
from repro.core.modify import Modify
from repro.core.bin_grid import BinGrid, spatial_sort_order
from repro.core.neighbor import Neighbor, build_neighbor_list
from repro.core.styles import resolve_style
from repro.core.thermo import Thermo
from repro.core.timer import CATEGORIES, PhaseTimer
from repro.core.update import Update
from repro.core.velocity import maxwell_table
from repro.graph.pairwise import ARENA
from repro.core.comm_md import CommBrick
from repro.parallel.comm import SimComm, SimWorld
from repro.parallel.decomp import BrickDecomposition
from repro.parallel.driver import drain, lockstep
from repro.tools import registry as kp
import repro.kokkos as kk


class Lammps:
    """One rank's simulation state plus the command interpreter."""

    def __init__(
        self,
        device: str | None = "H100",
        *,
        world: SimWorld | None = None,
        rank: int = 0,
        suffix: str | None = None,
        quiet: bool = True,
    ) -> None:
        self.world = world or SimWorld(1)
        self.comm: SimComm = self.world.comm(rank)
        self.device = device
        if world is None or rank == 0:
            # The Kokkos runtime is process-global; first rank configures it.
            kk.initialize(device)
        self.suffix: str | None = suffix
        self.update = Update.create("lj")
        self.domain = Domain()
        self.atom: AtomVec | None = None
        self.atom_kk: AtomKokkos | None = None
        self.decomp: BrickDecomposition | None = None
        self.comm_brick: CommBrick | None = None
        self.neighbor = Neighbor(skin=self.update.units.skin)
        self.neigh_list = None
        #: Per-rebuild shared bin grid (largest cutoff); every list built
        #: for the same configuration reuses it instead of re-binning.
        self.bin_grid: BinGrid | None = None
        #: ``atom_modify sort <every> <binsize>``: reorder owned atoms into
        #: bin-major order every Nth rebuild (0 disables).  Default on, as
        #: in LAMMPS, for cache locality in every downstream gather.
        self.sort_every = 1
        self.sort_binsize = 0.0  # 0 -> use the ghost cutoff
        self.pair = None
        self.kspace = None
        self.modify = Modify()
        self.thermo = Thermo(self, quiet=quiet)
        #: Per-category modeled-time breakdown (the thermo "MPI task timing
        #: breakdown"); also opens observability regions per phase.
        self.timer = PhaseTimer(self.world)
        self.verlet = Verlet(self)
        self.lattice: Lattice | None = None
        self.regions: dict[str, BlockRegion] = {}
        self.groups: dict[str, tuple[str, tuple]] = {"all": ("all", ())}
        self.variables: dict[str, float | str] = {}
        self.dumps: dict[str, "object"] = {}
        self.newton_pair = True
        self.min_style = "fire"
        self.last_minimize = None
        #: `package kokkos` tuning knobs (applied at pair init)
        self.package_kokkos: dict = {}
        #: Runtime autotuner (``package autotune on`` / ``--autotune``):
        #: either an Autotuner instance, or an option dict built lazily into
        #: one on the first run.  Fires once, before any timestep.
        self.autotuner = None
        self.autotune_request: dict | None = None
        #: Compact winning-config label (the thermo ``tune`` column).
        self.tune_label: str | None = None
        self.last_run_stats: dict = {}
        self.natoms_total = 0
        self._internal_computes: dict[str, Compute] = {}
        self._input = None  # created lazily to avoid import cycle

    # ----------------------------------------------------------- identity
    @property
    def comm_rank(self) -> int:
        return self.comm.rank

    @property
    def comm_size(self) -> int:
        return self.comm.size

    # -------------------------------------------------------------- input
    def command(self, line: str) -> None:
        """Execute one input-script command."""
        if self._input is None:
            from repro.core.input import Input

            self._input = Input(self)
        self._input.one(line)

    def commands_string(self, text: str) -> None:
        if self._input is None:
            from repro.core.input import Input

            self._input = Input(self)
        self._input.string(text)

    def file(self, path: str) -> None:
        with open(path) as fh:
            self.commands_string(fh.read())

    # --------------------------------------------------------------- box
    def create_box(self, ntypes: int, region: BlockRegion) -> None:
        if self.atom is not None:
            raise InputError("simulation box already exists")
        self.domain.set_box(region.lo, region.hi)
        self.atom = AtomVec(ntypes)
        # Always present: in a pure-host build the DualViews alias one
        # allocation and the sync machinery costs nothing (section 3.2),
        # so /kk styles keep working without a device.
        self.atom_kk = AtomKokkos(self.atom)
        self.decomp = BrickDecomposition.create(
            tuple(self.domain.boxlo), tuple(self.domain.boxhi), self.comm_size
        )

    def require_box(self) -> AtomVec:
        if self.atom is None:
            raise InputError("command requires a simulation box (create_box first)")
        return self.atom

    def create_atoms(self, atom_type: int, region: BlockRegion | None = None) -> None:
        """Fill the lattice within a region (or the whole box)."""
        atom = self.require_box()
        if self.lattice is None:
            raise InputError("create_atoms requires a lattice")
        if not 1 <= atom_type <= atom.ntypes:
            raise InputError(f"atom type {atom_type} out of range")
        region = region or BlockRegion.create(self.domain.boxlo, self.domain.boxhi)
        sites = self.lattice.positions_in_region(region)
        sites = sites[
            np.all(
                (sites >= self.domain.boxlo - 1e-12)
                & (sites < self.domain.boxhi - 1e-12),
                axis=1,
            )
        ]
        # Deterministic global ordering -> consistent tags on every rank.
        order = np.lexsort((sites[:, 0], sites[:, 1], sites[:, 2]))
        sites = sites[order]
        base_tag = self.natoms_total
        assert self.decomp is not None
        owners = self.decomp.owner_of(sites)
        mine = owners == self.comm_rank
        tags = base_tag + 1 + np.flatnonzero(mine)
        atom.add_local(sites[mine], types=atom_type, tags=tags)
        self.natoms_total += len(sites)

    def create_atoms_from_arrays(self, x: np.ndarray, types: np.ndarray) -> None:
        """Insert an explicit global configuration (workload generators).

        Every rank receives the same arrays; each keeps the atoms its
        subdomain owns.  Tags follow array order, so runs are
        decomposition-independent.
        """
        atom = self.require_box()
        x = self.domain.wrap(np.asarray(x, dtype=float))
        types = np.asarray(types, dtype=np.int32)
        if x.shape[0] != types.shape[0]:
            raise InputError("create_atoms_from_arrays: x/types length mismatch")
        assert self.decomp is not None
        owners = self.decomp.owner_of(x)
        mine = owners == self.comm_rank
        tags = self.natoms_total + 1 + np.flatnonzero(mine)
        atom.add_local(x[mine], types=types[mine], tags=tags)
        self.natoms_total += x.shape[0]

    def set_mass(self, atom_type: int, mass: float) -> None:
        atom = self.require_box()
        if not 1 <= atom_type <= atom.ntypes:
            raise InputError(f"mass: atom type {atom_type} out of range")
        if mass <= 0:
            raise InputError("mass must be positive")
        atom.mass[atom_type] = mass

    def velocity_create(self, temp: float, seed: int) -> None:
        atom = self.require_box()
        if self.natoms_total < 1:
            raise InputError("velocity create before create_atoms")
        # Global mass-by-tag table: ranks must agree, so gather type info
        # deterministically.  Tags are 1..natoms_total by construction.
        mass_by_tag = np.empty(self.natoms_total)
        contribution = np.zeros(self.natoms_total)
        contribution[atom.tag[: atom.nlocal] - 1] = atom.masses_of()
        if self.comm_size > 1:
            self.world.reduce_contribute(("velmass", seed), contribution)
            # Resolved by Ensemble lockstep; single-rank falls through.
            mass_by_tag = None  # type: ignore[assignment]
            self._pending_velocity = (temp, seed)
            return
        mass_by_tag[:] = contribution
        self._apply_velocity_table(temp, seed, mass_by_tag)

    def _apply_velocity_table(self, temp: float, seed: int, mass_by_tag: np.ndarray) -> None:
        atom = self.require_box()
        table = maxwell_table(
            self.natoms_total, mass_by_tag, temp, seed, self.update.units
        )
        atom.v[: atom.nlocal] = table[atom.tag[: atom.nlocal] - 1]

    def _finish_velocity(self) -> None:
        """Ensemble hook: complete a pending multi-rank velocity create."""
        pending = getattr(self, "_pending_velocity", None)
        if pending is None:
            return
        temp, seed = pending
        mass_by_tag = np.atleast_1d(self.world.reduce_result(("velmass", seed)))
        self._apply_velocity_table(temp, seed, mass_by_tag)
        del self._pending_velocity

    # ----------------------------------------------------------------- I/O
    def write_dumps(self, force: bool = False) -> None:
        for dump in self.dumps.values():
            dump.maybe_write(force=force)

    def set_charge(self, atom_type: int, q: float) -> None:
        """``set type <t> charge <q>`` (needed by charged pair styles)."""
        atom = self.require_box()
        if not 1 <= atom_type <= atom.ntypes:
            raise InputError(f"set: atom type {atom_type} out of range")
        sel = atom.type[: atom.nlocal] == atom_type
        atom.q[: atom.nlocal][sel] = q

    # -------------------------------------------------------------- groups
    def define_group(self, name: str, style: str, args: tuple) -> None:
        if style not in ("type", "region", "all"):
            raise InputError(f"unsupported group style {style!r}")
        self.groups[name] = (style, args)

    def group_mask(self, name: str) -> np.ndarray:
        atom = self.require_box()
        if name not in self.groups:
            raise InputError(f"unknown group {name!r}")
        style, args = self.groups[name]
        n = atom.nlocal
        if style == "all":
            return np.ones(n, dtype=bool)
        if style == "type":
            return np.isin(atom.type[:n], np.asarray(args, dtype=np.int32))
        region = self.regions[args[0]]
        return region.inside(atom.x[:n])

    # ------------------------------------------------------------- styles
    def set_pair_style(self, name: str, args: list[str]) -> None:
        cls, extra = resolve_style("pair", name, self.suffix)
        self.pair = cls(self, args, **extra)

    def add_fix(self, fix_id: str, group: str, style: str, args: list[str]) -> None:
        if group not in self.groups:
            raise InputError(f"fix {fix_id}: unknown group {group!r}")
        cls, extra = resolve_style("fix", style, self.suffix)
        self.modify.add_fix(cls(self, fix_id, group, args, **extra))

    def add_compute(self, cid: str, group: str, style: str, args: list[str]) -> None:
        cls, extra = resolve_style("compute", style, self.suffix)
        self.modify.add_compute(cls(self, cid, group, args, **extra))

    def internal_compute(self, cid: str) -> Compute:
        """Built-in computes backing thermo columns."""
        if cid not in self._internal_computes:
            cls, extra = resolve_style("compute", cid, None)
            self._internal_computes[cid] = cls(self, f"__{cid}", "all", [], **extra)
        return self._internal_computes[cid]

    # ------------------------------------------------------ kokkos datamask
    def _kokkos_active(self) -> bool:
        return self.atom_kk is not None and getattr(self.pair, "kokkos_style", False)

    def mark_host_writes(self, *fields: str) -> None:
        """Record that host-side code wrote per-atom fields (section 3.2).

        No-op unless a Kokkos style is active — in pure host runs the
        DualView machinery must cost nothing, as in the paper.
        """
        if self._kokkos_active():
            from repro.kokkos.core import Host

            self.atom_kk.modified(Host, fields)

    def sync_host_fields(self, *fields: str) -> None:
        """Make per-atom fields current on the host (for plain styles/fixes)."""
        if self._kokkos_active():
            from repro.kokkos.core import Host

            self.atom_kk.sync(Host, fields)

    # ---------------------------------------------------------- neighboring
    def _maybe_sort_atoms(self, binsize: float) -> bool:
        """Spatially sort owned atoms (``atom_modify sort``), if due.

        Runs between ``exchange`` (no ghosts exist) and ``borders`` (ghost
        indices and comm sendlists are recorded against the new order), so
        no remapping of ghosts or swaps is ever needed.
        """
        atom = self.require_box()
        if (
            self.sort_every <= 0
            or atom.nlocal == 0
            or self.neighbor.builds % self.sort_every
        ):
            return False
        size = self.sort_binsize if self.sort_binsize > 0.0 else binsize
        perm = spatial_sort_order(atom.x[: atom.nlocal], size)
        if np.array_equal(perm, np.arange(atom.nlocal)):
            return False
        # the permutation rewrites the host copy of every field: bring home
        # whatever a Kokkos style left newer on the device first (EAM's
        # rho/fp scratch) — a host write on top would be the
        # modify-both-spaces hazard
        self.sync_host_fields(*AtomVec.FIELD_DTYPES)
        atom.reorder_local(perm)
        self.mark_host_writes(*AtomVec.FIELD_DTYPES)
        return True

    def rebuild_gen(self) -> Iterator[None]:
        """Migrate -> sort -> borders -> shared bin grid -> neighbor build."""
        atom = self.require_box()
        if self.pair is None:
            raise LammpsError("neighbor rebuild requires a pair style")
        cutghost = self.pair.max_cutoff() + self.neighbor.skin
        if self.comm_brick is None or self.comm_brick.cutghost != cutghost:
            assert self.decomp is not None
            self.comm_brick = CommBrick(self.comm, self.decomp, cutghost)
        with self.timer.phase("Comm"):
            yield from self.comm_brick.exchange(atom, self.domain.wrap)
        with self.timer.phase("Neigh"):
            sorted_atoms = self._maybe_sort_atoms(cutghost)
        with self.timer.phase("Comm"):
            yield from self.comm_brick.borders(atom, self.domain.periodic)
        with self.timer.phase("Neigh"):
            # the pairwise scratch is dead between force calls: drop it so
            # the build's own transients do not stack on top of it
            ARENA.release()
            # One bin grid per rebuild, at the largest requested cutoff: the
            # pair list below and any multi-cutoff consumer this step (ReaxFF
            # bond list, species analysis) share it instead of re-binning.
            # Half-cutoff bins (LAMMPS's choice): shorter-cutoff consumers
            # get proportionally tighter stencils from the same grid.
            self.bin_grid = BinGrid(atom.x[: atom.nall], atom.nlocal, 0.5 * cutghost)
            style, newton = self.pair.neighbor_request()
            self.neigh_list = build_neighbor_list(
                atom.x[: atom.nall],
                atom.nlocal,
                cutghost,  # force cutoff + skin, LAMMPS's Verlet-list radius
                style=style,
                newton=newton,
                grid=self.bin_grid,
            )
            self.neighbor.record_build(self.update.ntimestep, atom.x[: atom.nlocal])
            if self._kokkos_active():
                # A GPU-resident run builds the bin/neighbor structures on the
                # device; charge each stage so strong-scaling tails see it.
                import repro.kokkos as kk
                from repro.hardware.cost import neighbor_build_profiles

                for profile in neighbor_build_profiles(
                    pairs=self.neigh_list.total_pairs,
                    nall=atom.nall,
                    nlocal=atom.nlocal,
                    sorted_atoms=sorted_atoms,
                ):
                    kk.parallel_for(
                        profile.name,
                        kk.RangePolicy(
                            self.pair.execution_space,
                            0,
                            int(profile.parallel_items),
                        ),
                        lambda idx: None,
                        profile=profile,
                    )

    def count_atoms_gen(self) -> Iterator[None]:
        atom = self.require_box()
        key = ("natoms", self.update.ntimestep, id(self.world))
        with self.timer.phase("Comm"):
            self.world.reduce_contribute(key, float(atom.nlocal))
            yield
            self.natoms_total = int(round(self.world.reduce_result(key)))

    # ----------------------------------------------------------------- run
    def run(self, nsteps: int) -> None:
        """Advance the simulation (single-rank convenience)."""
        if self.comm_size != 1:
            raise LammpsError("multi-rank runs must go through Ensemble.run")
        import time

        # before the clocks start, so search probes don't count as run time
        _maybe_autotune(self)
        ctx = kk.device_context()
        sim0 = ctx.timeline.total()
        comm0 = self.world.ledger.total()
        wall0 = time.perf_counter()
        self.timer.reset()
        drain(self.verlet.run_gen(nsteps))
        self.world.assert_drained()
        self.last_run_stats = {
            "wall": time.perf_counter() - wall0,
            "simulated_device": ctx.timeline.total() - sim0,
            "modeled_comm": self.world.ledger.total() - comm0,
            "steps": nsteps,
            "neighbor_builds": self.neighbor.builds,
            "ave_neighs": (
                self.neigh_list.mean_neighbors if self.neigh_list else 0.0
            ),
            "max_neighs": self.neigh_list.maxneigh if self.neigh_list else 0,
            "breakdown": dict(self.timer.timers),
        }
        if not self.thermo.quiet and nsteps > 0:
            self._print_run_summary()

    def _print_run_summary(self) -> None:
        """LAMMPS-style loop summary plus the simulated-hardware ledger."""
        s = self.last_run_stats
        natoms = max(self.natoms_total, 1)
        print(
            f"Loop time of {s['wall']:.4g} s on {self.comm_size} simulated "
            f"rank(s) for {s['steps']} steps with {natoms} atoms"
        )
        if s["simulated_device"] > 0:
            rate = natoms * s["steps"] / s["simulated_device"]
            print(
                f"Simulated device time: {s['simulated_device']:.4g} s "
                f"({rate:.3e} atom-steps/s on the modeled hardware)"
            )
        if s["modeled_comm"] > 0:
            print(f"Modeled communication time: {s['modeled_comm']:.4g} s")
        breakdown = s.get("breakdown", {})
        total = sum(breakdown.values())
        if total > 0:
            # the LAMMPS "MPI task timing breakdown", in modeled seconds
            print("Timing breakdown (modeled):")
            for cat in CATEGORIES:
                seconds = breakdown.get(cat, 0.0)
                if seconds > 0:
                    print(f"  {cat:<7s} {seconds:>12.6g} s ({100 * seconds / total:5.1f}%)")
        if self.neigh_list is not None:
            # LAMMPS's post-loop neighbor line; max_neighs is the padded-row
            # width a fixed-capacity engine must not overflow
            print(
                f"Ave neighs/atom = {s['ave_neighs']:.5g}, "
                f"max neighs = {s['max_neighs']}"
            )
            print(f"Neighbor list builds = {s['neighbor_builds']}")

    def minimize(self, etol: float, ftol: float, maxiter: int) -> "object":
        """Relax the configuration; returns a MinimizeResult."""
        if self.comm_size != 1:
            raise LammpsError("multi-rank minimization goes through Ensemble")
        from repro.core.minimize import Minimizer

        drain(Minimizer(self, self.min_style).minimize_gen(etol, ftol, maxiter))
        self.world.assert_drained()
        return self.last_minimize


def _maybe_autotune(target) -> None:
    """Run the attached autotuner once, before the first timestep.

    ``target`` is a Lammps instance or an Ensemble.  A pending option dict
    (``package autotune on``) is built into an Autotuner lazily here so the
    command itself needs no tune-package import.
    """
    tuner = getattr(target, "autotuner", None)
    ranks = target.ranks if hasattr(target, "ranks") else [target]
    if tuner is None and ranks[0].autotune_request is not None:
        from repro.tune import Autotuner

        tuner = target.autotuner = Autotuner(**ranks[0].autotune_request)
        for lmp in ranks:
            lmp.autotune_request = None
    if tuner is None or tuner.tuned:
        return
    tuner.tune(target)


class Ensemble:
    """N-rank simulation: broadcasts commands, runs ranks in lockstep."""

    def __init__(
        self,
        nranks: int,
        device: str | None = "H100",
        *,
        network: str = "loopback",
        ranks_per_node: int = 1,
        suffix: str | None = None,
        quiet: bool = True,
    ) -> None:
        self.world = SimWorld(nranks, network=network, ranks_per_node=ranks_per_node)
        self.ranks = [
            Lammps(device, world=self.world, rank=r, suffix=suffix, quiet=quiet)
            for r in range(nranks)
        ]
        # only the root rank speaks, as in MPI runs
        for lmp in self.ranks[1:]:
            lmp.thermo.quiet = True
        #: Runtime autotuner for the whole ensemble (see Lammps.autotuner);
        #: a per-rank ``package autotune`` request is adopted at first run.
        self.autotuner = None

    def command(self, line: str) -> None:
        tokens = line.split("#", 1)[0].split()
        if tokens and tokens[0] == "run":
            # Runs must be driven in lockstep across ranks, not per rank.
            self.run(int(tokens[1]))
            return
        if tokens and tokens[0] == "minimize":
            self.minimize(float(tokens[1]), float(tokens[2]), int(tokens[3]))
            return
        for lmp in self.ranks:
            if kp.TOOLS:
                kp.set_rank(lmp.comm_rank)
            lmp.command(line)
        if kp.TOOLS:
            kp.set_rank(0)
        self._resolve_collectives()

    def commands_string(self, text: str) -> None:
        for line in text.splitlines():
            stripped = line.split("#", 1)[0].strip()
            if stripped:
                self.command(stripped)

    def _resolve_collectives(self) -> None:
        for lmp in self.ranks:
            lmp._finish_velocity()

    def run(self, nsteps: int) -> None:
        _maybe_autotune(self)
        for lmp in self.ranks:
            lmp.timer.reset()
        lockstep([lmp.verlet.run_gen(nsteps) for lmp in self.ranks])
        self.world.assert_drained()
        for lmp in self.ranks:
            # Per-rank breakdowns are approximate under lockstep (ranks
            # share the modeled clocks and interleave mid-phase).
            lmp.last_run_stats = {
                "steps": nsteps,
                "breakdown": dict(lmp.timer.timers),
            }

    def minimize(self, etol: float, ftol: float, maxiter: int) -> "object":
        from repro.core.minimize import Minimizer

        lockstep(
            [
                Minimizer(lmp, lmp.min_style).minimize_gen(etol, ftol, maxiter)
                for lmp in self.ranks
            ]
        )
        self.world.assert_drained()
        return self.ranks[0].last_minimize

    def write_data(self, path: str) -> None:
        """Gather all ranks' atoms and write one data file."""
        from repro.core.io import write_data

        gathered = Lammps(device=None)
        first = self.ranks[0]
        from repro.core.domain import BlockRegion

        gathered.create_box(
            first.atom.ntypes,
            BlockRegion.create(first.domain.boxlo, first.domain.boxhi),
        )
        gathered.atom.mass[:] = first.atom.mass
        n = first.natoms_total
        x = np.zeros((n, 3))
        v = np.zeros((n, 3))
        q = np.zeros(n)
        types = np.ones(n, dtype=np.int32)
        for lmp in self.ranks:
            atom = lmp.atom
            sel = atom.tag[: atom.nlocal] - 1
            x[sel] = atom.x[: atom.nlocal]
            v[sel] = atom.v[: atom.nlocal]
            q[sel] = atom.q[: atom.nlocal]
            types[sel] = atom.type[: atom.nlocal]
        gathered.atom.add_local(x, types=types, tags=np.arange(1, n + 1))
        gathered.atom.v[:n] = v
        gathered.atom.q[:n] = q
        gathered.natoms_total = n
        write_data(gathered, path)


class ReplicaSet:
    """R independent copies of one script, advanced through batched kernels.

    The Ensemble-compatible driver entry for the replica engine
    (:mod:`repro.replica`): ``command``/``commands_string`` broadcast setup
    commands to every replica, and ``run N`` packs all of them into one
    :class:`~repro.replica.batch.ReplicaBatch` — one vectorized
    force/integrate/comm stream over R-times-longer arrays — instead of R
    sequential solo runs.  Per-replica trajectories and thermo histories
    (``set.replicas[k].thermo.history``) are bitwise identical to solo runs.

    Each replica sees an equal-style ``replica`` variable holding its index,
    so scripts can decorrelate per-replica state::

        velocity all create 1.44 8728${replica}

    Only single-rank batchable workloads qualify (host ``lj/cut``/``eam/fs``,
    ``fix all nve``, no dumps/kspace); ``run`` raises otherwise.  Use
    :class:`Ensemble` to scale one simulation across ranks; use a ReplicaSet
    to scale *many small simulations* onto one set of kernels.
    """

    def __init__(
        self,
        nreplicas: int,
        device: str | None = None,
        *,
        suffix: str | None = None,
        quiet: bool = False,
        label: str = "replica",
    ) -> None:
        if nreplicas < 1:
            raise LammpsError("a ReplicaSet needs at least one replica")
        self.replicas = [
            Lammps(device, suffix=suffix, quiet=quiet) for _ in range(nreplicas)
        ]
        for i, lmp in enumerate(self.replicas):
            # set directly (not via `variable ... equal`) so ${replica}
            # substitutes as the bare integer, splice-friendly in seeds
            lmp.variables["replica"] = i
        # only replica 0 speaks, like the root rank of an Ensemble
        for lmp in self.replicas[1:]:
            lmp.thermo.quiet = True
        self.label = label
        #: the batch driving the most recent ``run`` (perf introspection)
        self.last_batch = None

    def command(self, line: str) -> None:
        tokens = line.split("#", 1)[0].split()
        if tokens and tokens[0] == "run":
            self.run(int(tokens[1]))
            return
        if tokens and tokens[0] == "minimize":
            raise LammpsError(
                "replica sets cannot minimize; minimize solo, then batch the runs"
            )
        for lmp in self.replicas:
            lmp.command(line)
        for lmp in self.replicas:
            lmp._finish_velocity()

    def commands_string(self, text: str) -> None:
        for line in text.splitlines():
            stripped = line.split("#", 1)[0].strip()
            if stripped:
                self.command(stripped)

    def run(self, nsteps: int):
        """Advance every replica ``nsteps`` through one ReplicaBatch.

        Builds a fresh batch each call — ``add_replica`` performs exactly
        the setup a solo ``run`` would (including the forced step-0 thermo
        row), so interleaving setup commands between runs stays faithful.
        Returns the batch.
        """
        from repro.replica import ReplicaBatch

        batch = ReplicaBatch(label=self.label)
        for lmp in self.replicas:
            batch.add_replica(lmp)
        batch.step(nsteps)
        batch.finish()
        if batch.failures:
            rid, exc = batch.failures[0]
            raise LammpsError(
                f"replica {rid} failed during the batched run: {exc}"
            ) from exc
        self.last_batch = batch
        return batch
