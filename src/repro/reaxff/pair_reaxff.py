"""``pair_style reaxff`` and ``pair_style reaxff/kk``.

Orchestrates the full ReaxFF-lite timestep:

1. bond-search neighbor list over local + ghost atoms (short cutoff);
2. bond-order table build (pre-processed pipeline, section 4.2.1);
3. charge equilibration: over-allocated CSR build + fused dual CG
   (sections 4.2.2-4.2.3), charges forward-communicated to ghosts;
4. nonbonded tapered vdW + shielded Coulomb from the engine's 10 A list;
5. bond, valence-angle (compressed triplets) and torsion (compressed
   quads) forces;
6. ghost forces reverse-communicated by the integrator (always needed:
   bonded terms touch ghost atoms).

The Kokkos variant runs the same functional pipeline and additionally
charges per-kernel cost profiles derived from the measured workload — the
quantities the figure 4/5/6 ReaxFF curves are built from.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

import repro.kokkos as kk
from repro.core.errors import InputError
from repro.core.neighbor import build_neighbor_list
from repro.core.styles import register_pair
from repro.kokkos.core import Device, Host
from repro.potentials.pair import Pair
from repro.reaxff.angles import build_triplets, compute_angles
from repro.reaxff.bond_order import build_bond_list
from repro.reaxff.bonds import compute_bonds
from repro.reaxff.nonbonded import compute_nonbonded
from repro.reaxff.params import ReaxParams, default_chno
from repro.reaxff.qeq import (
    EXTRAP_NONE,
    EXTRAPS,
    PRECOND_JACOBI,
    PRECONDS,
    QEqHistory,
    build_qeq_matrix,
    equilibrate_charges_gen,
    make_preconditioner,
)
from repro.reaxff.torsions import build_quads, compute_torsions


@register_pair("reaxff")
class PairReaxFF(Pair):
    """Host ReaxFF-lite."""

    def settings(self, args: list[str]) -> None:
        self.params: ReaxParams = default_chno()
        self.qeq_tol = 1e-8
        #: preconditioner for the dual CG (none/jacobi)
        self.qeq_precond = PRECOND_JACOBI
        #: charge-history extrapolation order ("none" = cold start, "0".."3")
        self.qeq_extrap = "2"
        it = iter(args)
        for key in it:
            if key == "qeq_tol":
                self.set_qeq_options(tol=next(it, "1e-8"))
            elif key == "qeq_precond":
                self.set_qeq_options(precond=next(it, "none"))
            elif key == "qeq_extrap":
                self.set_qeq_options(extrap=next(it, EXTRAP_NONE))
            elif key == "cutoff":
                # reduced nonbonded cutoff for small test boxes; the
                # production default matches ReaxFF's 10 A taper
                from dataclasses import replace

                self.params = replace(self.params, rcut_nonb=float(next(it, "10")))
            else:
                raise InputError(f"pair_style reaxff: unknown option {key!r}")
        #: per-solve iteration counts, appended every compute (the
        #: iterations-to-tolerance series the qeq bench and golden read)
        self.qeq_iters_history: list[int] = []
        #: s/t ring buffer on the atom arrays, created at first compute
        self._qeq_history: QEqHistory | None = None
        #: solves completed so far — the COLLECTIVE seed gate: every rank
        #: computes every step, so the counter (and hence the decision to
        #: run the extra seed-residual comm round) agrees across ranks even
        #: when some rank's per-atom history is empty
        self._qeq_solves = 0
        #: engine type -> species index map (set by pair_coeff)
        self.type_map: np.ndarray | None = None
        #: diagnostics of the last compute (kernel sizes, QEq iterations)
        self.last_stats: dict = {}
        # Skin-amortized bond-search list: keyed on the engine's pair-list
        # *object* (a rebuild creates a fresh NeighborList, so identity
        # doubles as the invalidation signal; holding the reference keeps
        # id() collisions impossible).
        self._bond_nlist = None
        self._bond_nlist_key = None
        # Last bond-order table, reusable within one configuration (same
        # timestep + same pair list) by the species analysis.
        self._last_bonds = None
        self._last_bonds_key = None

    def set_qeq_options(
        self, *, precond=None, extrap=None, tol=None
    ) -> None:
        """Validated QEq-knob setter behind the ``pair_style`` args (unknown
        names fail with the standard did-you-mean hint)."""
        from repro.core.errors import unknown_choice

        if precond is not None:
            if precond not in PRECONDS:
                raise InputError(unknown_choice("qeq_precond", precond, PRECONDS))
            self.qeq_precond = precond
        if extrap is not None:
            extrap = str(extrap)
            if extrap not in EXTRAPS:
                raise InputError(unknown_choice("qeq_extrap", extrap, EXTRAPS))
            self.qeq_extrap = extrap
        if tol is not None:
            self.qeq_tol = float(tol)

    def coeff(self, args: list[str]) -> None:
        """``pair_coeff * * chno <elem-per-type...>`` maps types to species."""
        if len(args) < 3 or args[0] != "*" or args[1] != "*" or args[2] != "chno":
            raise InputError("usage: pair_coeff * * chno <element per type...>")
        symbols = {s: k for k, s in enumerate(self.params.symbols) if s}
        elems = args[3:]
        ntypes = self.cut.shape[0] - 1
        if len(elems) != ntypes:
            raise InputError(
                f"pair_coeff chno needs {ntypes} element labels, got {len(elems)}"
            )
        tmap = np.zeros(ntypes + 1, dtype=np.int64)
        for t, e in enumerate(elems, start=1):
            if e not in symbols:
                raise InputError(f"unknown element {e!r}; known: {sorted(symbols)}")
            tmap[t] = symbols[e]
        self.type_map = tmap
        self.cut[1:, 1:] = self.params.rcut_nonb
        self.setflag[1:, 1:] = True

    def init(self) -> None:
        if self.type_map is None:
            raise InputError("pair reaxff: pair_coeff * * chno ... not given")

    def neighbor_request(self) -> tuple[str, bool]:
        return "full", False

    @property
    def needs_reverse_comm(self) -> bool:
        # bonded terms always put force on ghost atoms
        return True

    def max_cutoff(self) -> float:
        return self.params.rcut_nonb

    # ------------------------------------------------------- bond-search list
    def bond_neighbor_list(self):
        """Bond-search list over ALL atoms (ghosts get their own rows).

        Built at ``params.bond_search_cut + skin`` — the bond-order
        threshold's reach (2.13 A for CHNO), not ``rcut_bond`` — from the
        per-rebuild shared :class:`~repro.core.bin_grid.BinGrid`, and reused
        until the engine's rebuild policy produces a fresh pair list.  It
        relies on the skin contract of that pair list: no pair closes in by
        more than the skin between rebuilds.  Under it every pair with
        ``BO > bo_cut`` is a candidate, and the bond-order build re-applies
        the exact ``rcut_bond``/``bo_cut`` masks each call, so the table is
        the one a per-step ``rcut_bond`` search would give.
        """
        lmp = self.lmp
        atom = lmp.atom
        nall = atom.nall
        x = atom.x[:nall]
        if self._bond_nlist is None or self._bond_nlist_key is not lmp.neigh_list:
            self._bond_nlist = build_neighbor_list(
                x,
                nall,
                self.params.bond_search_cut + lmp.neighbor.skin,
                style="full",
                grid=lmp.bin_grid,
            )
            self._bond_nlist_key = lmp.neigh_list
        return self._bond_nlist

    def bonds_for_analysis(self):
        """The current configuration's bond-order table (species analysis).

        Returns the table the force pipeline just built when one exists for
        this exact configuration; otherwise builds one through the shared
        bond-search list — never a second full build for the same step.
        """
        lmp = self.lmp
        key = (lmp.update.ntimestep, lmp.neigh_list)
        if self._last_bonds is None or self._last_bonds_key != key:
            atom = lmp.atom
            nall = atom.nall
            x = atom.x[:nall]
            species = self.type_map[atom.type[:nall]]
            self._last_bonds = build_bond_list(
                x, species, self.bond_neighbor_list(), self.params
            )
            self._last_bonds_key = key
        return self._last_bonds

    # --------------------------------------------------------------- compute
    def compute_gen(self, eflag: bool = True, vflag: bool = True) -> Iterator[None]:
        lmp = self.lmp
        atom = lmp.atom
        params = self.params
        self.reset_tallies()
        stats = self.last_stats = {}

        nall = atom.nall
        nlocal = atom.nlocal
        x = atom.x[:nall]
        species = self.type_map[atom.type[:nall]]
        tags = atom.tag[:nall]

        # 1) bond-search list over ALL atoms: ghosts need their own bond rows
        # so torsion chains crossing the boundary see the far-side legs.
        # Skin-amortized: rebuilt only when the engine's rebuild policy fires.
        bond_nlist = self.bond_neighbor_list()
        # 2) bond-order table (count -> scan -> fill pipeline)
        bonds = build_bond_list(x, species, bond_nlist, params)
        self._last_bonds = bonds
        self._last_bonds_key = (lmp.update.ntimestep, lmp.neigh_list)
        stats["bond_candidates"] = bonds.candidates
        stats["nbonds"] = bonds.nbonds

        # 3) charge equilibration: preconditioned, history-seeded dual CG
        matrix = build_qeq_matrix(x, species, lmp.neigh_list, params, lmp.update.units.qqr2e)
        stats["qeq_nnz"] = matrix.total_nnz
        stats["qeq_slots"] = matrix.stored_slots
        precond = make_preconditioner(self.qeq_precond, matrix)
        if self._qeq_history is None:
            self._qeq_history = QEqHistory(atom)
        x0 = None
        if self.qeq_extrap != EXTRAP_NONE and self._qeq_solves > 0:
            x0 = self._qeq_history.seed(int(self.qeq_extrap))
        qeq_out: dict = {}
        chi_local = params.chi[species[:nlocal]]
        yield from equilibrate_charges_gen(
            lmp, matrix, chi_local, qeq_out, tol=self.qeq_tol,
            precond=precond, x0=x0,
        )
        atom.q[:nlocal] = qeq_out["q"]
        self._qeq_history.push(qeq_out["s"], qeq_out["t"])
        self._qeq_solves += 1
        stats["qeq_iterations"] = qeq_out["iterations"]
        stats["qeq_seeded"] = qeq_out["seeded"]
        stats["qeq_spmv_bytes"] = qeq_out["spmv_bytes"]
        stats["qeq_spmv_bytes_per_iteration"] = matrix.traversal_bytes()
        self.qeq_iters_history.append(qeq_out["iterations"])
        yield from lmp.comm_brick.forward_comm_field(atom, "q")
        q = atom.q[:nall]
        # EEM self energy (part of the electrostatic energy QEq minimizes)
        ql = q[:nlocal]
        self.eng_coul += float(
            (params.chi[species[:nlocal]] * ql + params.eta[species[:nlocal]] * ql * ql).sum()
        )

        # 4) nonbonded vdW + Coulomb over the geometry the matrix build made
        evdw, ecoul, nb_pairs = compute_nonbonded(
            matrix.geometry, q, params, lmp.update.units.qqr2e, atom.f, self.virial,
        )
        self.eng_vdwl += evdw
        self.eng_coul += ecoul
        stats["nonbonded_pairs"] = nb_pairs

        # 5) bonded terms
        self.eng_vdwl += compute_bonds(
            x, species, tags, nlocal, bonds, params, atom.f, self.virial
        )
        triplets = build_triplets(bonds, nlocal)
        stats["triplets"] = triplets.ntriplets
        self.eng_vdwl += compute_angles(
            x, species, nlocal, bonds, triplets, params, atom.f, self.virial
        )
        quads = build_quads(tags, nlocal, bonds, params)
        stats["quad_candidates"] = quads.candidates
        stats["quads"] = quads.nquads
        self.eng_vdwl += compute_torsions(
            x, species, bonds, quads, params, atom.f, self.virial
        )
        self._charge_kernels(stats, nlocal)

    def _charge_kernels(self, stats: dict, nlocal: int) -> None:
        """Hook for the Kokkos variant; the host style charges nothing."""


@register_pair("reaxff/kk")
class PairReaxFFKokkos(PairReaxFF):
    """Kokkos ReaxFF-lite: same pipeline + per-kernel cost accounting."""

    kokkos_style = True

    #: flop estimates per work item for the major kernels (transcendental
    #: evaluations weighted ~8 flops, as in roofline practice)
    FLOPS_TORSION = 220.0
    FLOPS_ANGLE = 90.0
    FLOPS_BOND = 40.0
    FLOPS_NONBONDED = 60.0
    FLOPS_QEQ_VALUE = 45.0

    def __init__(self, lmp, args, execution_space: str = "device") -> None:
        self.execution_space = Device if execution_space == "device" else Host
        super().__init__(lmp, args)

    def compute_gen(self, eflag: bool = True, vflag: bool = True) -> Iterator[None]:
        atom_kk = self.lmp.atom_kk
        atom_kk.sync(self.execution_space, ("x", "type", "q", "f"))
        yield from super().compute_gen(eflag, vflag)
        # pipeline computes through the host aliases (communication-heavy
        # phases stay host-resident, section 3.3); mark and resync.
        atom_kk.modified(Host, ("f", "q"))

    def _charge_kernels(self, stats: dict, nlocal: int) -> None:
        space = self.execution_space
        n = max(nlocal, 1)
        mean_nb = stats["nbonds"] / n

        def charge(name: str, **kw) -> None:
            # many small irregular kernels: poor CPU vectorization
            kw.setdefault("cpu_efficiency", 0.035)
            prof = kk.KernelProfile(name=name, **kw)
            kk.parallel_for(name, kk.RangePolicy(space, 0, n), lambda idx: None, profile=prof)

        # bond-order neighbor list: divergent filter over candidates
        charge(
            "ReaxBondOrderNeighborList",
            flops=25.0 * stats["bond_candidates"],
            bytes_streamed=8.0 * stats["bond_candidates"] + 32.0 * n,
            bytes_reusable=24.0 * stats["bond_candidates"],
            l1_working_set_kb=200.0,
            l2_working_set_mb=24.0 * n / 1e6,
            parallel_items=float(n),
            convergent_fraction=max(stats["nbonds"] / max(stats["bond_candidates"], 1), 0.05),
        )
        # QEq matrix build: team hierarchical (rows x vector lanes) -> fully
        # convergent memory access (section 4.2.2)
        charge(
            "ReaxQEqMatrixBuild",
            flops=self.FLOPS_QEQ_VALUE * stats["qeq_nnz"],
            bytes_streamed=12.0 * stats["qeq_slots"],
            bytes_reusable=24.0 * stats["qeq_nnz"],
            l1_working_set_kb=96.0,
            l2_working_set_mb=12.0 * stats["qeq_slots"] / 1e6,
            parallel_items=2.0 * nlocal,
        )
        # fused dual spmv: one matrix stream per iteration feeds both solves
        iters = max(stats["qeq_iterations"], 1)
        charge(
            "ReaxQEqSparseMatVec",
            flops=4.0 * stats["qeq_nnz"] * iters,
            # the matrix stream is compulsory; vector gathers are pointer-
            # indirected and latency-limited rather than cache-limited
            # (appendix C.2), so carveout sensitivity stays under 10%
            bytes_streamed=24.0 * stats["qeq_nnz"] * iters,
            bytes_reusable=4.0 * stats["qeq_nnz"] * iters,
            l1_working_set_kb=64.0,
            l2_working_set_mb=12.0 * stats["qeq_nnz"] / 1e6,
            # rows are the independent scheduling unit (vector lanes within
            # a row retire together), so effective concurrency tracks the
            # atom count — LJ and ReaxFF saturate at similar sizes (fig. 4)
            parallel_items=2.0 * nlocal,
            launches=iters,
        )
        charge(
            "ReaxNonbondedForce",
            flops=self.FLOPS_NONBONDED * stats["nonbonded_pairs"],
            # the 10 A gather working set dwarfs any L1 configuration, so
            # most neighbor traffic streams — which is why the paper saw
            # <10% carveout sensitivity for ReaxFF kernels
            bytes_streamed=28.0 * stats["nonbonded_pairs"] + 48.0 * n,
            bytes_reusable=8.0 * stats["nonbonded_pairs"],
            l1_working_set_kb=2000.0,
            l2_working_set_mb=24.0 * n / 1e6,
            parallel_items=float(n),
        )
        charge(
            "ReaxBondForce",
            flops=self.FLOPS_BOND * stats["nbonds"],
            bytes_streamed=16.0 * stats["nbonds"],
            parallel_items=float(n),
        )
        # triplet/quad pre-processing: cheap, divergent (the point of the
        # section 4.2.1 split), then convergent force kernels over the
        # compressed tables
        charge(
            "ReaxBuildAngleTorsionTables",
            flops=6.0 * (stats["triplets"] + stats["quad_candidates"]),
            bytes_streamed=16.0 * (stats["triplets"] + stats["quads"]),
            parallel_items=float(n),
            convergent_fraction=max(
                stats["quads"] / max(stats["quad_candidates"], 1), 0.05
            ),
        )
        charge(
            "ReaxAngleForce",
            flops=self.FLOPS_ANGLE * stats["triplets"],
            bytes_streamed=28.0 * stats["triplets"],
            bytes_reusable=48.0 * stats["triplets"],
            l1_working_set_kb=16.0 * max(mean_nb, 1.0),
            parallel_items=float(max(stats["triplets"], 1)),
        )
        charge(
            "ReaxTorsionForce",
            flops=self.FLOPS_TORSION * stats["quads"],
            bytes_streamed=40.0 * stats["quads"],
            bytes_reusable=64.0 * stats["quads"],
            l1_working_set_kb=20.0 * max(mean_nb, 1.0),
            parallel_items=float(max(stats["quads"], 1)),
        )
