"""``pair_style reaxff`` and ``pair_style reaxff/kk``.

One Stage list is the ReaxFF-lite timestep (:attr:`PairReaxFF.stages`):
bond list -> QEq matrix -> QEq solve -> ``q`` forward comm -> nonbonded ->
bonds -> angle/torsion tables -> angles -> torsions.  The bond-order,
triplet and quad tables are section 4.2.1's pre-processed pipeline, the
QEq matrix and dual CG sections 4.2.2-4.2.3.

The Kokkos variant runs the same list and charges each stage a cost
profile from its measured workload — the quantities the figure 4/5/6
ReaxFF curves are built from.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import Iterator

import numpy as np

import repro.kokkos as kk
from repro.core.errors import InputError, unknown_choice
from repro.core.neighbor import build_neighbor_list
from repro.core.styles import register_pair
from repro.graph.pairwise import Stage, run_many_body
from repro.kokkos.core import Host
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
            if key not in ("cutoff", "qeq_tol", "qeq_precond", "qeq_extrap"):
                raise InputError(f"pair_style reaxff: unknown option {key!r}")
            value = next(it, None)
            if value is None:
                raise InputError(f"pair_style reaxff: option {key!r} needs a value")
            if key == "cutoff":
                # reduced nonbonded cutoff for small test boxes; the
                # production default matches ReaxFF's 10 A taper
                self.params = replace(self.params, rcut_nonb=float(value))
            else:
                # qeq_tol / qeq_precond / qeq_extrap -> tol / precond / extrap
                self.set_qeq_options(**{key.removeprefix("qeq_"): value})
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
        # the skin-amortized bond-search list, keyed on the engine's pair-list
        # *object*: a rebuild creates a fresh NeighborList, and holding the
        # reference keeps id() collisions impossible
        self._bond_nlist = None
        self._bond_nlist_key = None

    def set_qeq_options(self, *, precond=None, extrap=None, tol=None) -> None:
        """Validated QEq-knob setter behind the ``pair_style`` args (unknown
        names fail with the standard did-you-mean hint)."""
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
            raise InputError(f"pair_coeff chno needs {ntypes} element labels, got {len(elems)}")
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
        """Bond-search list over ALL atoms (ghosts get their own rows), built
        at ``params.bond_search_cut + skin`` (the bond-order threshold's
        reach, 2.13 A for CHNO, not ``rcut_bond``) on the shared bin grid and
        reused until the engine's next rebuild.  Under the skin contract every
        pair with ``BO > bo_cut`` is a candidate, and the bond-order build
        re-applies the exact distance and ``bo_cut`` masks each call, so the
        table is the one a per-step ``rcut_bond`` search would give."""
        lmp, nall = self.lmp, self.lmp.atom.nall
        if self._bond_nlist is None or self._bond_nlist_key is not lmp.neigh_list:
            cut = self.params.bond_search_cut + lmp.neighbor.skin
            self._bond_nlist = build_neighbor_list(
                lmp.atom.x[:nall], nall, cut, style="full", grid=lmp.bin_grid
            )
            self._bond_nlist_key = lmp.neigh_list
        return self._bond_nlist

    # --------------------------------------------------------------- compute
    def compute_gen(self, eflag: bool = True, vflag: bool = True) -> Iterator[None]:
        self.reset_tallies()
        self.last_stats = {}
        atom = self.lmp.atom
        nall = atom.nall
        env = {
            "x": atom.x[:nall], "species": self.type_map[atom.type[:nall]],
            "tags": atom.tag[:nall], "nlocal": atom.nlocal, "f": atom.f,
        }
        yield from run_many_body(self.stages, env, self.stage_kernels())

    @cached_property
    def stages(self) -> list[Stage]:
        """The pipeline, host and ``/kk`` (:func:`run_many_body`)."""
        return [
            Stage("bond_list", self._bond_list, "bond-candidates"),
            Stage("qeq_matrix", self._qeq_matrix, "atoms"),
            Stage("qeq_solve", self._qeq_solve, "atoms", yields=True),
            Stage("q_comm", self._q_comm, "ghosts", yields=True),
            Stage("nonbonded", self._nonbonded, "atoms"),
            Stage("bonds", self._bonds, "bonds"),
            Stage("tables", self._tables, "bonds"),
            Stage("angles", self._angles, "triplets"),
            Stage("torsions", self._torsions, "quads"),
        ]

    def _bond_list(self, env: dict) -> None:
        # the bond-order table (count -> scan -> fill); the bond-search
        # list's ghost rows let torsion chains see their far-side legs
        bonds = env["bonds"] = build_bond_list(
            env["x"], env["species"], self.bond_neighbor_list(), self.params
        )
        self.require_pairs(bonds.r != 0.0, bonds.i, bonds.j, "has zero separation", "bond ")
        self.last_stats.update(bond_candidates=bonds.candidates, nbonds=bonds.nbonds)

    def _qeq_matrix(self, env: dict) -> None:
        # the step's one nonbonded geometry pass runs inside the matrix build
        units = self.lmp.update.units
        matrix = env["matrix"] = build_qeq_matrix(
            env["x"], env["species"], self.lmp.neigh_list, self.params, units.qqr2e
        )
        geo = matrix.geometry
        self.require_pairs(geo.r != 0.0, geo.i, geo.j, "has zero separation", "nonbonded ")
        self.last_stats.update(qeq_nnz=matrix.total_nnz, qeq_slots=matrix.stored_slots)

    def _qeq_solve(self, env: dict) -> Iterator[None]:
        # charge equilibration: preconditioned, history-seeded dual CG
        matrix, nlocal = env["matrix"], env["nlocal"]
        precond = make_preconditioner(self.qeq_precond, matrix)
        if self._qeq_history is None:
            self._qeq_history = QEqHistory(self.lmp.atom)
        x0 = None
        if self.qeq_extrap != EXTRAP_NONE and self._qeq_solves > 0:
            x0 = self._qeq_history.seed(int(self.qeq_extrap))
        out: dict = {}
        chi = self.params.chi[env["species"][:nlocal]]
        yield from equilibrate_charges_gen(
            self.lmp, matrix, chi, out, tol=self.qeq_tol, precond=precond, x0=x0,
        )
        q = self.lmp.atom.q[:nlocal]
        q[:] = out["q"]
        self._qeq_history.push(out["s"], out["t"])
        self._qeq_solves += 1
        self.last_stats.update(
            qeq_iterations=out["iterations"], qeq_seeded=out["seeded"],
            qeq_spmv_bytes=out["spmv_bytes"],
            qeq_spmv_bytes_per_iteration=matrix.traversal_bytes(),
        )
        self.qeq_iters_history.append(out["iterations"])
        # EEM self energy (part of the electrostatic energy QEq minimizes)
        eta = self.params.eta[env["species"][:nlocal]]
        self.eng_coul += float((chi * q + eta * q * q).sum())

    def _q_comm(self, env: dict) -> Iterator[None]:
        yield from self.lmp.comm_brick.forward_comm_field(self.lmp.atom, "q")

    def _nonbonded(self, env: dict) -> None:
        # vdW + Coulomb over the geometry the matrix build made
        atom = self.lmp.atom
        evdw, ecoul, self.last_stats["nonbonded_pairs"] = compute_nonbonded(
            env["matrix"].geometry, atom.q[: atom.nall], self.params,
            self.lmp.update.units.qqr2e, env["f"], self.virial,
        )
        self.eng_vdwl += evdw
        self.eng_coul += ecoul

    def _bonds(self, env: dict) -> None:
        self.eng_vdwl += compute_bonds(
            env["x"], env["species"], env["tags"], env["nlocal"], env["bonds"],
            self.params, env["f"], self.virial,
        )

    def _tables(self, env: dict) -> None:
        # the compressed triplet and quad tables (section 4.2.1's split)
        nlocal, bonds = env["nlocal"], env["bonds"]
        triplets = env["triplets"] = build_triplets(bonds, nlocal)
        quads = env["quads"] = build_quads(env["tags"], nlocal, bonds, self.params)
        self.last_stats.update(
            triplets=triplets.ntriplets, quad_candidates=quads.candidates, quads=quads.nquads
        )

    def _angles(self, env: dict) -> None:
        self.eng_vdwl += compute_angles(
            env["x"], env["species"], env["nlocal"], env["bonds"], env["triplets"],
            self.params, env["f"], self.virial,
        )

    def _torsions(self, env: dict) -> None:
        self.eng_vdwl += compute_torsions(
            env["x"], env["species"], env["bonds"], env["quads"], self.params,
            env["f"], self.virial,
        )


@register_pair("reaxff/kk")
class PairReaxFFKokkos(PairReaxFF):
    """Kokkos ReaxFF-lite: same pipeline + per-kernel cost accounting."""

    kokkos_style = True

    def compute_gen(self, eflag: bool = True, vflag: bool = True) -> Iterator[None]:
        atom_kk = self.lmp.atom_kk
        atom_kk.sync(self.execution_space, ("x", "type", "q", "f"))
        yield from super().compute_gen(eflag, vflag)
        # pipeline computes through the host aliases (communication-heavy
        # phases stay host-resident, section 3.3); mark and resync.
        atom_kk.modified(Host, ("f", "q"))

    def stage_kernels(self) -> dict:
        nlocal = self.lmp.atom.nlocal
        n = max(nlocal, 1)
        policy = kk.RangePolicy(self.execution_space, 0, n)

        # flops per item count a transcendental evaluation as ~8 (roofline practice)
        def kernel(name: str, fields) -> tuple:
            # many small irregular kernels: poor CPU vectorization
            return name, policy, lambda: kk.KernelProfile(
                name=name, cpu_efficiency=0.035, **fields(self.last_stats)
            )

        return {
            # bond-order neighbor list: divergent filter over candidates
            "bond_list": kernel("ReaxBondOrderNeighborList", lambda s: dict(
                flops=25.0 * s["bond_candidates"],
                bytes_streamed=8.0 * s["bond_candidates"] + 32.0 * n,
                bytes_reusable=24.0 * s["bond_candidates"],
                l1_working_set_kb=200.0,
                l2_working_set_mb=24.0 * n / 1e6,
                parallel_items=float(n),
                convergent_fraction=max(s["nbonds"] / max(s["bond_candidates"], 1), 0.05),
            )),
            # QEq matrix build: team hierarchical (rows x vector lanes) -> fully
            # convergent memory access (section 4.2.2)
            "qeq_matrix": kernel("ReaxQEqMatrixBuild", lambda s: dict(
                flops=45.0 * s["qeq_nnz"],
                bytes_streamed=12.0 * s["qeq_slots"],
                bytes_reusable=24.0 * s["qeq_nnz"],
                l1_working_set_kb=96.0,
                l2_working_set_mb=12.0 * s["qeq_slots"] / 1e6,
                parallel_items=2.0 * nlocal,
            )),
            # fused dual spmv: one matrix stream per iteration feeds both solves
            "qeq_solve": kernel("ReaxQEqSparseMatVec", lambda s: dict(
                flops=4.0 * s["qeq_nnz"] * max(s["qeq_iterations"], 1),
                # the matrix stream is compulsory; vector gathers are pointer-indirected
                # and latency-limited rather than cache-limited (appendix C.2), so
                # carveout sensitivity stays under 10%
                bytes_streamed=24.0 * s["qeq_nnz"] * max(s["qeq_iterations"], 1),
                bytes_reusable=4.0 * s["qeq_nnz"] * max(s["qeq_iterations"], 1),
                l1_working_set_kb=64.0,
                l2_working_set_mb=12.0 * s["qeq_nnz"] / 1e6,
                # rows are the independent scheduling unit (vector lanes within a row
                # retire together), so effective concurrency tracks the atom count — LJ
                # and ReaxFF saturate at similar sizes (fig. 4)
                parallel_items=2.0 * nlocal,
                launches=max(s["qeq_iterations"], 1),
            )),
            "nonbonded": kernel("ReaxNonbondedForce", lambda s: dict(
                flops=60.0 * s["nonbonded_pairs"],
                # the 10 A gather working set dwarfs any L1 configuration, so most
                # neighbor traffic streams — which is why the paper saw <10% carveout
                # sensitivity for ReaxFF kernels
                bytes_streamed=28.0 * s["nonbonded_pairs"] + 48.0 * n,
                bytes_reusable=8.0 * s["nonbonded_pairs"],
                l1_working_set_kb=2000.0,
                l2_working_set_mb=24.0 * n / 1e6,
                parallel_items=float(n),
            )),
            "bonds": kernel("ReaxBondForce", lambda s: dict(
                flops=40.0 * s["nbonds"],
                bytes_streamed=16.0 * s["nbonds"],
                parallel_items=float(n),
            )),
            # triplet/quad pre-processing: cheap, divergent (the point of the section
            # 4.2.1 split), then convergent force kernels over the compressed tables
            "tables": kernel("ReaxBuildAngleTorsionTables", lambda s: dict(
                flops=6.0 * (s["triplets"] + s["quad_candidates"]),
                bytes_streamed=16.0 * (s["triplets"] + s["quads"]),
                parallel_items=float(n),
                convergent_fraction=max(s["quads"] / max(s["quad_candidates"], 1), 0.05),
            )),
            "angles": kernel("ReaxAngleForce", lambda s: dict(
                flops=90.0 * s["triplets"],
                bytes_streamed=28.0 * s["triplets"],
                bytes_reusable=48.0 * s["triplets"],
                l1_working_set_kb=16.0 * max(s["nbonds"] / n, 1.0),
                parallel_items=float(max(s["triplets"], 1)),
            )),
            "torsions": kernel("ReaxTorsionForce", lambda s: dict(
                flops=220.0 * s["quads"],
                bytes_streamed=40.0 * s["quads"],
                bytes_reusable=64.0 * s["quads"],
                l1_working_set_kb=20.0 * max(s["nbonds"] / n, 1.0),
                parallel_items=float(max(s["quads"], 1)),
            )),
        }
