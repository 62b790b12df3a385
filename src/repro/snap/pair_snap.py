"""``pair_style snap`` and ``pair_style snap/kk``.

Usage::

    pair_style snap <twojmax> <rcut>
    pair_coeff 1 1 <beta_scale> <beta_seed_mult>

Coefficients are synthetic: a seeded Gaussian vector scaled to
``beta_scale / sqrt(ncoeff)`` (DESIGN.md substitution table) — the index
space, kernel structure, and differentiability match the production Ta
potential of the paper (``2J_max = 8``, rcut 4.7 A).

The Kokkos style exposes the paper's tuning knobs — ComputeUi/Yi batch
factors, Deidrj fusion, and the ComputeYi atom-tile size ``v`` of section
4.3.2 — which alter only the kernel cost profiles; the physics is
bit-identical across all settings (asserted by tests).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

import repro.kokkos as kk
from repro.core.errors import InputError, LammpsError
from repro.core.styles import register_pair
from repro.graph.pairwise import ARENA, Stage, prologue_stages, run_many_body, run_stages
from repro.kokkos.core import Host
from repro.kokkos.segment import scatter_add, scatter_sub
from repro.potentials.pair import Pair, accumulate_virial
from repro.snap.compute_deidrj import compute_fused_deidrj
from repro.snap.compute_ui import compute_ui
from repro.snap.compute_yi import compute_yi
from repro.snap.indexing import SnapIndex


#: ComputeYi is charged ``tensor.nterms / 36`` terms per atom: 3.2x of it
#: is the symmetry folding the wall path measures (97 734 -> 30 598 terms
#: at 2J = 8), the other ~11x calibrates the modeled kernel to Table 2 and
#: is no term count anything executes (DESIGN.md section 3.5).
YI_CHARGED_TERM_DIVISOR = 36.0


def synthetic_beta(ncoeff: int, scale: float, seed: int = 777) -> np.ndarray:
    """Deterministic pseudo-random SNAP coefficients."""
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal(ncoeff) / np.sqrt(ncoeff)


def keep_once(tag_i, tag_j, local, d, step: int) -> np.ndarray:
    """Which stored pairs ``(i, j)`` to recurse, as a mask.

    ``u(-r) = u(r)^dagger``, so of a pair whose neighbor's owner is local
    (``local``) only one direction is kept: ``tag_i < tag_j``, or for a
    self-image (``tag_i == tag_j``) the displacement ``d = x_j - x_i`` whose
    first non-zero component is positive.  A pair whose neighbor is owned
    by another rank is kept as is: that rank computes the reverse.

    The halving is valid only if every owner-local pair's reverse is in the
    list, so the two directions must balance; a half list or an asymmetric
    build raises :class:`LammpsError` naming ``step``.  Each direction is
    cut every step by its own ``rsq``, and the two may differ in the last
    bit; they can disagree only at ``r = rcut``, where ``sfac = dsfac =
    0``, so which direction is kept changes nothing.
    """
    lead = d[np.arange(len(d)), np.argmax(d != 0.0, axis=1)] > 0.0
    image = tag_i == tag_j
    up = np.where(image, lead, tag_i < tag_j)
    for sel, what in (
        (local & ~image, "owner-local pairs have tag_i < tag_j and {} tag_i > tag_j"),
        (image, "self-image pairs point forward and {} back"),
    ):
        n_up, n_down = int(np.count_nonzero(sel & up)), int(np.count_nonzero(sel & ~up))
        if n_up != n_down:
            raise LammpsError(
                f"pair snap: neighbor list is not symmetric on timestep {step}: "
                f"{n_up} {what.format(n_down)} (a pair is recursed once, so "
                "every owner-local pair needs its reverse in the list: a full, "
                "symmetric build)"
            )
    return up | ~local


@register_pair("snap")
class PairSNAP(Pair):
    """Host SNAP."""

    def settings(self, args: list[str]) -> None:
        if len(args) < 2:
            raise InputError("pair_style snap <twojmax> <rcut>")
        self.twojmax = int(args[0])
        if not 0 <= self.twojmax <= 12:
            raise InputError("twojmax must be in [0, 12]")
        self.rcut = float(args[1])
        if self.rcut <= 0:
            raise InputError("rcut must be positive")
        self.rmin0 = 0.0
        self.index = SnapIndex(self.twojmax)
        self.beta: np.ndarray | None = None
        if self.cut.shape[0] != 2:
            raise InputError("pair snap supports a single atom type")
        self.last_stats: dict = {}

    def coeff(self, args: list[str]) -> None:
        if len(args) != 4:
            raise InputError("pair_coeff 1 1 <beta_scale> <beta_seed_mult>")
        scale = float(args[2])
        seed = int(777 * float(args[3]))
        self.beta = synthetic_beta(self.index.nbispectrum, scale, seed)
        self.cut[1, 1] = self.rcut
        self.setflag[1, 1] = True

    def init(self) -> None:
        if self.beta is None:
            raise InputError("pair snap: coefficients not set")

    def neighbor_request(self) -> tuple[str, bool]:
        return "full", False

    @property
    def needs_reverse_comm(self) -> bool:
        # dE_i/dr_j is applied to the neighbor (possibly a ghost) as well as
        # the center, so ghost forces must flow back to their owners.
        return True

    def max_cutoff(self) -> float:
        return self.rcut

    # --------------------------------------------------------------- compute
    def compute(self, eflag: bool = True, vflag: bool = True) -> None:
        self.reset_tallies(eflag or vflag)
        self.last_stats = {}
        nlist = self.lmp.neigh_list
        if nlist is None or nlist.total_pairs == 0:
            return
        env = {"eflag": eflag, "vflag": vflag}
        for _ in run_many_body(self.stages, env, self.stage_kernels()):
            pass  # no SNAP stage yields

    @cached_property
    def stages(self) -> list[Stage]:
        """The pipeline, host and ``/kk`` (:func:`run_many_body`)."""
        return [
            Stage("geometry", self._geometry),
            Stage("ui", self._ui),
            Stage("yi", self._yi),
            Stage("energy", self._energy),
            Stage("deidrj", self._deidrj),
            Stage("scatter", self._scatter),
        ]

    def _geometry(self, env: dict) -> None:
        # SNAP's convention is rij = x[j] - x[i]: the shared prologue runs
        # with the roles swapped, so its ``i_n`` holds j and vice versa
        atom, nlist = self.lmp.atom, self.lmp.neigh_list
        nlocal = env["nlocal"] = atom.nlocal
        x = atom.x[: atom.nall]
        geo, stages = nlist.pair_cache().memo(
            ("snap-geometry", id(self)), lambda: self._bind_geometry(nlist, x)
        )
        geo["x"] = x
        run_stages(stages, geo)
        # a C-ordered copy of the prologue's component rows, into the dead xi
        # rows: the Wigner einsums reduce over the component axis in an order
        # the layout sets
        i, j, d = geo["j_n"], geo["i_n"], geo["dx_n"]
        env["i"], env["j"] = i, j
        rij = env["rij"] = ARENA.take("xi", d.shape[1], 3)
        np.copyto(rij, d.T)
        partner = env["partner"] = np.take(geo["partner0"], geo["idx"])
        kept, partnered = len(i), int(np.count_nonzero(partner < nlocal))
        # directed in-cutoff pairs: each partnered pair stands for two
        self.last_stats.update(
            kept=kept, partnered=partnered, npairs=kept + partnered, natoms=nlocal
        )
        self.require_pairs(geo["rsq_n"] > 0.0, i, j, "has zero separation")

    def _ui(self, env: dict) -> None:
        # ComputeUi: one recursion per kept pair -> per-atom totals
        env["U"] = compute_ui(
            env["rij"], env["i"], env["nlocal"], self.rcut, self.twojmax,
            rmin0=self.rmin0, partner=env["partner"],
        )

    def _yi(self, env: dict) -> None:
        # ComputeYi: the folded adjoint
        env["Y"] = compute_yi(env["U"], self.beta, self.twojmax)

    def _energy(self, env: dict) -> None:
        # E = B . beta is homogeneous of degree 3 in (U, conj U), so by
        # Euler's identity Re(Y . U) = 3 E: the adjoint already holds it
        if env["eflag"]:
            Uh = np.take(env["U"], self.index.half, axis=0)
            self.eng_vdwl += float(np.real(env["Y"] * Uh).sum()) / 3.0

    def _deidrj(self, env: dict) -> None:
        # ComputeFusedDeidrj: per-pair force contraction, 3 directions,
        # against Y[i] + Ytilde[partner]: the derivative of both ends' energy
        dedr = env["dedr"] = compute_fused_deidrj(
            env["rij"], env["i"], env["Y"], self.rcut, self.twojmax,
            rmin0=self.rmin0, partner=env["partner"],
        )
        ok = np.isfinite(dedr).all(axis=1)
        self.require_pairs(ok, env["i"], env["j"], "has a non-finite dE/dr")

    def _scatter(self, env: dict) -> None:
        f, dedr = self.lmp.atom.f, env["dedr"]
        scatter_sub(f, env["j"], dedr)
        scatter_add(f, env["i"], dedr, assume_sorted=True)
        if env["vflag"]:
            accumulate_virial(self.virial, env["rij"], -dedr)

    def _bind_geometry(self, nlist, x: np.ndarray):
        """Per rebuild: the stored pairs to recurse (:func:`keep_once`), and
        each one's partner — the local owner of its neighbor, found through
        a tag -> local map, or ``nlocal`` for a neighbor owned elsewhere."""
        atom = self.lmp.atom
        nlocal = atom.nlocal
        i0, j0 = nlist.ij_pairs()
        tj = atom.tag[j0]
        local_tags = atom.tag[:nlocal]
        by_tag = np.argsort(local_tags)
        pos = np.searchsorted(local_tags, tj, sorter=by_tag)
        owner = by_tag[np.minimum(pos, max(nlocal - 1, 0))]
        local = local_tags[owner] == tj
        keep = keep_once(
            atom.tag[i0], tj, local, x[j0] - x[i0], self.lmp.update.ntimestep
        )
        env = {
            "i0": j0[keep], "j0": i0[keep], "cutsq0": self.rcut**2,
            "partner0": np.where(local, owner, nlocal)[keep],
        }
        return env, prologue_stages("snap_")


@register_pair("snap/kk")
class PairSNAPKokkos(PairSNAP):
    """Kokkos SNAP with the section 4.3/4.4 tuning knobs."""

    kokkos_style = True
    #: work-batching factors (Table 2), Deidrj fusion and the ComputeYi tile
    #: (4.3.2); :meth:`set_options` sets them per instance
    ui_batch = yi_batch = 4
    fuse_deidrj = True
    tile_v = 32

    def set_options(self, **knobs) -> None:
        """``ui_batch``, ``yi_batch``, ``tile_v`` (each >= 1), ``fuse_deidrj``."""
        for key, value in knobs.items():
            if key not in ("ui_batch", "yi_batch", "tile_v", "fuse_deidrj"):
                raise InputError(f"pair snap/kk: unknown option {key!r}")
            if key != "fuse_deidrj" and value < 1:
                raise InputError(f"{key} must be >= 1")
            setattr(self, key, value)

    def compute(self, eflag: bool = True, vflag: bool = True) -> None:
        atom_kk = self.lmp.atom_kk
        atom_kk.sync(self.execution_space, ("x", "type", "f"))
        super().compute(eflag, vflag)
        atom_kk.modified(Host, ("f",))

    # ------------------------------------------------------------- profiles
    def stage_kernels(self) -> dict:
        # ``npairs`` counts *directed* in-cutoff pairs (a partnered pair twice): the
        # host recurses each pair once, but the device kernels are charged per directed
        # pair, as LAMMPS-Kokkos SNAP runs the full list, so the modeled totals do not
        # follow the wall path's halving.
        space = self.execution_space
        idxu = self.index.idxu_max
        nterms_eff = max(self.index.tensor.nterms / YI_CHARGED_TERM_DIVISOR, 1.0)
        vector = max(min(self.twojmax + 1, 8), 1)

        def sizes() -> tuple[int, int]:  # measured by the geometry stage
            return max(self.last_stats["natoms"], 1), max(self.last_stats["npairs"], 1)

        def kernel(name: str, policy, fields) -> tuple:
            # dense quantum-number loops
            return name, policy, lambda: kk.KernelProfile(
                name=name, cpu_efficiency=0.15, **fields(*sizes())
            )

        # ComputeUi: recursive polynomial evaluation is compute bound (section 4.3.3);
        # atomic accumulation into U is the limiter until work batching sums `ui_batch`
        # neighbors in registers first, exposing instruction-level parallelism (4.3.4).
        recursion_flops = 40.0 * idxu
        ilp = min(1.0 + 0.12 * (self.ui_batch - 1), 1.4)
        ui = kernel(
            "ComputeUi",
            lambda: kk.TeamPolicy(
                space, league_size=max(sizes()[1] // (4 * self.ui_batch), 1),
                team_size=4, vector_length=vector, scratch_kb=20.0,
            ),
            lambda n, npairs: dict(
                flops=recursion_flops * npairs / ilp,
                bytes_streamed=32.0 * npairs + 16.0 * idxu * n,
                # one complex add per (pair, quantum number), batched ui_batch-fold
                atomic_ops=2.0 * idxu * npairs / self.ui_batch,
                # batching narrows the thread count but the extra per-thread ILP keeps
                # latency hidden; exposed parallelism stays pair-scaled
                parallel_items=float(npairs),
                l2_working_set_mb=16.0 * idxu * n / 1e6,
            ),
        )
        # ComputeYi: L1-throughput limited — per-atom U blocks stay hot for tile_v atoms
        # (section 4.3.2's 3-d tiling); Clebsch-Gordan look-up tables are warp-uniform
        # and their transactions amortize over the yi_batch atoms a thread handles (4.3.4).
        yi = kernel(
            "ComputeYi",
            lambda: kk.RangePolicy(space, 0, sizes()[0]),
            lambda n, npairs: dict(
                flops=6.0 * nterms_eff * n,
                bytes_streamed=4.0 * idxu * n,
                bytes_reusable=nterms_eff * (16.0 + 16.0 / self.yi_batch) * n,
                # the tile's U blocks (16 B complex x idxu x v atoms) plus the
                # warp-shared look-up tables; 160 kB at the H100-ideal v = 32
                l1_working_set_kb=16.0 * idxu * self.tile_v / 1024.0 + 18.0,
                batch_width=float(self.tile_v),
                # the tiled traversal keeps the L2-level footprint bounded
                l2_working_set_mb=40.0,
                parallel_items=float(n),
            ),
        )
        # ComputeFusedDeidrj: recursion + derivative + adjoint contraction per pair.
        # Unfused, three per-direction kernels each redo the u recursion and reload Y
        # (the Table 2 fusion).
        passes = 1 if self.fuse_deidrj else 3
        per_pass_flops = recursion_flops * (2.2 if self.fuse_deidrj else 1.0) + 16.0 * idxu
        deidrj = kernel(
            "ComputeFusedDeidrj" if self.fuse_deidrj else "ComputeDeidrj",
            lambda: kk.TeamPolicy(
                space, league_size=max(sizes()[1] // 4, 1),
                team_size=4, vector_length=vector, scratch_kb=34.0,
            ),
            lambda n, npairs: dict(
                flops=per_pass_flops * npairs * passes,
                bytes_streamed=(16.0 * idxu * n + 40.0 * npairs) * passes,
                bytes_reusable=16.0 * idxu * npairs / 40.0 * passes,
                l1_working_set_kb=96.0,
                l2_working_set_mb=32.0 * idxu * n / 1e6,
                parallel_items=float(npairs),
                launches=passes,
            ),
        )
        return {"ui": ui, "yi": yi, "deidrj": deidrj}
