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

import numpy as np

import repro.kokkos as kk
from repro.core.errors import InputError, LammpsError
from repro.core.styles import register_pair
from repro.graph.pairwise import GRAPH, prologue_stages, run_graph, run_stages
from repro.kokkos.core import Device, Host
from repro.kokkos.segment import scatter_add, scatter_sub
from repro.potentials.pair import Pair
from repro.snap.bispectrum import compute_bispectrum
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
        lmp = self.lmp
        atom = lmp.atom
        nlist = lmp.neigh_list
        self.reset_tallies(eflag or vflag)
        stats = self.last_stats = {}
        if nlist is None or nlist.total_pairs == 0:
            return
        nlocal = atom.nlocal
        x = atom.x[: atom.nall]

        # SNAP's convention is rij = x[j] - x[i]: the shared prologue runs
        # with the roles swapped, so its ``i_n`` holds j and vice versa
        env, stages = nlist.pair_cache().memo(
            ("snap-geometry", id(self)), lambda: self._bind_geometry(nlist, x)
        )
        env["x"] = x
        if GRAPH:
            run_graph(
                (id(self), "snap-geometry"), (nlist.generation,),
                f"{type(self).__name__}/geometry", stages, env,
            )
        else:
            run_stages(stages, env)
        i, j, rij = env["j_n"], env["i_n"], env["dx_n"]
        partner = np.take(env["partner0"], env["idx"])
        stats["kept"] = len(i)
        stats["partnered"] = int(np.count_nonzero(partner < nlocal))
        # directed in-cutoff pairs: each partnered pair stands for two
        stats["npairs"] = stats["kept"] + stats["partnered"]
        stats["natoms"] = nlocal

        self._require(env["rsq_n"] > 0.0, "has zero separation", i, j)

        # (1) ComputeUi: one recursion per kept pair -> per-atom totals
        U = compute_ui(
            rij, i, nlocal, self.rcut, self.twojmax, rmin0=self.rmin0,
            partner=partner,
        )
        if eflag:
            # bispectrum components dotted with the learned coefficients
            B = compute_bispectrum(U, self.twojmax)
            self.eng_vdwl += float((B @ self.beta).sum())
        # (2) ComputeYi: the folded adjoint
        Y = compute_yi(U, self.beta, self.twojmax)
        # (3+4) ComputeFusedDeidrj: per-pair force contraction, 3 directions,
        # against Y[i] + Ytilde[partner]: the derivative of both ends' energy
        dedr = compute_fused_deidrj(
            rij, i, Y, self.rcut, self.twojmax, rmin0=self.rmin0,
            partner=partner,
        )
        self._require(np.isfinite(dedr).all(axis=1), "has a non-finite dE/dr", i, j)
        scatter_sub(atom.f, j, dedr)
        scatter_add(atom.f, i, dedr, assume_sorted=True)
        if vflag:
            w = -dedr
            self.virial[0] += float(np.dot(rij[:, 0], w[:, 0]))
            self.virial[1] += float(np.dot(rij[:, 1], w[:, 1]))
            self.virial[2] += float(np.dot(rij[:, 2], w[:, 2]))
            self.virial[3] += float(np.dot(rij[:, 0], w[:, 1]))
            self.virial[4] += float(np.dot(rij[:, 0], w[:, 2]))
            self.virial[5] += float(np.dot(rij[:, 1], w[:, 2]))
        self._charge_kernels(stats)

    def _require(self, ok: np.ndarray, what: str, i, j) -> None:
        """Fail loudly, naming step and pair, before a NaN reaches ``f``."""
        if ok.all():
            return
        k = int(np.flatnonzero(~ok)[0])
        tag = self.lmp.atom.tag
        raise LammpsError(
            f"pair snap: pair ({int(tag[i[k]])}, {int(tag[j[k]])}) {what} "
            f"on timestep {self.lmp.update.ntimestep}"
        )

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
        return env, prologue_stages(Host, len(env["i0"]), "snap_", gather_bytes=80.0)

    def _charge_kernels(self, stats: dict) -> None:
        """Hook for the Kokkos style."""


@register_pair("snap/kk")
class PairSNAPKokkos(PairSNAP):
    """Kokkos SNAP with the section 4.3/4.4 tuning knobs."""

    kokkos_style = True

    def __init__(self, lmp, args, execution_space: str = "device") -> None:
        self.execution_space = Device if execution_space == "device" else Host
        #: work-batching factors (Table 2) and the ComputeYi tile (4.3.2)
        self.ui_batch = 4
        self.yi_batch = 4
        self.fuse_deidrj = True
        self.tile_v = 32
        super().__init__(lmp, args)

    def set_options(
        self,
        *,
        ui_batch: int | None = None,
        yi_batch: int | None = None,
        fuse_deidrj: bool | None = None,
        tile_v: int | None = None,
    ) -> None:
        if ui_batch is not None:
            if ui_batch < 1:
                raise InputError("ui_batch must be >= 1")
            self.ui_batch = ui_batch
        if yi_batch is not None:
            if yi_batch < 1:
                raise InputError("yi_batch must be >= 1")
            self.yi_batch = yi_batch
        if fuse_deidrj is not None:
            self.fuse_deidrj = fuse_deidrj
        if tile_v is not None:
            if tile_v < 1:
                raise InputError("tile_v must be >= 1")
            self.tile_v = tile_v

    def compute(self, eflag: bool = True, vflag: bool = True) -> None:
        atom_kk = self.lmp.atom_kk
        atom_kk.sync(self.execution_space, ("x", "type", "f"))
        super().compute(eflag, vflag)
        atom_kk.modified(Host, ("f",))

    # ------------------------------------------------------------- profiles
    def _charge_kernels(self, stats: dict) -> None:
        # ``npairs`` counts *directed* in-cutoff pairs (a partnered pair
        # twice): the host recurses each pair once, but the device kernels
        # are charged per directed pair, as LAMMPS-Kokkos SNAP runs the full
        # list, so the modeled totals do not follow the wall path's halving.
        space = self.execution_space
        n = max(stats.get("natoms", 1), 1)
        npairs = max(stats.get("npairs", 1), 1)
        idxu = self.index.idxu_max
        nterms_eff = max(self.index.tensor.nterms / YI_CHARGED_TERM_DIVISOR, 1.0)

        def charge(name: str, policy=None, **kw) -> None:
            kw.setdefault("cpu_efficiency", 0.15)  # dense quantum-number loops
            prof = kk.KernelProfile(name=name, **kw)
            pol = policy or kk.RangePolicy(space, 0, n)
            kk.parallel_for(name, pol, lambda idx: None, profile=prof)

        # ComputeUi: recursive polynomial evaluation is compute bound
        # (section 4.3.3); atomic accumulation into U is the limiter until
        # work batching sums `ui_batch` neighbors in registers first, which
        # also exposes instruction-level parallelism (section 4.3.4).
        recursion_flops = 40.0 * idxu
        ilp = min(1.0 + 0.12 * (self.ui_batch - 1), 1.4)
        charge(
            "ComputeUi",
            policy=kk.TeamPolicy(
                space,
                league_size=max(npairs // (4 * self.ui_batch), 1),
                team_size=4,
                vector_length=max(min(self.twojmax + 1, 8), 1),
                scratch_kb=20.0,
            ),
            flops=recursion_flops * npairs / ilp,
            bytes_streamed=32.0 * npairs + 16.0 * idxu * n,
            # one complex add per (pair, quantum number), pre-summed over
            # ui_batch neighbors
            atomic_ops=2.0 * idxu * npairs / self.ui_batch,
            # batching narrows the thread count but the extra per-thread ILP
            # keeps latency hidden; exposed parallelism stays pair-scaled
            parallel_items=float(npairs),
            l2_working_set_mb=16.0 * idxu * n / 1e6,
        )
        # ComputeYi: L1-throughput limited — per-atom U blocks stay hot for
        # tile_v atoms (section 4.3.2's 3-d tiling); Clebsch-Gordan look-up
        # tables are warp-uniform and their transactions amortize over the
        # yi_batch atoms each thread handles (section 4.3.4).
        charge(
            "ComputeYi",
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
        )
        # ComputeFusedDeidrj: recursion + derivative + adjoint contraction
        # per pair.  Unfused, three per-direction kernels each redo the u
        # recursion and reload Y (the Table 2 fusion).
        passes = 1 if self.fuse_deidrj else 3
        name = "ComputeFusedDeidrj" if self.fuse_deidrj else "ComputeDeidrj"
        per_pass_flops = (
            recursion_flops * (2.2 if self.fuse_deidrj else 1.0) + 16.0 * idxu
        )
        charge(
            name,
            policy=kk.TeamPolicy(
                space,
                league_size=max(npairs // 4, 1),
                team_size=4,
                vector_length=max(min(self.twojmax + 1, 8), 1),
                scratch_kb=34.0,
            ),
            flops=per_pass_flops * npairs * passes,
            bytes_streamed=(16.0 * idxu * n + 40.0 * npairs) * passes,
            bytes_reusable=16.0 * idxu * npairs / 40.0 * passes,
            l1_working_set_kb=96.0,
            l2_working_set_mb=32.0 * idxu * n / 1e6,
            parallel_items=float(npairs),
            launches=passes,
        )
