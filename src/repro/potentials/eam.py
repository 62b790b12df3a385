"""Embedded Atom Method pair style: ``pair_style eam/fs``.

EAM (Daw & Baskes 1983) is the many-body potential the paper's figure 1
uses to illustrate the KOKKOS class hierarchy — notably its *additional
communication*: the embedding derivative ``F'(rho_i)`` computed in the
density loop must be forward-communicated to ghost atoms before the force
loop can run.

The host style runs LAMMPS's ``pair_eam`` shape: a half list with newton
on, so each bond is evaluated once.  The density loop adds ``f(r_ij)`` to
both ends, a reverse communication of ``rho`` completes the owned
densities, and the force loop puts ``+F_ij`` on ``i`` and ``-F_ij`` on
``j`` (ghost forces go home in the integrator's reverse comm).
``eam/fs/kk`` keeps the full list with newton off, the GPU default.

The functional form here is a compact Finnis-Sinclair flavor with smooth
cutoffs (no potential files needed offline):

* density contribution   ``f(r)   = (rc - r)^2``
* embedding energy        ``F(rho) = -A * sqrt(rho)``
* pair repulsion          ``phi(r) = c * (rc - r)^2``

so ``E_i = F(rho_i) + 1/2 sum_j phi(r_ij)`` with
``rho_i = sum_j f(r_ij)``.  It is a real many-body potential (forces verified
against finite differences in the tests) with exactly LAMMPS-EAM's
communication and loop structure.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.errors import InputError
from repro.core.styles import register_pair
from repro.graph.pairwise import (
    ARENA,
    PROLOGUE,
    Stage,
    force_chain_stages,
    fresh,
    index_bounds,
    run_stages,
)
from repro.kokkos.segment import scatter_add
from repro.potentials.pair import Pair


class EAMMixin:
    """Shared EAM parameter handling and math."""

    def settings(self, args: list[str]) -> None:
        if len(args) < 1:
            raise InputError("pair_style eam/fs expects a cutoff")
        self.cut_global = float(args[0])
        if self.cut_global <= 0:
            raise InputError("cutoff must be positive")
        n = self.cut.shape[0]
        self.embed_A = np.zeros(n)  # per-type embedding strength
        self.pair_c = np.zeros((n, n))  # pair repulsion strength

    def coeff(self, args: list[str]) -> None:
        if len(args) != 4:
            raise InputError("pair_coeff i j <A_embed> <c_pair>")
        ti = self._parse_type(args[0])
        tj = self._parse_type(args[1])
        A, c = float(args[2]), float(args[3])
        if A < 0 or c < 0:
            raise InputError("eam/fs coefficients must be non-negative")
        for i in ti:
            self.embed_A[i] = A
        for i in ti:
            for j in tj:
                self.pair_c[i, j] = self.pair_c[j, i] = c
                self.cut[i, j] = self.cut[j, i] = self.cut_global
                self.setflag[i, j] = self.setflag[j, i] = True

    # analytic pieces, as functions of per-pair / per-atom coefficient
    # vectors (``rc`` the cutoff, ``cp`` the pair strength, ``A`` the
    # embedding strength) so stacked replicas with different coefficients
    # run the same expressions ---------------------------------------------
    def pair_coeffs(self, itype0: np.ndarray, jtype0: np.ndarray) -> dict:
        """Per-stored-pair coefficient vectors (constant between rebuilds)."""
        return {
            "cp0": self.pair_c[itype0, jtype0],
            "rc0": np.full(len(itype0), self.cut_global),
        }

    def dens(self, r: np.ndarray, rc: np.ndarray) -> np.ndarray:
        return (rc - r) ** 2

    def ddens(self, r: np.ndarray, rc: np.ndarray) -> np.ndarray:
        return -2.0 * (rc - r)

    def embed(self, rho: np.ndarray, A: np.ndarray) -> np.ndarray:
        return -A * np.sqrt(np.maximum(rho, 0.0))

    def dembed(self, rho: np.ndarray, A: np.ndarray) -> np.ndarray:
        safe = np.maximum(rho, 1e-30)
        return -0.5 * A / np.sqrt(safe)

    def phi(self, r: np.ndarray, cp: np.ndarray, rc: np.ndarray) -> np.ndarray:
        return cp * (rc - r) ** 2

    def dphi(self, r: np.ndarray, cp: np.ndarray, rc: np.ndarray) -> np.ndarray:
        return -2.0 * cp * (rc - r)


# ---------------------------------------------------------------- stage bodies
# The EAM force chain over cut pairs: fp_sum -> fpair -> (shared) fvec ->
# force_scatter -> tally.  ``env`` holds the cut geometry (``i_n``, ``j_n``,
# ``dx_n``, ``r_n``), the gathered coefficients (``cp_n``, ``rc_n``), the
# ``fp`` array and the pair style.
def eam_geometry(pair, x: np.ndarray) -> dict:
    """Cut geometry + gathered coefficient vectors over the whole list."""
    nlist = pair.lmp.neigh_list

    def bind():
        pair.bind_list(nlist)
        i0, j0, itype0, jtype0, cutsq0 = pair.pair_table(nlist, pair.lmp.atom)
        # kept, not lent from the arena: the geometry outlives the rho and fp
        # exchanges' yields, across which another rank's pass reuses the arena
        base = {"i0": i0, "j0": j0, "cutsq0": cutsq0, "take": fresh}
        index_bounds(base)  # once per list; each step's geometry copies it
        return base, pair.pair_coeffs(itype0, jtype0)

    base, coeffs = nlist.pair_cache().memo(("eam", id(pair)), bind)
    geo = dict(base, x=x)
    for fn in PROLOGUE:
        fn(geo)
    gather_eam_coeffs(geo, coeffs)
    return geo


def gather_eam_coeffs(geo: dict, coeffs: dict) -> None:
    idx = geo["idx"]
    geo["r_n"] = np.sqrt(geo["rsq_n"])
    geo["cp_n"] = np.take(coeffs["cp0"], idx)
    geo["rc_n"] = np.take(coeffs["rc0"], idx)


#: what the force chain reads of a geometry env
_GEOMETRY_KEYS = ("i_n", "j_n", "dx_n", "r_n", "cp_n", "rc_n")


def _eam_fp_sum(env: dict) -> None:
    fp, i = env["fp"], env["i_n"]
    env["fps_n"] = np.add(
        np.take(fp, i), np.take(fp, env["j_n"]), out=ARENA.take("eam_fps", len(i))
    )


def _eam_fpair(env: dict) -> None:
    # the (i, j) bond's force over r, -(phi' + (fp_i + fp_j) rho')/r, the same
    # in both list styles: a full list visits the bond from each end and
    # updates only i, a half list visits it once and updates both ends
    pair, r, rc = env["pair"], env["r_n"], env["rc_n"]
    d = pair.dphi(r, env["cp_n"], rc)
    t = env["fps_n"] * pair.ddens(r, rc)
    num = np.add(d, t, out=ARENA.take("fpair", len(r)))
    np.negative(num, out=num)
    env["fpair_n"] = np.divide(num, r, out=num)


def eam_energy(env: dict) -> None:
    env["evdwl_n"] = env["pair"].phi(env["r_n"], env["cp_n"], env["rc_n"])


def eam_force_stages() -> tuple[list[Stage], Stage]:
    """Stage declarations of the force chain."""
    chain, tally = force_chain_stages("eam_")
    return [Stage("eam_fp_sum", _eam_fp_sum), Stage("eam_fpair", _eam_fpair), *chain], tally


def eam_force_kernel(pair, geo: dict, fp: np.ndarray, f: np.ndarray):
    """``(env, stages, tally)`` of the force chain over a cut geometry.

    The scatter and tally follow the bound list: a full list (newton off)
    updates ``i`` only, a half list with newton on updates both ends.  The
    env and the Stage objects are bound once per rebuild (memoized on the
    pair cache); only the per-step geometry, ``fp`` and ``f`` are rebound.
    """
    nlist = pair.lmp.neigh_list

    def bind():
        full, newton = pair.bind_list(nlist)
        env = {
            "pair": pair, "f_view": None, "jl_n": None,
            "full": full, "newton": newton, "energy_fn": eam_energy,
        }
        return (env, *eam_force_stages())

    env, stages, tally = nlist.pair_cache().memo(("eam-force", id(pair)), bind)
    env.update({k: geo[k] for k in _GEOMETRY_KEYS})
    env.update(fp=fp, f=f)
    return env, stages, tally


@register_pair("eam/fs")
class PairEAM(EAMMixin, Pair):
    """Host EAM on a half list with newton on, as LAMMPS's ``pair_eam``."""

    def neighbor_request(self) -> tuple[str, bool]:
        # Each bond stored once: both loops update both ends, and the ghost
        # halves of rho and f are reverse-communicated to their owners.
        return "half", True

    # ------------------------------------------------------------- helpers
    def _embed_locals(self) -> None:
        """Embedding energy and its derivative fp for owned atoms."""
        atom = self.lmp.atom
        rho_local = atom.rho[: atom.nlocal]
        A = self.embed_A[atom.type[: atom.nlocal]]
        self.eng_vdwl += float(self.embed(rho_local, A).sum())
        atom.fp[: atom.nlocal] = self.dembed(rho_local, A)

    def _force_pass(self, geo: dict, eflag, vflag) -> None:
        atom = self.lmp.atom
        env, stages, tally = eam_force_kernel(self, geo, atom.fp, atom.f)
        run_stages(stages + [tally] if eflag or vflag else stages, env)

    # ------------------------------------------------------------- compute
    def compute_gen(self, eflag: bool = True, vflag: bool = True) -> Iterator[None]:
        lmp = self.lmp
        atom = lmp.atom
        nlist = lmp.neigh_list
        self.reset_tallies(eflag or vflag)
        atom.rho[: atom.nall] = 0.0
        atom.fp[: atom.nall] = 0.0
        # a rank without pairs still joins the rho and fp exchanges below
        if nlist is None:
            return

        geo = eam_geometry(self, atom.x[: atom.nall])

        # Loop 1: electron density, each bond to both ends; the ghost ends
        # go home, so every owned rho is complete before the embedding.
        d = self.dens(geo["r_n"], geo["rc_n"])
        scatter_add(atom.rho, geo["i_n"], d, assume_sorted=True)
        scatter_add(atom.rho, geo["j_n"], d)
        yield from lmp.comm_brick.reverse_comm(atom, "rho")
        self._embed_locals()

        # Figure 1's "additional communication": ghosts need fp before the
        # force loop can evaluate (fp_i + fp_j).
        yield from lmp.comm_brick.forward_comm_field(atom, "fp")

        # Loop 2: forces and pair energy; ghost forces return in the
        # integrator's reverse comm (needs_reverse_comm).
        self._force_pass(geo, eflag, vflag)
