"""Plain (non-Kokkos) Lennard-Jones pair style: ``pair_style lj/cut``.

Equation 1 of the paper: ``E = sum 4 eps [(sigma/r)^12 - (sigma/r)^6]`` over
pairs within the cutoff.  This is the baseline host implementation — half
neighbor list, newton per the global setting — against which the Kokkos
variants are verified and benchmarked (figure 5's CPU normalization).
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InputError
from repro.core.styles import register_pair
from repro.graph.pairwise import ARENA, gather
from repro.potentials.pair import Pair


class LJMixin:
    """Shared LJ coefficient handling (plain and Kokkos styles)."""

    def _lj_alloc(self) -> None:
        n = self.cut.shape[0]
        self.epsilon = np.zeros((n, n))
        self.sigma = np.zeros((n, n))
        # precomputed kernel constants, LAMMPS names: lj1/lj2 force,
        # lj3/lj4 energy
        self.lj1 = np.zeros((n, n))
        self.lj2 = np.zeros((n, n))
        self.lj3 = np.zeros((n, n))
        self.lj4 = np.zeros((n, n))
        self.offset = np.zeros((n, n))
        self.shift = False

    def settings(self, args: list[str]) -> None:
        if len(args) < 1:
            raise InputError("pair_style lj/cut expects a global cutoff")
        self.cut_global = float(args[0])
        if self.cut_global <= 0:
            raise InputError("cutoff must be positive")
        self._lj_alloc()

    def coeff(self, args: list[str]) -> None:
        if len(args) < 4:
            raise InputError("pair_coeff i j epsilon sigma [cutoff]")
        ti = self._parse_type(args[0])
        tj = self._parse_type(args[1])
        eps, sig = float(args[2]), float(args[3])
        cut = float(args[4]) if len(args) > 4 else self.cut_global
        for i in ti:
            for j in tj:
                a, b = min(i, j), max(i, j)
                self.epsilon[a, b] = eps
                self.sigma[a, b] = sig
                self.cut[a, b] = cut
                self.setflag[a, b] = True
                self._set_constants(a, b)

    def init_one(self, i: int, j: int) -> None:
        # Lorentz-Berthelot mixing: geometric epsilon, arithmetic sigma.
        self.epsilon[i, j] = np.sqrt(self.epsilon[i, i] * self.epsilon[j, j])
        self.sigma[i, j] = 0.5 * (self.sigma[i, i] + self.sigma[j, j])
        self.cut[i, j] = max(self.cut[i, i], self.cut[j, j])
        self.setflag[i, j] = True
        self._set_constants(i, j)

    def _set_constants(self, i: int, j: int) -> None:
        eps, sig = self.epsilon[i, j], self.sigma[i, j]
        self.lj1[i, j] = self.lj1[j, i] = 48.0 * eps * sig**12
        self.lj2[i, j] = self.lj2[j, i] = 24.0 * eps * sig**6
        self.lj3[i, j] = self.lj3[j, i] = 4.0 * eps * sig**12
        self.lj4[i, j] = self.lj4[j, i] = 4.0 * eps * sig**6
        for (a, b) in ((i, j), (j, i)):
            self.epsilon[a, b] = eps
            self.sigma[a, b] = sig
            self.cut[a, b] = self.cut[i, j]
            self.setflag[a, b] = True

    def init(self) -> None:
        super().init()
        self.offset[:] = 0.0
        if self.shift:
            with np.errstate(divide="ignore"):
                rc6 = np.where(self.cut > 0, self.cut, np.inf) ** -6
            self.offset = self.lj3 * rc6 * rc6 - self.lj4 * rc6

    def eval_setup(self, env: dict, itype0: np.ndarray, jtype0: np.ndarray):
        """Pre-gather the per-stored-pair coefficient vectors, once per rebuild.

        The 2-D ``lj1[itype, jtype]`` lookups become 1-D ``gather`` calls
        against these vectors inside :func:`lj_force` / :func:`lj_energy`.
        """
        # one flat type-pair index, then 1-D takes (2-D fancy indexing is
        # several times slower, and this runs inside the Pair region)
        k = itype0 * self.lj1.shape[1] + jtype0
        env["lj1p"] = self.lj1.ravel().take(k)
        env["lj2p"] = self.lj2.ravel().take(k)
        env["lj3p"] = self.lj3.ravel().take(k)
        env["lj4p"] = self.lj4.ravel().take(k)
        env["offp"] = self.offset.ravel().take(k)
        return lj_force, lj_energy


def lj_force(env: dict) -> None:
    """LJ 12-6 force half over the cut pairs: ``fpair_n`` (and ``r2inv_n``,
    ``r6inv_n`` for the energy half and the charged styles).

    ``r6inv = r2inv^3; fpair = r6inv * (lj1 * r6inv - lj2) * r2inv``, every
    ufunc landing in arena scratch.
    """
    idx = env["idx"]
    n = idx.size
    r2 = env["r2inv_n"] = np.divide(1.0, env["rsq_n"], out=ARENA.take("lj_r2", n))
    r6 = np.multiply(r2, r2, out=ARENA.take("lj_r6", n))
    env["r6inv_n"] = np.multiply(r6, r2, out=r6)
    t = gather(env["lj1p"], idx, ARENA.take("fpair", n))
    np.multiply(t, r6, out=t)
    np.subtract(t, gather(env["lj2p"], idx, ARENA.take("lj_c", n)), out=t)
    np.multiply(r6, t, out=t)
    env["fpair_n"] = np.multiply(t, r2, out=t)


def lj_energy(env: dict) -> None:
    """LJ 12-6 energy half: ``evdwl_n = r6inv * (lj3 * r6inv - lj4) - offset``."""
    idx = env["idx"]
    n = idx.size
    r6 = env["r6inv_n"]
    c = ARENA.take("lj_c", n)
    e = gather(env["lj3p"], idx, ARENA.take("evdwl", n))
    np.multiply(e, r6, out=e)
    np.subtract(e, gather(env["lj4p"], idx, c), out=e)
    np.multiply(r6, e, out=e)
    env["evdwl_n"] = np.subtract(e, gather(env["offp"], idx, c), out=e)


@register_pair("lj/cut")
class PairLJCut(LJMixin, Pair):
    """Host LJ with a half neighbor list (the classic CPU path)."""
