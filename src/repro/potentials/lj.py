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
from repro.graph.pairwise import ARENA, cut_value
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

    def pair_tables(self) -> dict:
        return {**super().pair_tables(), "lj1p": self.lj1, "lj2p": self.lj2,
                "lj3p": self.lj3, "lj4p": self.lj4}

    def eval_setup(self):
        return lj_force, lj_energy


def lj_force(env: dict) -> None:
    """LJ 12-6 force half over the cut pairs: ``fpair_n`` (and ``r6inv_n``
    for the energy half).

    ``r6inv = r2inv^3; fpair = r6inv * (lj1 * r6inv - lj2) * r2inv``, every
    ufunc landing in arena scratch; ``lj1``/``lj2`` are 0-d on a one-type
    run, else gathered per cut pair (:func:`~repro.graph.pairwise.cut_value`).
    """
    n = env["idx"].size
    r2 = np.divide(1.0, env["rsq_n"], out=ARENA.take("lj_r2", n))
    r6 = np.multiply(r2, r2, out=ARENA.take("lj_r6", n))
    env["r6inv_n"] = np.multiply(r6, r2, out=r6)
    t = np.multiply(cut_value(env, "lj1p", "fpair"), r6, out=ARENA.take("fpair", n))
    np.subtract(t, cut_value(env, "lj2p", "lj_c"), out=t)
    np.multiply(r6, t, out=t)
    env["fpair_n"] = np.multiply(t, r2, out=t)


def lj_energy(env: dict) -> None:
    """LJ 12-6 energy half: ``evdwl_n = r6inv * (lj3 * r6inv - lj4)``."""
    r6 = env["r6inv_n"]
    e = np.multiply(cut_value(env, "lj3p", "evdwl"), r6, out=ARENA.take("evdwl", r6.size))
    np.subtract(e, cut_value(env, "lj4p", "lj_c"), out=e)
    env["evdwl_n"] = np.multiply(r6, e, out=e)


@register_pair("lj/cut")
class PairLJCut(LJMixin, Pair):
    """Host LJ with a half neighbor list (the classic CPU path)."""
