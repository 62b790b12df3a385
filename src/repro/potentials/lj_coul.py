"""Charged pairwise style: ``pair_style lj/cut/coul/cut`` (+ ``/kk``).

Section 4 of the paper: "electrically charged systems may add the Coulomb
potential as well."  LJ dispersion plus a cut-off Coulomb term

    E = 4 eps [(s/r)^12 - (s/r)^6]  +  C q_i q_j / r

with independent LJ and Coulomb cutoffs, LAMMPS-style.  Both variants ride
the shared pairwise pass; the only addition is an eval hook that reads the
charges of the cut pairs (``i_n``/``j_n`` in the env) and tallies ``ecoul``
on its own channel.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InputError
from repro.core.styles import register_pair
from repro.potentials.lj import LJMixin, lj_energy, lj_force
from repro.potentials.pair import Pair
from repro.potentials.pair_kokkos import PairKokkos


class LJCoulMixin(LJMixin):
    """LJ + cut Coulomb coefficient handling and kernel."""

    def settings(self, args: list[str]) -> None:
        if len(args) < 1:
            raise InputError("pair_style lj/cut/coul/* <cut_lj> [cut_coul]")
        super().settings(args[:1])
        self.cut_coul = float(args[1]) if len(args) > 1 else self.cut_global
        if self.cut_coul <= 0:
            raise InputError("coulomb cutoff must be positive")

    def init(self) -> None:
        super().init()
        # the interaction (neighbor) cutoff is the larger of the two; the
        # LJ term keeps its own table for masking inside the kernel
        self.cut_lj = self.cut.copy()
        grown = np.maximum(self.cut, self.cut_coul)
        self.cut = np.where(self.setflag, grown, self.cut)

    def eval_setup(self, env: dict, itype0: np.ndarray, jtype0: np.ndarray):
        super().eval_setup(env, itype0, jtype0)
        env["cutsq_lj0"] = self.cut_lj[itype0, jtype0] ** 2
        return self._force_q, _masked_lj_energy

    def _force_q(self, env: dict) -> None:
        """LJ within its own cutoff plus ``C q_i q_j / r`` within cut_coul."""
        mask_lj_force(env)
        rsq, r2inv = env["rsq_n"], env["r2inv_n"]
        q = self.lmp.atom.q
        qq = self.lmp.update.units.qqr2e * q[env["i_n"]] * q[env["j_n"]]
        ecoul = np.where(rsq < self.cut_coul**2, qq * np.sqrt(r2inv), 0.0)
        env["ecoul_n"] = ecoul
        # d/dr of C q q / r, over r
        env["fpair_n"] = env["fpair_n"] + ecoul * r2inv


def mask_lj_force(env: dict) -> None:
    """:func:`lj_force` with pairs beyond the style's own LJ cutoff zeroed
    (the neighbor cutoff is the larger of the LJ and Coulomb ones)."""
    lj_force(env)
    env["lj_mask_n"] = env["rsq_n"] < np.take(env["cutsq_lj0"], env["idx"])
    env["fpair_n"] = np.where(env["lj_mask_n"], env["fpair_n"], 0.0)


def _masked_lj_energy(env: dict) -> None:
    lj_energy(env)
    env["evdwl_n"] = np.where(env["lj_mask_n"], env["evdwl_n"], 0.0)


@register_pair("lj/cut/coul/cut")
class PairLJCutCoulCut(LJCoulMixin, Pair):
    """Host charged LJ with a half neighbor list."""


@register_pair("lj/cut/coul/cut/kk")
class PairLJCutCoulCutKokkos(LJCoulMixin, PairKokkos):
    """Charged LJ on the shared Kokkos machinery: list styles, ScatterView,
    team variant and profiles are all inherited."""

    def kernel_name(self) -> str:
        return "PairComputeLJCutCoulCut"
