"""``pair_style lj/cut/coul/long``: the Ewald real-space companion.

LJ dispersion plus the *screened* Coulomb term

    E = C q_i q_j erfc(g r) / r        (r < cut_coul)

whose complement lives in reciprocal space (:mod:`repro.kspace.ewald`).
The screening parameter ``g`` is owned by the kspace solver, so this style
requires ``kspace_style ewald`` to be active before a run.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import LammpsError
from repro.core.styles import register_pair
from repro.potentials.lj_coul import LJCoulMixin, mask_lj_force
from repro.potentials.pair import Pair

_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)


@register_pair("lj/cut/coul/long")
class PairLJCutCoulLong(LJCoulMixin, Pair):
    """Host LJ + real-space Ewald Coulomb, half neighbor list."""

    def init(self) -> None:
        if self.lmp.kspace is None:
            raise LammpsError(
                "pair_style lj/cut/coul/long requires kspace_style ewald"
            )
        super().init()

    def compute(self, eflag: bool = True, vflag: bool = True) -> None:
        if self.lmp.kspace.g_ewald <= 0.0:
            self.lmp.kspace.init()
        super().compute(eflag, vflag)

    def _force_q(self, env: dict) -> None:
        """LJ within its own cutoff plus the screened Coulomb term.

        ``E = C q q erfc(g r)/r``;
        ``-dE/dr / r = E/r^2 + C qq 2g/sqrt(pi) exp(-g^2 r^2) / r^2``.
        """
        # scipy costs ~0.5 s to import; only scripts naming this style pay
        from scipy.special import erfc

        mask_lj_force(env)
        rsq = env["rsq_n"]
        g = self.lmp.kspace.g_ewald
        q = self.lmp.atom.q
        qq = self.lmp.update.units.qqr2e * q[env["i_n"]] * q[env["j_n"]]
        r = np.sqrt(rsq)
        coul_mask = rsq < self.cut_coul**2
        e_coul = np.where(coul_mask, qq * erfc(g * r) / r, 0.0)
        f_coul = np.where(
            coul_mask,
            (e_coul + qq * _TWO_OVER_SQRT_PI * g * np.exp(-(g * r) ** 2)) / rsq,
            0.0,
        )
        env["ecoul_n"] = e_coul
        env["fpair_n"] = env["fpair_n"] + f_coul
