"""Morse pair style: ``pair_style morse`` and ``morse/kk``.

``E = D [exp(-2 a (r - r0)) - 2 exp(-a (r - r0))]`` for ``r < rc``.  A
second simple pairwise potential demonstrating the pair_kokkos reuse story
of section 4.1: the Kokkos variant is *eight lines* — it supplies only the
force/energy expression and inherits every execution-policy variant from
the shared base.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InputError
from repro.core.styles import register_pair
from repro.potentials.pair import Pair
from repro.potentials.pair_kokkos import PairKokkos


class MorseMixin:
    """Shared Morse coefficient handling."""

    def settings(self, args: list[str]) -> None:
        if len(args) < 1:
            raise InputError("pair_style morse expects a global cutoff")
        self.cut_global = float(args[0])
        if self.cut_global <= 0:
            raise InputError("cutoff must be positive")
        n = self.cut.shape[0]
        self.d0 = np.zeros((n, n))
        self.alpha = np.zeros((n, n))
        self.r0 = np.zeros((n, n))
        self.offset = np.zeros((n, n))
        self.shift = False

    def coeff(self, args: list[str]) -> None:
        if len(args) < 5:
            raise InputError("pair_coeff i j D0 alpha r0 [cutoff]")
        ti = self._parse_type(args[0])
        tj = self._parse_type(args[1])
        d0, alpha, r0 = (float(a) for a in args[2:5])
        cut = float(args[5]) if len(args) > 5 else self.cut_global
        if d0 < 0 or alpha <= 0 or r0 <= 0:
            raise InputError("morse requires D0 >= 0, alpha > 0, r0 > 0")
        for i in ti:
            for j in tj:
                self.d0[i, j] = self.d0[j, i] = d0
                self.alpha[i, j] = self.alpha[j, i] = alpha
                self.r0[i, j] = self.r0[j, i] = r0
                self.cut[i, j] = self.cut[j, i] = cut
                self.setflag[i, j] = self.setflag[j, i] = True

    def init(self) -> None:
        super().init()
        self.offset[:] = 0.0
        if self.shift:
            with np.errstate(over="ignore"):
                ex = np.exp(-self.alpha * (self.cut - self.r0))
            self.offset = np.where(
                self.cut > 0, self.d0 * (ex * ex - 2.0 * ex), 0.0
            )

    def pair_eval(
        self, rsq: np.ndarray, itype: np.ndarray, jtype: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        r = np.sqrt(rsq)
        d0 = self.d0[itype, jtype]
        a = self.alpha[itype, jtype]
        ex = np.exp(-a * (r - self.r0[itype, jtype]))
        evdwl = d0 * (ex * ex - 2.0 * ex) - self.offset[itype, jtype]
        # fpair = -(dE/dr)/r
        fpair = 2.0 * d0 * a * (ex * ex - ex) / r
        return fpair, evdwl


@register_pair("morse")
class PairMorse(MorseMixin, Pair):
    """Host Morse with a half neighbor list — likewise the whole class."""


@register_pair("morse/kk")
class PairMorseKokkos(MorseMixin, PairKokkos):
    """Morse on the shared pair_kokkos machinery — the whole class."""
