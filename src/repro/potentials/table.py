"""Tabulated pair style: ``pair_style table``.

Exercises the generality of the pairwise machinery: any radial potential
can be tabulated and interpolated.  Tables are generated analytically at
``pair_coeff`` time (no potential files in this offline environment):

    pair_style table <N>
    pair_coeff i j lj <epsilon> <sigma>        # tabulated Lennard-Jones
    pair_coeff i j morse <D> <alpha> <r0>      # tabulated Morse

Linear interpolation in r^2 (LAMMPS's ``RSQ`` table mode), which makes the
energy/force lookup a single fused gather — the memory-access pattern the
section 4.4 cache study cares about.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InputError
from repro.core.styles import register_pair
from repro.potentials.pair import Pair


def _lj_ef(r: np.ndarray, eps: float, sig: float) -> tuple[np.ndarray, np.ndarray]:
    sr6 = (sig / r) ** 6
    e = 4.0 * eps * (sr6 * sr6 - sr6)
    f = 24.0 * eps * (2.0 * sr6 * sr6 - sr6) / r  # -dE/dr
    return e, f


def _morse_ef(r: np.ndarray, d: float, alpha: float, r0: float) -> tuple[np.ndarray, np.ndarray]:
    ex = np.exp(-alpha * (r - r0))
    e = d * (ex * ex - 2.0 * ex)
    f = 2.0 * d * alpha * (ex * ex - ex)  # -dE/dr
    return e, f


_GENERATORS = {"lj": (_lj_ef, 2), "morse": (_morse_ef, 3)}


@register_pair("table")
class PairTable(Pair):
    """Radially tabulated pair interactions with r^2-space interpolation."""

    def settings(self, args: list[str]) -> None:
        if len(args) < 2:
            raise InputError("pair_style table <N> <cutoff>")
        self.npoints = int(args[0])
        if self.npoints < 8:
            raise InputError("table needs >= 8 points")
        self.cut_global = float(args[1])
        if self.cut_global <= 0:
            raise InputError("cutoff must be positive")
        n = self.cut.shape[0]
        self.rsq_grid = np.linspace(
            (0.2 * self.cut_global) ** 2, self.cut_global**2, self.npoints
        )
        self.e_table = np.zeros((n, n, self.npoints))
        self.f_table = np.zeros((n, n, self.npoints))  # -dE/dr / r

    def coeff(self, args: list[str]) -> None:
        if len(args) < 3:
            raise InputError("pair_coeff i j <lj|morse> <params...>")
        ti = self._parse_type(args[0])
        tj = self._parse_type(args[1])
        kind = args[2]
        if kind not in _GENERATORS:
            raise InputError(
                f"unknown table generator {kind!r}; known: {sorted(_GENERATORS)}"
            )
        gen, nparams = _GENERATORS[kind]
        params = [float(a) for a in args[3:]]
        if len(params) != nparams:
            raise InputError(f"{kind} table expects {nparams} parameters")
        r = np.sqrt(self.rsq_grid)
        e, f = gen(r, *params)
        fpr = f / r  # tabulate force-over-r so the kernel never sqrt()s
        for i in ti:
            for j in tj:
                self.e_table[i, j] = self.e_table[j, i] = e
                self.f_table[i, j] = self.f_table[j, i] = fpr
                self.cut[i, j] = self.cut[j, i] = self.cut_global
                self.setflag[i, j] = self.setflag[j, i] = True

    def _interp(self, table: np.ndarray, rsq: np.ndarray, it: np.ndarray, jt: np.ndarray) -> np.ndarray:
        grid = self.rsq_grid
        pos = np.clip(np.searchsorted(grid, rsq) - 1, 0, self.npoints - 2)
        g0 = grid[pos]
        frac = (rsq - g0) / (grid[pos + 1] - g0)
        lo = table[it, jt, pos]
        hi = table[it, jt, pos + 1]
        return lo + frac * (hi - lo)

    def pair_eval(
        self, rsq: np.ndarray, itype: np.ndarray, jtype: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if rsq.size and rsq.min() < self.rsq_grid[0]:
            raise InputError(
                "pair distance below the table's inner bound; atoms overlapping"
            )
        return (
            self._interp(self.f_table, rsq, itype, jtype),
            self._interp(self.e_table, rsq, itype, jtype),
        )
