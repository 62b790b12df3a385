"""Tabulated EAM from funcfl potential files: ``pair_style eam``.

Real EAM potentials ship as DYNAMO *funcfl* files: a comment line, an
element line, a grid header ``nrho drho nr dr cutoff``, then three tabulated
functions — the embedding energy ``F(rho)``, the effective charge ``Z(r)``
(the pair term is ``phi(r) = hartree * bohr * Z(r)^2 / r``), and the density
function ``rho(r)``.  This style parses that format, builds cubic splines
(:class:`scipy.interpolate.CubicSpline`), and evaluates through exactly the
same two-loop + fp-communication structure as the analytic
:class:`~repro.potentials.eam.PairEAM`.

:func:`write_funcfl` generates files from callables, which is how the test
suite creates a funcfl of the analytic model and verifies the tabulated
path reproduces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.errors import InputError
from repro.core.styles import register_pair
from repro.potentials.eam import PairEAM

#: conversion in phi(r) = HARTREE_BOHR * Z_i(r) Z_j(r) / r (eV * Angstrom)
HARTREE_BOHR = 27.2 * 0.529


@dataclass
class FuncflTable:
    """Parsed funcfl contents."""

    element: str
    mass: float
    nrho: int
    drho: float
    nr: int
    dr: float
    cutoff: float
    f_rho: np.ndarray
    z_r: np.ndarray
    rho_r: np.ndarray


def write_funcfl(
    path: str,
    *,
    element: str,
    mass: float,
    cutoff: float,
    f_of_rho: Callable[[np.ndarray], np.ndarray],
    z_of_r: Callable[[np.ndarray], np.ndarray],
    rho_of_r: Callable[[np.ndarray], np.ndarray],
    nrho: int = 500,
    rho_max: float = 50.0,
    nr: int = 500,
) -> None:
    """Generate a funcfl file from callables (test/offline utility)."""
    drho = rho_max / (nrho - 1)
    dr = cutoff / (nr - 1)
    rho = np.arange(nrho) * drho
    r = np.arange(nr) * dr
    with open(path, "w") as fh:
        fh.write(f"funcfl generated by repro for {element}\n")
        fh.write(f"1 {mass:.4f} 1.0 fcc\n")
        fh.write(f"{nrho} {drho:.16e} {nr} {dr:.16e} {cutoff:.10f}\n")
        for arr in (f_of_rho(rho), z_of_r(r), rho_of_r(r)):
            for v in arr:
                fh.write(f"{v:.16e}\n")


def parse_funcfl(path: str) -> FuncflTable:
    with open(path) as fh:
        tokens_by_line = [ln.split() for ln in fh.read().splitlines()]
    if len(tokens_by_line) < 3:
        raise InputError(f"funcfl {path}: truncated header")
    elem_line = tokens_by_line[1]
    grid = tokens_by_line[2]
    if len(grid) != 5:
        raise InputError(f"funcfl {path}: grid line must have 5 fields")
    nrho, nr = int(grid[0]), int(grid[2])
    drho, dr, cutoff = float(grid[1]), float(grid[3]), float(grid[4])
    values: list[float] = []
    for toks in tokens_by_line[3:]:
        values.extend(float(t) for t in toks)
    need = nrho + 2 * nr
    if len(values) < need:
        raise InputError(
            f"funcfl {path}: expected {need} table values, found {len(values)}"
        )
    vals = np.asarray(values[:need])
    return FuncflTable(
        element=elem_line[3] if len(elem_line) > 3 else "X",
        mass=float(elem_line[1]),
        nrho=nrho,
        drho=drho,
        nr=nr,
        dr=dr,
        cutoff=cutoff,
        f_rho=vals[:nrho],
        z_r=vals[nrho : nrho + nr],
        rho_r=vals[nrho + nr :],
    )


@register_pair("eam")
class PairEAMFile(PairEAM):
    """funcfl-tabulated EAM (single element)."""

    def settings(self, args: list[str]) -> None:
        if args:
            raise InputError("pair_style eam takes no arguments (funcfl sets the cutoff)")
        if self.cut.shape[0] != 2:
            raise InputError("pair eam (funcfl) supports a single atom type")
        self.table: FuncflTable | None = None
        # the splines carry everything: the analytic model's per-type
        # coefficient tables exist only to feed the shared EAM chain
        self.embed_A = np.zeros(2)
        self.pair_c = np.zeros((2, 2))

    def coeff(self, args: list[str]) -> None:
        if len(args) != 3 or args[0] != "*" or args[1] != "*":
            raise InputError("usage: pair_coeff * * <file.funcfl>")
        # scipy costs ~0.5 s to import; only scripts that load a funcfl pay
        from scipy.interpolate import CubicSpline

        t = parse_funcfl(args[2])
        self.table = t
        self.cut_global = t.cutoff
        self.cut[1:, 1:] = t.cutoff
        self.setflag[1:, 1:] = True
        rho_grid = np.arange(t.nrho) * t.drho
        r_grid = np.arange(t.nr) * t.dr
        self._F = CubicSpline(rho_grid, t.f_rho)
        self._dF = self._F.derivative()
        # phi(r) = HARTREE_BOHR * Z(r)^2 / r; spline r*phi to stay finite
        # at the origin (the standard trick)
        rphi = HARTREE_BOHR * t.z_r**2
        self._rphi = CubicSpline(r_grid, rphi)
        self._drphi = self._rphi.derivative()
        self._rho = CubicSpline(r_grid, t.rho_r)
        self._drho = self._rho.derivative()

    def init(self) -> None:
        if self.table is None:
            raise InputError("pair eam: no funcfl file loaded")

    # analytic pieces are replaced by spline evaluations -------------------
    def dens(self, r: np.ndarray, rc: np.ndarray) -> np.ndarray:
        return self._rho(r)

    def ddens(self, r: np.ndarray, rc: np.ndarray) -> np.ndarray:
        return self._drho(r)

    def embed(self, rho: np.ndarray, A: np.ndarray) -> np.ndarray:
        return self._F(rho)

    def dembed(self, rho: np.ndarray, A: np.ndarray) -> np.ndarray:
        return self._dF(rho)

    def phi(self, r: np.ndarray, cp: np.ndarray, rc: np.ndarray) -> np.ndarray:
        return self._rphi(r) / r

    def dphi(self, r: np.ndarray, cp: np.ndarray, rc: np.ndarray) -> np.ndarray:
        # d(phi)/dr = (d(r phi)/dr - phi) / r
        return (self._drphi(r) - self._rphi(r) / r) / r
