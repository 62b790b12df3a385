"""ReaxFF-lite parameter set.

Parameters are stored per atom *type* (the engine's 1-indexed types), with
pair quantities combined by standard rules.  The default set covers C, H, N,
O in ``real`` units (kcal/mol, Angstrom, electron charge) with values of the
right physical magnitude for an HNS-like molecular crystal — they are not a
fitted chemistry (DESIGN.md substitution table), but they produce bonded
networks, charge transfer, and torsional barriers with realistic sparsity,
which is what the paper's kernels are shaped by.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import InputError


@dataclass
class ReaxParams:
    """Per-type and derived pair parameters (index 0 unused, LAMMPS-style)."""

    ntypes: int
    #: species labels for diagnostics
    symbols: list[str]
    #: sigma-bond radius r0, Angstrom
    r0: np.ndarray
    #: bond-order decay: BO'(r) = exp(pbo1 * (r / r0_ij)^pbo2)
    pbo1: float
    pbo2: float
    #: bond-order cutoff below which a "bond" is dropped from the bond list
    bo_cut: float
    #: bond dissociation energy De, kcal/mol (pair = sqrt(De_i * De_j))
    de: np.ndarray
    #: valence-angle force constant, kcal/mol
    k_ang: np.ndarray
    #: equilibrium angle cosine per central species
    cos0: np.ndarray
    #: torsion barrier V2, kcal/mol
    v2: np.ndarray
    #: minimum bond-order product for a quad to contribute (section 4.2.1's
    #: "constraint on the product of the bond orders")
    bo_prod_cut: float
    #: vdW Morse well depth D (kcal/mol) and range alpha, radius rvdw (A)
    vdw_d: np.ndarray
    vdw_alpha: float
    vdw_r: np.ndarray
    #: EEM electronegativity chi (kcal/mol/e), hardness eta (kcal/mol/e^2),
    #: shielding gamma (A^-1 scale parameter, used as gamma_ij in the
    #: shielded kernel (r^3 + 1/gamma^3)^(-1/3))
    chi: np.ndarray
    eta: np.ndarray
    gamma: np.ndarray
    #: nonbonded cutoff (taper outer radius), Angstrom
    rcut_nonb: float = 10.0
    #: bond-list search cutoff, Angstrom
    rcut_bond: float = 4.0

    def __post_init__(self) -> None:
        n = self.ntypes + 1
        for name in ("r0", "de", "k_ang", "cos0", "v2", "vdw_d", "vdw_r", "chi", "eta", "gamma"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise InputError(f"ReaxParams.{name} must have shape ({n},)")
        if self.bo_cut <= 0 or self.bo_cut >= 1:
            raise InputError("bo_cut must be in (0, 1)")
        # bond_search_cut assumes BO(r) falls monotonically through bo_cut;
        # any other sign pair would silently shrink the bond search
        if not self.pbo1 < 0 < self.pbo2:
            raise InputError(
                f"bond order needs pbo1 < 0 < pbo2, got pbo1={self.pbo1}, "
                f"pbo2={self.pbo2}"
            )
        if self.rcut_bond >= self.rcut_nonb:
            raise InputError("bond cutoff must be below the nonbonded cutoff")

    @property
    def bond_search_cut(self) -> float:
        """Largest distance at which any type pair still has ``BO > bo_cut``.

        ``BO(r) = bo_cut`` at ``r0_ij * (ln bo_cut / pbo1)^(1/pbo2)``; the
        widest pair is the one with the largest ``r0_ij``, i.e. the largest
        per-type ``r0``.  Capped at ``rcut_bond`` (2.13 A for the CHNO set).
        """
        reach = (np.log(self.bo_cut) / self.pbo1) ** (1.0 / self.pbo2)
        # one part in 1e9 outward: the closed form rounds to a distance where
        # BO is a few ulp above bo_cut, and the search must cover that pair
        return min(float(self.r0[1:].max()) * reach * (1.0 + 1e-9), self.rcut_bond)

    # pair combination rules -------------------------------------------------
    def r0_ij(self, ti: np.ndarray, tj: np.ndarray) -> np.ndarray:
        return 0.5 * (self.r0[ti] + self.r0[tj])

    def de_ij(self, ti: np.ndarray, tj: np.ndarray) -> np.ndarray:
        return np.sqrt(self.de[ti] * self.de[tj])

    def vdw_d_ij(self, ti: np.ndarray, tj: np.ndarray) -> np.ndarray:
        return np.sqrt(self.vdw_d[ti] * self.vdw_d[tj])

    def vdw_r_ij(self, ti: np.ndarray, tj: np.ndarray) -> np.ndarray:
        return 0.5 * (self.vdw_r[ti] + self.vdw_r[tj])

    def gamma_ij(self, ti: np.ndarray, tj: np.ndarray) -> np.ndarray:
        return np.sqrt(self.gamma[ti] * self.gamma[tj])


def default_chno() -> ReaxParams:
    """C, H, N, O parameters (types 1-4)."""
    pad = lambda vals: np.array([0.0] + vals)
    return ReaxParams(
        ntypes=4,
        symbols=["", "C", "H", "N", "O"],
        r0=pad([1.42, 0.80, 1.30, 1.25]),
        pbo1=-0.18,
        pbo2=8.0,
        bo_cut=0.01,
        de=pad([120.0, 100.0, 130.0, 110.0]),
        k_ang=pad([35.0, 20.0, 40.0, 45.0]),
        cos0=pad([-0.5, -0.33, -0.45, -0.40]),  # ~120, 109, 117, 114 deg
        v2=pad([8.0, 2.0, 10.0, 6.0]),
        bo_prod_cut=0.02,
        vdw_d=pad([0.10, 0.02, 0.12, 0.09]),
        vdw_alpha=10.0,
        vdw_r=pad([3.8, 3.0, 3.6, 3.5]),
        chi=pad([125.0, 90.0, 160.0, 200.0]),
        eta=pad([160.0, 220.0, 170.0, 190.0]),
        gamma=pad([0.85, 0.75, 0.90, 0.95]),
    )
