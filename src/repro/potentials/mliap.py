"""ML-IAP: machine-learning potentials supplied as Python callables.

Paper appendix A describes LAMMPS's second integration strategy for
Python-based machine-learning potentials: "embed a Python interpreter in
LAMMPS and use it to call the Python libraries ... The ML-IAP package in
LAMMPS supports this strategy".  Here the host *is* Python, so the embedding
collapses to a registry of model objects:

    from repro.potentials.mliap import register_mliap_model

    class MyModel:
        cutoff = 4.0
        def compute(self, rij, pair_i, nlocal):
            '''rij = x_neighbor - x_center per pair; returns
            (per-atom energies, dE/drij per pair).'''
            ...

    register_mliap_model("my_model", MyModel())

    # in the input script:
    pair_style mliap
    pair_coeff * * my_model

Forces follow LAMMPS MLIAP conventions: ``dE/drij`` is applied to the
neighbor and its negative to the center, with ghost contributions
reverse-communicated.  `examples/snap_training.py` uses this interface to
deploy a freshly trained linear-SNAP model without touching the engine.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.core.errors import InputError
from repro.core.styles import register_pair
from repro.kokkos.segment import scatter_add, scatter_sub
from repro.potentials.pair import Pair


class MLIAPModel(Protocol):
    """What a pluggable model must provide."""

    cutoff: float

    def compute(
        self, rij: np.ndarray, pair_i: np.ndarray, nlocal: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(energy_per_atom[nlocal], dE/drij[npairs, 3])``."""
        ...


_MODELS: dict[str, MLIAPModel] = {}


def register_mliap_model(name: str, model: MLIAPModel) -> None:
    """Make a Python model available to ``pair_coeff * * <name>``."""
    if not hasattr(model, "compute") or not hasattr(model, "cutoff"):
        raise InputError("an mliap model needs .cutoff and .compute(...)")
    _MODELS[name] = model


def unregister_mliap_model(name: str) -> None:
    _MODELS.pop(name, None)


@register_pair("mliap")
class PairMLIAP(Pair):
    """Pair style delegating energies/forces to a registered Python model."""

    def settings(self, args: list[str]) -> None:
        if args:
            raise InputError("pair_style mliap takes no arguments")
        self.model: MLIAPModel | None = None
        self.model_name = ""

    def coeff(self, args: list[str]) -> None:
        if len(args) != 3 or args[0] != "*" or args[1] != "*":
            raise InputError("usage: pair_coeff * * <registered-model-name>")
        name = args[2]
        if name not in _MODELS:
            raise InputError(
                f"no mliap model registered as {name!r}; "
                f"known: {sorted(_MODELS) or '(none)'}"
            )
        self.model = _MODELS[name]
        self.model_name = name
        self.cut[1:, 1:] = self.model.cutoff
        self.setflag[1:, 1:] = True

    def init(self) -> None:
        if self.model is None:
            raise InputError("pair mliap: no model selected (pair_coeff * * <name>)")

    def neighbor_request(self) -> tuple[str, bool]:
        return "full", False

    @property
    def needs_reverse_comm(self) -> bool:
        return True  # dE/drij lands on (possibly ghost) neighbors

    def max_cutoff(self) -> float:
        if self.model is None:
            raise InputError("pair mliap: no model selected")
        return float(self.model.cutoff)

    def compute(self, eflag: bool = True, vflag: bool = True) -> None:
        lmp = self.lmp
        atom = lmp.atom
        nlist = lmp.neigh_list
        self.reset_tallies()
        if nlist is None or nlist.total_pairs == 0:
            return
        i, j = nlist.ij_pairs()
        x = atom.x[: atom.nall]
        rij = x[j] - x[i]
        rsq = np.einsum("ij,ij->i", rij, rij)
        mask = rsq < self.model.cutoff**2
        i, j, rij = i[mask], j[mask], rij[mask]

        ei, dedr = self.model.compute(rij, i, atom.nlocal)
        ei = np.asarray(ei, dtype=float)
        dedr = np.asarray(dedr, dtype=float)
        if ei.shape != (atom.nlocal,):
            raise InputError(
                f"mliap model {self.model_name!r} returned energies of shape "
                f"{ei.shape}, expected ({atom.nlocal},)"
            )
        if dedr.shape != rij.shape:
            raise InputError(
                f"mliap model {self.model_name!r} returned gradients of shape "
                f"{dedr.shape}, expected {rij.shape}"
            )
        self.eng_vdwl += float(ei.sum())
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


class LinearSNAPModel:
    """A trained linear-SNAP model deployable through ``pair_style mliap``.

    ``E_i = beta . B_i`` with forces from the adjoint contraction — the
    same math as ``pair_style snap``, packaged as a plug-in model the way a
    PyTorch/JAX potential would be (appendix A's second strategy).
    """

    def __init__(self, beta: np.ndarray, twojmax: int, cutoff: float) -> None:
        from repro.snap.indexing import SnapIndex

        idx = SnapIndex(twojmax)
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (idx.nbispectrum,):
            raise ValueError(
                f"beta must have {idx.nbispectrum} components for 2J={twojmax}"
            )
        self.beta = beta
        self.twojmax = twojmax
        self.cutoff = float(cutoff)

    def descriptors(self, rij: np.ndarray, pair_i: np.ndarray, nlocal: int) -> np.ndarray:
        from repro.snap.bispectrum import compute_bispectrum
        from repro.snap.compute_ui import compute_ui

        U = compute_ui(rij, pair_i, nlocal, self.cutoff, self.twojmax)
        return compute_bispectrum(U, self.twojmax)

    def compute(self, rij, pair_i, nlocal):
        from repro.snap.bispectrum import compute_bispectrum
        from repro.snap.compute_deidrj import compute_fused_deidrj
        from repro.snap.compute_ui import compute_ui
        from repro.snap.compute_yi import compute_yi

        U = compute_ui(rij, pair_i, nlocal, self.cutoff, self.twojmax)
        ei = compute_bispectrum(U, self.twojmax) @ self.beta
        Y = compute_yi(U, self.beta, self.twojmax)
        dedr = compute_fused_deidrj(rij, pair_i, Y, self.cutoff, self.twojmax)
        return ei, dedr
