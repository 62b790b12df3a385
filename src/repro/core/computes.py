"""Compute styles: diagnostics without state modification (section 2.2).

Computes report *local partial sums*; the thermo machinery performs the
global reduction, because in a multi-rank run reductions must pass through
the lockstep allreduce protocol.  Each compute's ``finalize`` normalizes
the summed partials.
"""

from __future__ import annotations

import numpy as np

from repro.core.styles import register_compute


class Compute:
    """Base compute.

    ``local_partials()`` returns an array of local contributions; after the
    allreduce, ``finalize(global_partials)`` turns them into the scalar the
    user asked for.
    """

    style_name = "compute"

    def __init__(self, lmp, compute_id: str, group: str, args: list[str]) -> None:
        self.lmp = lmp
        self.id = compute_id
        self.group = group

    def local_partials(self) -> np.ndarray:
        raise NotImplementedError

    def finalize(self, parts: np.ndarray) -> float:
        raise NotImplementedError


@register_compute("temp")
class ComputeTemp(Compute):
    """Kinetic temperature: ``sum(m v^2) / (dof * kB)`` with dof = 3N - 3."""

    def local_partials(self) -> np.ndarray:
        atom = self.lmp.atom
        m = atom.masses_of()
        v = atom.v[: atom.nlocal]
        msq = float(np.dot(m, np.einsum("ij,ij->i", v, v)))
        return np.array([msq, float(atom.nlocal)])

    def finalize(self, parts: np.ndarray) -> float:
        units = self.lmp.update.units
        msq, count = parts
        dof = max(3.0 * count - 3.0, 1.0)
        return units.mvv2e * msq / (dof * units.boltz)


@register_compute("ke")
class ComputeKE(Compute):
    """Total kinetic energy."""

    def local_partials(self) -> np.ndarray:
        atom = self.lmp.atom
        m = atom.masses_of()
        v = atom.v[: atom.nlocal]
        units = self.lmp.update.units
        return np.array(
            [0.5 * units.mvv2e * float(np.dot(m, np.einsum("ij,ij->i", v, v)))]
        )

    def finalize(self, parts: np.ndarray) -> float:
        return float(parts[0])


@register_compute("pe")
class ComputePE(Compute):
    """Total potential energy (pair contribution)."""

    def local_partials(self) -> np.ndarray:
        pair = self.lmp.pair
        if pair is None:
            return np.zeros(1)
        pair.require_tally()
        return np.array([pair.eng_vdwl + pair.eng_coul])

    def finalize(self, parts: np.ndarray) -> float:
        return float(parts[0])


@register_compute("pressure")
class ComputePressure(Compute):
    """Virial pressure: ``(sum m v^2 + sum(r . f)) / (3 V)``."""

    def local_partials(self) -> np.ndarray:
        atom = self.lmp.atom
        units = self.lmp.update.units
        m = atom.masses_of()
        v = atom.v[: atom.nlocal]
        msq = units.mvv2e * float(np.dot(m, np.einsum("ij,ij->i", v, v)))
        pair = self.lmp.pair
        w = 0.0
        if pair is not None:
            pair.require_tally()
            w = float(pair.virial[:3].sum())
        return np.array([msq, w])

    def finalize(self, parts: np.ndarray) -> float:
        vol = self.lmp.domain.volume
        return (parts[0] + parts[1]) / (3.0 * vol)
