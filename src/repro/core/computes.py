"""Compute styles: diagnostics without state modification (section 2.2).

Computes report *local partial sums*; the thermo machinery performs the
global reduction, because in a multi-rank run reductions must pass through
the lockstep allreduce protocol.  Each compute declares how its partials
combine and how the combined value is normalized.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InputError
from repro.core.styles import register_compute


class Compute:
    """Base compute.

    ``local_partials()`` returns an array of local contributions; after the
    allreduce, ``finalize(global_partials)`` turns them into the scalar the
    user asked for.
    """

    style_name = "compute"
    #: Partial vector length.
    nparts = 1

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

    nparts = 2  # [sum m v^2, count]

    def local_partials(self) -> np.ndarray:
        atom = self.lmp.atom
        mask = self.lmp.group_mask(self.group)
        m = atom.masses_of()[mask]
        v = atom.v[: atom.nlocal][mask]
        msq = float(np.dot(m, np.einsum("ij,ij->i", v, v)))
        return np.array([msq, float(mask.sum())])

    def finalize(self, parts: np.ndarray) -> float:
        units = self.lmp.update.units
        msq, count = parts
        dof = max(3.0 * count - 3.0, 1.0)
        return units.mvv2e * msq / (dof * units.boltz)


@register_compute("ke")
class ComputeKE(Compute):
    """Total kinetic energy of the group."""

    def local_partials(self) -> np.ndarray:
        atom = self.lmp.atom
        mask = self.lmp.group_mask(self.group)
        m = atom.masses_of()[mask]
        v = atom.v[: atom.nlocal][mask]
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
        total = pair.eng_vdwl + pair.eng_coul
        if self.lmp.kspace is not None:
            total += getattr(self.lmp.kspace, "energy_local", 0.0)
        return np.array([total])

    def finalize(self, parts: np.ndarray) -> float:
        return float(parts[0])


@register_compute("pressure")
class ComputePressure(Compute):
    """Virial pressure: ``(sum m v^2 + sum(r . f)) / (3 V)``."""

    nparts = 2  # [sum m v^2, trace of virial]

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
        if self.lmp.kspace is not None:
            w += float(self.lmp.kspace.virial[:3].sum())
        return np.array([msq, w])

    def finalize(self, parts: np.ndarray) -> float:
        vol = self.lmp.domain.volume
        return (parts[0] + parts[1]) / (3.0 * vol)


@register_compute("com")
class ComputeCOM(Compute):
    """Center-of-mass (returns the norm as a scalar; vector via partials)."""

    nparts = 4  # [m*x, m*y, m*z, m]

    def local_partials(self) -> np.ndarray:
        atom = self.lmp.atom
        mask = self.lmp.group_mask(self.group)
        m = atom.masses_of()[mask]
        x = atom.x[: atom.nlocal][mask]
        out = np.empty(4)
        out[:3] = (m[:, None] * x).sum(axis=0)
        out[3] = m.sum()
        return out

    def finalize(self, parts: np.ndarray) -> float:
        if parts[3] <= 0:
            raise InputError(f"compute {self.id}: empty group {self.group!r}")
        return float(np.linalg.norm(parts[:3] / parts[3]))

    def vector(self, parts: np.ndarray) -> np.ndarray:
        return parts[:3] / parts[3]
