"""Fix styles: operations invoked at fixed points in each timestep.

Paper section 2.2: fixes "are called at arbitrary points and intervals
during the simulation to either modify the trajectory of the simulation or
generate output".  The integrator calls the hook methods in LAMMPS's
canonical order: ``initial_integrate`` (before communication and forces),
``post_force`` (after forces), ``final_integrate``, ``end_of_step``.
"""

from __future__ import annotations

import numpy as np

from repro.core.styles import register_fix


class Fix:
    """Base fix.  Subclasses override the hooks they need."""

    style_name = "fix"

    def __init__(self, lmp, fix_id: str, group: str, args: list[str]) -> None:
        self.lmp = lmp
        self.id = fix_id
        self.group = group

    # hooks -----------------------------------------------------------------
    def init(self) -> None:
        """Called once at run setup."""

    def initial_integrate(self) -> None:
        pass

    def post_force(self) -> None:
        pass

    def final_integrate(self) -> None:
        pass

    def end_of_step(self) -> None:
        pass

    # helpers ---------------------------------------------------------------
    def group_mask(self) -> np.ndarray:
        """Boolean mask of owned atoms in this fix's group."""
        return self.lmp.group_mask(self.group)

    def group_sel(self) -> np.ndarray | slice:
        """Group as an index: ``slice(None)`` for ``all`` (no gather), else the mask."""
        is_all = self.lmp.groups[self.group][0] == "all"
        return slice(None) if is_all else self.group_mask()


@register_fix("nve")
class FixNVE(Fix):
    """Velocity-Verlet integration (microcanonical ensemble).

    The two half-kicks plus drift exactly match LAMMPS's ``fix nve``:
    ``v += dt/2 * f/m * ftm2v``, ``x += dt*v``, then after new forces
    another half-kick.
    """

    def _half_kick(self) -> None:
        atom = self.lmp.atom
        sel = self.group_sel()
        dtf = 0.5 * self.lmp.update.dt * self.lmp.update.units.ftm2v
        m = atom.masses_of()
        atom.v[: atom.nlocal][sel] += dtf * atom.f[: atom.nlocal][sel] / m[sel, None]

    def initial_integrate(self) -> None:
        atom = self.lmp.atom
        sel = self.group_sel()
        self._half_kick()
        atom.x[: atom.nlocal][sel] += self.lmp.update.dt * atom.v[: atom.nlocal][sel]

    def final_integrate(self) -> None:
        self._half_kick()
