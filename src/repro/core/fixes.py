"""Fix styles: operations invoked at fixed points in each timestep.

Paper section 2.2: fixes "are called at arbitrary points and intervals
during the simulation to either modify the trajectory of the simulation or
generate output".  The integrator calls the hook methods in LAMMPS's
canonical order: ``initial_integrate`` (before communication and forces),
``post_force`` (after forces), ``final_integrate``, ``end_of_step``.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InputError
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


@register_fix("nve/limit")
class FixNVELimit(FixNVE):
    """NVE with per-step displacement cap (for violent initial overlaps)."""

    def __init__(self, lmp, fix_id, group, args) -> None:
        super().__init__(lmp, fix_id, group, args)
        if len(args) != 1:
            raise InputError("fix nve/limit expects: xmax")
        self.xmax = float(args[0])
        if self.xmax <= 0:
            raise InputError("fix nve/limit xmax must be positive")

    def initial_integrate(self) -> None:
        atom = self.lmp.atom
        sel = self.group_sel()
        self._half_kick()
        dx = self.lmp.update.dt * atom.v[: atom.nlocal][sel]
        norm = np.linalg.norm(dx, axis=1)
        scale = np.minimum(1.0, self.xmax / np.maximum(norm, 1e-300))
        atom.x[: atom.nlocal][sel] += dx * scale[:, None]


@register_fix("langevin")
class FixLangevin(Fix):
    """Langevin thermostat: friction + Gaussian random forces.

    ``fix ID group langevin Tstart Tstop damp seed``.  Applied in
    ``post_force`` like LAMMPS; combine with ``fix nve`` for Langevin
    dynamics.
    """

    def __init__(self, lmp, fix_id, group, args) -> None:
        super().__init__(lmp, fix_id, group, args)
        if len(args) != 4:
            raise InputError("fix langevin expects: Tstart Tstop damp seed")
        self.t_start = float(args[0])
        self.t_stop = float(args[1])
        self.damp = float(args[2])
        if self.damp <= 0:
            raise InputError("fix langevin damp must be positive")
        self.rng = np.random.default_rng(int(args[3]) + lmp.comm_rank)
        self.run_start = 0
        self.run_length = 1

    def init(self) -> None:
        self.run_start = self.lmp.update.ntimestep

    def current_target(self) -> float:
        """Linear ramp from Tstart to Tstop over the current run."""
        frac = (self.lmp.update.ntimestep - self.run_start) / max(self.run_length, 1)
        frac = min(max(frac, 0.0), 1.0)
        return self.t_start + (self.t_stop - self.t_start) * frac

    def post_force(self) -> None:
        atom = self.lmp.atom
        units = self.lmp.update.units
        mask = self.group_mask()
        n = int(mask.sum())
        if not n:
            return
        m = atom.masses_of()[mask][:, None]
        v = atom.v[: atom.nlocal][mask]
        target = self.current_target()
        gamma1 = -m / self.damp / units.ftm2v
        sigma = np.sqrt(
            2.0 * units.boltz * target * m / (self.damp * self.lmp.update.dt)
        ) / np.sqrt(units.ftm2v)
        noise = self.rng.standard_normal((n, 3))
        atom.f[: atom.nlocal][mask] += gamma1 * v + sigma * noise


@register_fix("setforce")
class FixSetForce(Fix):
    """Clamp force components (``NULL`` leaves a component untouched)."""

    def __init__(self, lmp, fix_id, group, args) -> None:
        super().__init__(lmp, fix_id, group, args)
        if len(args) != 3:
            raise InputError("fix setforce expects: fx fy fz (or NULL)")
        self.values = [None if a.upper() == "NULL" else float(a) for a in args]

    def post_force(self) -> None:
        atom = self.lmp.atom
        mask = self.group_mask()
        for d, val in enumerate(self.values):
            if val is not None:
                atom.f[: atom.nlocal, d][mask] = val


@register_fix("momentum")
class FixMomentum(Fix):
    """Zero the group's linear momentum every N steps."""

    def __init__(self, lmp, fix_id, group, args) -> None:
        super().__init__(lmp, fix_id, group, args)
        if len(args) < 1:
            raise InputError("fix momentum expects: N [linear]")
        self.every = int(args[0])
        if self.every < 1:
            raise InputError("fix momentum N must be >= 1")

    def end_of_step(self) -> None:
        if self.lmp.update.ntimestep % self.every:
            return
        atom = self.lmp.atom
        mask = self.group_mask()
        m = atom.masses_of()[mask]
        if not m.size:
            return
        v = atom.v[: atom.nlocal][mask]
        vcm = (m[:, None] * v).sum(axis=0) / m.sum()
        atom.v[: atom.nlocal][mask] -= vcm
