"""Fix styles: operations invoked at fixed points in each timestep.

Paper section 2.2: fixes "are called at arbitrary points and intervals
during the simulation to either modify the trajectory of the simulation or
generate output".  The integrator calls the hook methods in LAMMPS's
canonical order: ``initial_integrate`` (before communication and forces),
``post_force`` (after forces), ``final_integrate``, ``end_of_step``.
"""

from __future__ import annotations

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


def nve_initial(atom, update) -> None:
    """``fix nve``'s first half-kick and drift of ``atom``'s owned rows."""
    _half_kick(atom, update)
    atom.x[: atom.nlocal] += update.dt * atom.v[: atom.nlocal]


def nve_final(atom, update) -> None:
    """``fix nve``'s second half-kick, after the new forces."""
    _half_kick(atom, update)


def _half_kick(atom, update) -> None:
    dtf = 0.5 * update.dt * update.units.ftm2v
    m = atom.masses_of()
    atom.v[: atom.nlocal] += dtf * atom.f[: atom.nlocal] / m[:, None]


@register_fix("nve")
class FixNVE(Fix):
    """Velocity-Verlet integration (microcanonical ensemble).

    The two half-kicks plus drift exactly match LAMMPS's ``fix nve``:
    ``v += dt/2 * f/m * ftm2v``, ``x += dt*v``, then after new forces
    another half-kick (:func:`nve_initial`, :func:`nve_final`; a replica
    batch runs the same two over its stacked atoms).
    """

    def initial_integrate(self) -> None:
        nve_initial(self.lmp.atom, self.lmp.update)

    def final_integrate(self) -> None:
        nve_final(self.lmp.atom, self.lmp.update)
