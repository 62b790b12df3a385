"""The LAMMPS-miniature MD engine (paper section 2).

Importing this package registers the built-in fix and compute styles; pair
styles register when :mod:`repro.potentials` (and the ReaxFF/SNAP packages)
are imported — mirroring LAMMPS's optional-package structure, where a style
exists only if its package was compiled in.
"""

from repro.core.lammps import Ensemble, Lammps, ReplicaSet
from repro.core import fixes_kokkos as _fkk  # noqa: F401  (registers /kk fixes)

__all__ = ["Lammps", "Ensemble", "ReplicaSet"]
