"""The LAMMPS-miniature MD engine (paper section 2).

Importing this package registers the built-in fix and compute styles.  Pair
styles live in :mod:`repro.potentials`, :mod:`repro.reaxff` and
:mod:`repro.snap`; :data:`repro.core.styles.STYLE_CATALOG` names each style's
package, and the first script line that names a style imports it — as a
LAMMPS package costs nothing until a script uses one of its styles.
"""

from repro.core.lammps import Ensemble, Lammps, ReplicaSet
from repro.core import fixes_kokkos as _fkk  # noqa: F401  (registers /kk fixes)

__all__ = ["Lammps", "Ensemble", "ReplicaSet"]
