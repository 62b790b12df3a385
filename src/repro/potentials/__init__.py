"""Pair styles: interatomic potentials.

Importing this package registers the pairwise styles (the LAMMPS analogue of
compiling a package in); the first ``pair_style`` that names one imports it
through :data:`repro.core.styles.STYLE_CATALOG`.  The reactive and
machine-learning potentials live in their own packages — :mod:`repro.reaxff`
and :mod:`repro.snap` — matching LAMMPS's REAXFF and ML-SNAP packages.
"""

from repro.potentials.pair import Pair
from repro.potentials import lj as _lj  # noqa: F401  (registers styles)
from repro.potentials import lj_kokkos as _ljk  # noqa: F401
from repro.potentials import eam as _eam  # noqa: F401
from repro.potentials import eam_kokkos as _eamk  # noqa: F401
from repro.potentials import gpu_package as _gpu  # noqa: F401

__all__ = ["Pair"]
