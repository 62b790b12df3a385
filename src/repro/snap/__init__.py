"""SNAP: the Spectral Neighbor Analysis Potential (paper section 4.3).

A from-scratch implementation of the machine-learning potential of
Thompson et al. (2015): atomic neighborhoods are expanded on the 3-sphere in
Wigner U-matrices computed by the half-integer recursion of equation 2,
bispectrum components are the Clebsch-Gordan triple products of equation 3,
and the energy is their learned linear combination (equation 4).  Forces
contract the adjoint of the energy against the recursion derivatives
(equation 5).

The module layout mirrors the paper's four-kernel decomposition, and every
array its section 4.3.1 layout — one flattened quantum-number index (j
slowest, m' fastest) first, the atom or pair index fastest:

* :mod:`repro.snap.cg` — exact Clebsch-Gordan coefficients on the
  half-integer (doubled-index) lattice;
* :mod:`repro.snap.indexing` — the flattening, its half range under the
  mirror symmetry (and the row maps that unfold or dagger it), the sparse
  contraction tensor and the folded, dest-sorted term plans built from it
  once per ``twojmax``;
* :mod:`repro.snap.wigner` — the Cayley-Klein/Wigner recursion for u and
  du/dr, one whole-level update per J over all (atom, neighbor) pairs;
* :mod:`repro.snap.compute_ui` — ComputeUi: per-pair u into per-atom
  ``U (idxu_max, natoms)``, one recursion per unordered pair;
* :mod:`repro.snap.bispectrum` — B components (energy / training targets;
  ``pair snap`` evaluates them on tallied steps only);
* :mod:`repro.snap.compute_yi` — ComputeYi: the single half-range adjoint
  ``Y (len(half), natoms)``;
* :mod:`repro.snap.compute_deidrj` — ComputeFusedDeidrj: ``Y`` contracted
  against u and du level by level, three directions in one pass;
* :mod:`repro.snap.pair_snap` — ``pair_style snap`` / ``snap/kk``.

Coefficients are synthetic (seeded pseudo-random; DESIGN.md substitution
table) but the potential is a real differentiable functional — rotation
invariance of B and finite-difference force consistency are property-tested.
"""

from repro.snap.indexing import SnapIndex

__all__ = ["SnapIndex"]

# Register the pair styles.  Imported last: pair_snap imports back into
# this package (LAMMPS package registration order has the same shape).
from repro.snap import pair_snap as _ps  # noqa: E402,F401

del _ps
