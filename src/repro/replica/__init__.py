"""Batched replica engine: R independent simulations, one set of kernels.

The paper's work-batching result (Table 2) amortizes kernel-launch overhead
by stacking independent work items into one dispatch; this package applies
the same idea one level up, stacking *whole replicas* onto the atom axis:
:class:`~repro.replica.batch.ReplicaBatch` packs R single-rank
:class:`~repro.core.Lammps` instances into one stacked
:class:`~repro.core.atom.AtomVec` (leading-replica segmentation) and steps
them all with one vectorized force/integrate/comm pass per step.
Per-replica results are bitwise identical to solo runs — the differential
tests enforce it.  The driver is :class:`repro.core.ReplicaSet` (``-r R`` on
the command line), which is also the only importer of this package.
"""

from repro.replica.batch import ReplicaBatch

__all__ = ["ReplicaBatch"]
