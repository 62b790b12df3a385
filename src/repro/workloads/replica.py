"""Replica spec builder: small parameterized members for batch tests.

The replica engine batches *many small systems* — parameter sweeps, seed
ensembles, short equilibrations.  A :class:`ReplicaSpec` names a workload
family from :data:`REPLICA_FAMILIES`, the size (fcc cells) and an optional
per-replica velocity seed; ``build()`` returns a fresh, fully
configured single-rank :class:`~repro.core.Lammps` ready for
``ReplicaBatch.add_replica``.  ``tests/test_replica_batch.py`` builds its
batched members and their solo references from it.

Families are a closed set (each maps to a batchable pair style), so unknown
names fail with the shared did-you-mean hint from
:func:`repro.core.errors.unknown_choice`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import LammpsError, unknown_choice
from repro.workloads.melt import MELT_TEMPLATE

#: family name -> the pair style its replicas run (all batchable styles).
REPLICA_FAMILIES = {
    "melt": "lj/cut",
}


@dataclass
class ReplicaSpec:
    """One buildable replica member.

    ``seed`` (when given) re-draws the initial velocities after the
    template's default, decorrelating replicas of the same family and size;
    ``thermo`` sets the output interval.
    """

    family: str = "melt"
    cells: int = 3
    thermo: int = 100
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.family not in REPLICA_FAMILIES:
            raise LammpsError(
                unknown_choice(
                    "replica family", self.family, tuple(sorted(REPLICA_FAMILIES))
                )
            )
        if self.cells < 1:
            raise LammpsError("replica spec needs cells >= 1")

    @property
    def pair_style(self) -> str:
        return REPLICA_FAMILIES[self.family]

    def build(self):
        """A fresh single-rank Lammps at this spec's ready-to-run state."""
        from repro.core import Lammps

        lmp = Lammps()
        lmp.commands_string(
            MELT_TEMPLATE.format(cells=self.cells, pair_style=self.pair_style)
        )
        if self.seed is not None:
            lmp.commands_string(f"velocity all create 1.44 {self.seed}")
        lmp.commands_string(f"thermo {self.thermo}")
        lmp.thermo.quiet = True
        return lmp

