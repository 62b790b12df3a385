"""Benchmark workload generators for the paper's three case studies.

* :mod:`repro.workloads.melt` — the classic LJ argon melt (figures 2, 4, 5);
* :mod:`repro.workloads.hns` — an HNS-like CHNO molecular crystal surrogate
  for the ReaxFF benchmark (figures 4, 5, 6; see DESIGN.md substitutions);
* :mod:`repro.workloads.tantalum` — bcc Ta for the SNAP benchmark.

Each module exposes a ``setup_*`` helper that drives a
:class:`~repro.core.Lammps` (or :class:`~repro.core.Ensemble`) to a
ready-to-run state.
"""

from repro.workloads.melt import setup_melt
from repro.workloads.hns import hns_configuration, setup_hns
from repro.workloads.replica import REPLICA_FAMILIES, ReplicaSpec
from repro.workloads.tantalum import setup_tantalum

__all__ = [
    "setup_melt",
    "hns_configuration",
    "setup_hns",
    "setup_tantalum",
    "REPLICA_FAMILIES",
    "ReplicaSpec",
]
