"""repro: a Python reproduction of LAMMPS-KOKKOS (SC Workshops '25).

A miniature LAMMPS with the KOKKOS package's architecture, the paper's
three case-study potentials (Lennard-Jones, ReaxFF-lite, SNAP) implemented
from scratch, and an analytic hardware model standing in for the exascale
GPUs and fabrics the paper measures.  See README.md for a tour, DESIGN.md
for the system inventory and substitution rationale, and EXPERIMENTS.md for
the paper-vs-measured record.

Top-level packages:

* :mod:`repro.core`       — the MD engine (input scripts, styles, dynamics)
* :mod:`repro.kokkos`     — the performance-portability layer
* :mod:`repro.hardware`   — simulated GPUs, CPUs, and interconnects
* :mod:`repro.parallel`   — simulated MPI + domain decomposition
* :mod:`repro.potentials` — LJ and EAM pair styles (+ the GPU-package baseline)
* :mod:`repro.reaxff`     — the reactive force field package, and
* :mod:`repro.snap`       — the SNAP machine-learning potential package, each
  loaded by the first ``pair_style`` that names one of its styles
* :mod:`repro.workloads`  — benchmark workload generators
* :mod:`repro.bench`      — the paper-figure harness (never imported by the
  CLI; wall-clock numbers come from ``bench_e2e/`` only)
* :mod:`repro.replica`    — the stacked replica engine, loaded by ``-r R``
* :mod:`repro.tune`       — the autotuner, loaded by ``--autotune``
"""

__version__ = "1.0.0"
