"""Workload definitions and seed-driven input generation.

Every workload is one real ``python -m repro -in <script> <flags>`` run.
``render`` turns ``(workload, seed, steps)`` into the files that run reads —
the input script and, for ``hns``, a ``read_data`` file — so the program
receives only generated inputs and the same seed gives the same bytes.

The seed is baked into the script text: ``-var seed 4711`` would reach the
``velocity`` command as ``4711.0``, which it rejects.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: the seed whose thermo rows are committed under ``reference/``
DEFAULT_SEED = 1
#: ``BENCHMARK.json``'s ``run_seconds``: ``--seconds`` scales every step
#: count by ``seconds / NOMINAL_SECONDS`` (one common factor, never atoms)
NOMINAL_SECONDS = 5


@dataclass(frozen=True)
class Workload:
    name: str  # the rationale for each is BENCHMARK.json's "why"
    #: script body up to (not including) the ``run`` commands; ``{vseed}``
    #: is the velocity seed, ``{replica}`` the per-replica seed suffix,
    #: ``{data}`` the generated data file (hns)
    body: str
    #: CLI flags after ``-in <script>``
    flags: tuple[str, ...]
    #: lattice cells per edge (``{cells}``); hns: molecular cells (nx, ny, nz)
    cells: int | tuple[int, int, int]
    atoms: int  # per replica
    steps: int  # timed ``run N`` at NOMINAL_SECONDS
    thermo: int  # thermo interval; step counts are multiples of it
    #: ceiling on NVE |dE/E| between the first and last row of ``run N``
    drift_ceiling: float
    replicas: int = 1
    #: a workload whose printed rows must equal this one's (same physics
    #: through another path)
    same_rows_as: str | None = None


_MELT_BODY = """\
units           lj
lattice         fcc 0.8442
region          box block 0 {cells} 0 {cells} 0 {cells}
create_box      1 box
create_atoms    1 box
mass            1 1.0
velocity        all create 1.44 {vseed}{replica}
pair_style      lj/cut 2.5
pair_coeff      1 1 1.0 1.0
neighbor        0.3 bin
neigh_modify    every 20 delay 0 check no
fix             1 all nve
thermo          {thermo}
"""

_EAM_BODY = """\
units           metal
lattice         fcc 3.52
region          box block 0 {cells} 0 {cells} 0 {cells}
create_box      1 box
create_atoms    1 box
mass            1 58.7
velocity        all create 3000 {vseed}
pair_style      eam/fs 4.5
pair_coeff      * * 2.0 0.3
neighbor        0.3 bin
neigh_modify    every 1 delay 0 check yes
fix             1 all nve
thermo          {thermo}
"""

_HNS_BODY = """\
units           real
boundary        p p p
atom_style      charge
read_data       {data}
velocity        all create 300.0 {vseed}
pair_style      reaxff cutoff 5.0
pair_coeff      * * chno C H N O
neighbor        1.0 bin
neigh_modify    every 10 delay 0 check no
timestep        0.1
fix             1 all nve
thermo          {thermo}
"""

_TANTALUM_BODY = """\
units           metal
boundary        p p p
lattice         bcc 3.316
region          box block 0 {cells} 0 {cells} 0 {cells}
create_box      1 box
create_atoms    1 box
mass            1 180.95
velocity        all create 600.0 {vseed}
pair_style      snap 8 4.7
pair_coeff      1 1 0.5 1.0
neighbor        1.0 bin
neigh_modify    every 20 delay 0 check no
timestep        0.0005
fix             1 all nve
thermo          {thermo}
"""


_MELT = dict(body=_MELT_BODY, cells=12, atoms=6912, steps=100, thermo=50,
             drift_ceiling=1e-2)

WORKLOADS: tuple[Workload, ...] = (
    Workload("melt", flags=(), **_MELT),
    Workload("melt_np4", flags=("-np", "4"), same_rows_as="melt", **_MELT),
    Workload("melt_kk", flags=("-k", "on", "-sf", "kk"), same_rows_as="melt", **_MELT),
    Workload("melt_autotune", flags=("--autotune", "model", "--tune-plan", "none"),
             **_MELT),
    Workload("melt_replicas", flags=("-r", "16"), body=_MELT_BODY, cells=2, atoms=32,
             replicas=16, steps=1500, thermo=50, drift_ceiling=2e-2),
    Workload("eam", flags=(), body=_EAM_BODY, cells=8, atoms=2048,
             steps=200, thermo=50, drift_ceiling=1e-4),
    Workload("hns", flags=(), body=_HNS_BODY, cells=(3, 4, 4), atoms=288,
             steps=200, thermo=10, drift_ceiling=1e-2),
    Workload("tantalum", flags=(), body=_TANTALUM_BODY, cells=4, atoms=128,
             steps=15, thermo=5, drift_ceiling=1e-4),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def scaled_steps(w: Workload, seconds: float) -> int:
    """Timed step count for a ``--seconds`` budget: a positive multiple of
    the thermo interval, so the last step of ``run N`` prints a row."""
    quanta = round(w.steps * seconds / NOMINAL_SECONDS / w.thermo)
    return max(1, quanta) * w.thermo


def velocity_seed(seed: int) -> int:
    """A positive velocity seed, distinct per benchmark seed."""
    return 48611 + 7919 * (seed % 100000)


def hns_data_text(cells: tuple[int, int, int], seed: int) -> str:
    """A charge-style LAMMPS data file of the jittered HNS surrogate."""
    from repro.workloads import hns_configuration
    from repro.workloads.hns import HNS_MASSES

    x, types, box_hi = hns_configuration(*cells, seed=seed)
    lines = [
        f"HNS surrogate {cells}, jitter seed {seed}", "",
        f"{len(x)} atoms", f"{len(HNS_MASSES)} atom types", "",
    ]
    lines += [f"0 {hi!r} {d}lo {d}hi" for d, hi in zip("xyz", box_hi.tolist())]
    lines += ["", "Masses", ""]
    lines += [f"{t} {m!r}" for t, m in sorted(HNS_MASSES.items())]
    lines += ["", "Atoms # charge", ""]
    lines += [
        f"{k + 1} {t} 0.0 {px!r} {py!r} {pz!r}"
        for k, (t, (px, py, pz)) in enumerate(zip(types.tolist(), x.tolist()))
    ]
    return "\n".join(lines) + "\n"


def script_text(w: Workload, seed: int, steps: int | None, data: str = "") -> str:
    """The input script: body, ``run 0``, then the timed ``run N``.

    ``run 0`` absorbs pair init, the first rebuild, the first force call
    and the autotune search; ``steps=None`` stops there (set-up only).
    """
    text = w.body.format(
        cells=w.cells,
        thermo=w.thermo,
        vseed=velocity_seed(seed),
        # ReplicaSet substitutes ${replica} as a bare integer: seed digits
        replica="${replica}" if w.replicas > 1 else "",
        data=data,
    )
    text += "run             0\n"
    if steps is not None:
        text += f"run             {steps}\n"
    return text


def render(w: Workload, seed: int, steps: int | None, outdir: str) -> list[str]:
    """Write the workload's input files into ``outdir``; return the argv
    for ``repro.__main__.main``."""
    data = ""
    if "{data}" in w.body:
        data = os.path.join(outdir, f"data.{w.name}")
        with open(data, "w") as fh:
            fh.write(hns_data_text(w.cells, seed))
    script = os.path.join(outdir, f"in.{w.name}" + ("" if steps is not None else ".setup"))
    with open(script, "w") as fh:
        fh.write(script_text(w, seed, steps, data))
    return ["-in", script, *w.flags]
