"""Thermodynamic output (LAMMPS's ``thermo`` machinery).

Collects local partial sums from the backing computes, reduces them through
the lockstep allreduce protocol, and emits one table row per interval.
History is retained so tests and benchmarks can assert on trajectories
(energy conservation, temperature ramps) without scraping stdout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np


@dataclass
class ThermoRecord:
    step: int
    #: column -> value; floats except the autotuner's "tune" label column
    values: dict[str, float | str]

    def __getitem__(self, key: str) -> float | str:
        return self.values[key]


@dataclass
class Thermo:
    lmp: "object"
    every: int = 100
    columns: tuple[str, ...] = ("temp", "pe", "ke", "etotal", "press")
    #: Normalize extensive quantities per atom (LAMMPS default in lj units).
    normalize: bool = False
    history: list[ThermoRecord] = field(default_factory=list)
    quiet: bool = False
    _header_done: bool = False

    def should_output(self, step: int, force: bool = False) -> bool:
        return force or (self.every > 0 and step % self.every == 0)

    def output_gen(self, force: bool = False) -> Iterator[None]:
        """Emit one row (generator: yields at the allreduce)."""
        lmp = self.lmp
        step = lmp.update.ntimestep
        if not self.should_output(step, force):
            return
        needed = {"temp", "pe", "ke"}
        if "press" in self.columns:
            needed.add("pressure")
        partials: dict[str, np.ndarray] = {}
        for cid in sorted(needed):
            comp = lmp.internal_compute(cid)
            lmp.world.reduce_contribute(("thermo", step, cid), comp.local_partials())
        yield
        for cid in sorted(needed):
            comp = lmp.internal_compute(cid)
            reduced = np.atleast_1d(
                lmp.world.reduce_result(("thermo", step, cid))
            )
            partials[cid] = reduced
        temp = lmp.internal_compute("temp").finalize(partials["temp"])
        pe = lmp.internal_compute("pe").finalize(partials["pe"])
        ke = lmp.internal_compute("ke").finalize(partials["ke"])
        natoms = max(lmp.natoms_total, 1)
        values = {
            "temp": temp,
            "pe": pe / natoms if self.normalize else pe,
            "ke": ke / natoms if self.normalize else ke,
        }
        values["etotal"] = values["pe"] + values["ke"]
        if "press" in self.columns:
            values["press"] = lmp.internal_compute("pressure").finalize(
                partials["pressure"]
            )
        if "tune" in self.columns:
            # the autotuner's locked-in config label (a string column)
            values["tune"] = lmp.tune_label or "-"
        self.history.append(ThermoRecord(step=step, values=values))
        if lmp.comm_rank == 0 and not self.quiet:
            self._print_row(step, values)

    def _print_row(self, step: int, values: dict[str, float]) -> None:
        if not self._header_done:
            print("Step " + " ".join(f"{c:>14}" for c in self.columns))
            self._header_done = True
        cells = " ".join(
            f"{v:>14}" if isinstance(v, str) else f"{v:>14.6g}"
            for v in (values.get(c, float("nan")) for c in self.columns)
        )
        print(f"{step:>4d} {cells}")
