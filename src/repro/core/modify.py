"""Fix lifetime and scheduling (LAMMPS's ``Modify``)."""

from __future__ import annotations

from repro.core.errors import InputError
from repro.core.fixes import Fix


class Modify:
    """Ordered fix list, with hook fan-out."""

    def __init__(self) -> None:
        self.fixes: list[Fix] = []

    # ---------------------------------------------------------------- fixes
    def add_fix(self, fix: Fix) -> None:
        if any(f.id == fix.id for f in self.fixes):
            raise InputError(f"duplicate fix id {fix.id!r}")
        self.fixes.append(fix)

    # ----------------------------------------------------------------- hooks
    def init(self) -> None:
        for f in self.fixes:
            f.init()

    def initial_integrate(self) -> None:
        for f in self.fixes:
            f.initial_integrate()

    def post_force(self) -> None:
        for f in self.fixes:
            f.post_force()

    def final_integrate(self) -> None:
        for f in self.fixes:
            f.final_integrate()

    def end_of_step(self) -> None:
        for f in self.fixes:
            f.end_of_step()
