"""Execution policies: Range and Team (paper section 3.3).

Policies carry *where* (execution space) and *how much* (iteration space,
team geometry, scratch demand) a kernel runs.  The dispatch layer uses them
both to hand the functor its index space and to inform the cost model about
exposed parallelism and shared-memory pressure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kokkos.core import Device, ExecutionSpace


@dataclass(frozen=True)
class RangePolicy:
    """A 1-D iteration range ``[begin, end)``."""

    space: ExecutionSpace
    begin: int
    end: int

    def __init__(self, space: ExecutionSpace | int, begin: int | None = None, end: int | None = None):
        # Convenience: RangePolicy(n) means Device space, [0, n).
        if isinstance(space, (int, np.integer)):
            object.__setattr__(self, "space", Device)
            object.__setattr__(self, "begin", 0)
            object.__setattr__(self, "end", int(space))
            return
        if end is None:
            end = begin
            begin = 0
        if begin is None or end is None:
            raise TypeError("RangePolicy requires an extent")
        if end < begin:
            raise ValueError(f"RangePolicy end {end} < begin {begin}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "begin", int(begin))
        object.__setattr__(self, "end", int(end))

    @property
    def size(self) -> int:
        return self.end - self.begin

    def indices(self) -> np.ndarray:
        return np.arange(self.begin, self.end)

    @property
    def parallelism(self) -> int:
        return self.size


@dataclass(frozen=True)
class TeamPolicy:
    """Hierarchical parallelism: a league of teams of threads of lanes.

    ``scratch_kb`` is the per-team software-managed scratch request — the
    hook through which kernels participate in the shared-memory carveout
    study (figure 3).
    """

    space: ExecutionSpace
    league_size: int
    team_size: int = 1
    vector_length: int = 1
    scratch_kb: float = 0.0

    def __post_init__(self) -> None:
        if self.league_size < 0 or self.team_size < 1 or self.vector_length < 1:
            raise ValueError("invalid TeamPolicy geometry")
        if self.scratch_kb < 0:
            raise ValueError("negative scratch request")

    @property
    def parallelism(self) -> int:
        return self.league_size * self.team_size * self.vector_length
