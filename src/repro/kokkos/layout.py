"""Data layouts.

Kokkos Views encode their memory layout in the type: ``LayoutRight``
(row-major, last index fastest — the natural CPU layout) and ``LayoutLeft``
(column-major, first index fastest — the coalescing-friendly GPU layout).
Section 4.1 of the paper leans on this for neighbor lists: "the neighbor
list for each atom must be contiguous in memory to enable caching [on CPUs],
while the neighbor lists of consecutive atoms must be interleaved to achieve
performance on GPU architectures.  Using 2D Views ... achieves this data
layout adjustment by default."

NumPy expresses both natively via the ``order`` flag, so layout here is a
thin tag that the View constructor maps to ``order="C"`` / ``order="F"``
and that tests can assert on via ``ndarray.flags``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kokkos.core import Device, ExecutionSpace


@dataclass(frozen=True)
class Layout:
    name: str
    numpy_order: str


#: Row-major (C order): last index fastest.  Default for Host views.
LayoutRight = Layout("LayoutRight", "C")
#: Column-major (Fortran order): first index fastest.  Default for Device
#: views, giving coalesced access when the first index is the thread index.
LayoutLeft = Layout("LayoutLeft", "F")


def default_layout(space: ExecutionSpace) -> Layout:
    """The architecture-appropriate default layout for a memory space."""
    return LayoutLeft if space is Device else LayoutRight
