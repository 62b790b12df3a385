"""ScatterView: deconflicted scatter-add accumulation.

Paper section 3.2: "ScatterView ... was designed to handle unstructured
accumulation of data from multiple threads in a way that write conflicts are
avoided.  It can transparently swap between using atomic operations, a data
duplication strategy, or even simple sequential accumulation ...  On CPUs,
data duplication with a subsequent combining step is often the most
effective way to deal with write conflicts, while on GPUs data duplication
is infeasible due to the large number of active threads and thus atomic
operations need to be used."

The two strategies that code selects — atomics and duplication — differ
only in the *cost profile* each one reports (``atomic_adds`` vs
``duplicated_bytes``), which is how the full-vs-half neighbor list studies
(figure 2b) see the architecture-dependent price of atomics versus
duplication.  Both execute the same wall-clock body: one scratch copy of
the target, filled by the segmented reduction of :mod:`repro.kokkos.segment`
and folded in by ``contribute()``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.kokkos.core import Device, ExecutionSpace
from repro.kokkos.segment import scatter_add
from repro.kokkos.view import View

#: Deconfliction strategies.
ATOMIC = "atomic"
DUPLICATED = "duplicated"

_STRATEGIES = (ATOMIC, DUPLICATED)


def default_strategy(space: ExecutionSpace) -> str:
    """Architecture-appropriate default (GPU: atomics; CPU: duplication)."""
    return ATOMIC if space is Device else DUPLICATED


class ScatterView:
    """Scatter-add accumulator over a target View.

    Usage mirrors Kokkos: obtain an access handle inside the kernel, add
    contributions keyed by destination index, then ``contribute()`` the
    results back into the target.
    """

    def __init__(
        self,
        target: View,
        *,
        strategy: str | None = None,
        duplicates: int = 8,
    ) -> None:
        if strategy is None:
            strategy = default_strategy(target.space)
        if strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown ScatterView strategy {strategy!r}; "
                f"expected one of {_STRATEGIES}"
            )
        if duplicates < 1:
            raise ValueError("duplicates must be >= 1")
        self.target = target
        self.strategy = strategy
        #: Modeled per-thread copies of the duplication strategy; they set
        #: :attr:`duplicated_bytes`, while the functional body keeps one.
        self.duplicates = duplicates if strategy == DUPLICATED else 1
        self._scratch = np.empty(target.shape, dtype=target.dtype)
        self._atomic_adds = 0
        self.reset()

    # -------------------------------------------------------------- stats
    @property
    def atomic_adds(self) -> int:
        """Scalar atomic additions issued so far (feeds KernelProfile)."""
        return self._atomic_adds

    @property
    def duplicated_bytes(self) -> int:
        """Extra memory footprint of the duplication strategy."""
        if self.strategy != DUPLICATED:
            return 0
        return self.target.nbytes * self.duplicates

    # ------------------------------------------------------------- access
    def reset(self) -> None:
        """Zero the scratch copy (target itself is left alone)."""
        self._scratch[...] = 0.0
        self._atomic_adds = 0

    def access(self) -> "ScatterAccess":
        """Access handle for emitting contributions."""
        return ScatterAccess(self)

    def contribute(self) -> None:
        """Fold the scratch copy into the target View."""
        self.target.data[...] += self._scratch
        self._scratch[...] = 0.0


class ScatterAccess:
    """Handle used inside kernels to emit contributions."""

    __slots__ = ("_sv",)

    def __init__(self, sv: ScatterView) -> None:
        self._sv = sv

    def add(self, index: Any, value: Any) -> None:
        """``target[index] += value`` with deconfliction.

        ``index`` is an integer array (unstructured scatter); duplicate
        indices accumulate correctly with hardware-atomic-add semantics,
        through the segmented reduction of :mod:`repro.kokkos.segment`.
        """
        sv = self._sv
        index = np.asarray(index)
        value = np.asarray(value)
        scatter_add(sv._scratch, index, value)
        if sv.strategy == ATOMIC:
            # each scattered element of the value contributes one add
            sv._atomic_adds += max(int(index.size), int(value.size))
