"""ScatterView: deconflicted scatter-add accumulation.

Paper section 3.2: "ScatterView ... was designed to handle unstructured
accumulation of data from multiple threads in a way that write conflicts are
avoided.  It can transparently swap between using atomic operations, a data
duplication strategy, or even simple sequential accumulation ...  On CPUs,
data duplication with a subsequent combining step is often the most
effective way to deal with write conflicts, while on GPUs data duplication
is infeasible due to the large number of active threads and thus atomic
operations need to be used."

The two strategies that code selects — atomics and duplication — produce
bit-identical results (the equivalence is property-tested); they differ in
the *cost profile* each one reports, which is how the full-vs-half neighbor
list studies (figure 2b) see the architecture-dependent price of atomics
versus duplication.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.kokkos.core import Device, ExecutionSpace
from repro.kokkos.segment import ATOMIC as CONTRIB_ATOMIC
from repro.kokkos.segment import SEGMENTED as CONTRIB_SEGMENTED
from repro.kokkos.segment import forced_scatter_mode, scatter_add
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
            # A globally forced contribution mode also steers the strategy,
            # so pinning "atomic" models the GPU cost profile (atomic_adds
            # charged) and "segmented" the CPU duplication profile — that is
            # what lets the autotuner's cost-model measure rank the two.
            forced = forced_scatter_mode()
            if forced == CONTRIB_ATOMIC:
                strategy = ATOMIC
            elif forced == CONTRIB_SEGMENTED:
                strategy = DUPLICATED
            else:
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
        #: Functional scatter algorithm, tied to the strategy as the paper
        #: describes: atomics execute as np.add.at, duplication's combine
        #: step as a segmented reduction.  A benchmark-forced global mode
        #: (segment.force_scatter_mode) overrides both.
        self.contribution = forced_scatter_mode() or (
            CONTRIB_ATOMIC if strategy == ATOMIC else CONTRIB_SEGMENTED
        )
        self.duplicates = duplicates if strategy == DUPLICATED else 1
        self._scratch: np.ndarray | None = None
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
        """Zero the scratch copies (target itself is left alone)."""
        shape = (self.duplicates,) + self.target.shape
        if self._scratch is None or self._scratch.shape != shape:
            self._scratch = np.zeros(shape, dtype=self.target.dtype)
        else:
            self._scratch[...] = 0.0
        self._atomic_adds = 0

    def access(self, thread: int = 0) -> "ScatterAccess":
        """Per-thread access handle.  ``thread`` selects the duplicate."""
        dup = thread % self.duplicates
        return ScatterAccess(self, dup)

    def contribute(self) -> None:
        """Fold all duplicates into the target View."""
        assert self._scratch is not None
        self.target.data[...] += self._scratch.sum(axis=0)
        self._scratch[...] = 0.0


class ScatterAccess:
    """Handle used inside kernels to emit contributions."""

    __slots__ = ("_sv", "_dup")

    def __init__(self, sv: ScatterView, dup: int) -> None:
        self._sv = sv
        self._dup = dup

    def add(self, index: Any, value: Any) -> None:
        """``target[index] += value`` with deconfliction.

        ``index`` may be an integer array (unstructured scatter); duplicate
        indices accumulate correctly with hardware-atomic-add semantics.
        The contribution mode picks the algorithm: ``atomic`` issues the
        unbuffered ``np.add.at``, ``segmented`` reduces per destination first
        (:mod:`repro.kokkos.segment`) — bit-compatible results either way.
        """
        sv = self._sv
        scratch = sv._scratch[self._dup]
        value = np.asarray(value)
        if isinstance(index, (int, np.integer)) or (
            isinstance(index, tuple) and all(isinstance(k, (int, np.integer)) for k in index)
        ):
            scratch[index] += value
            n = int(value.size)
        else:
            if isinstance(index, tuple):
                # structured multi-axis scatter: keep the ufunc fallback
                np.add.at(scratch, index, value)
                n = int(np.broadcast(*[np.asarray(k) for k in index]).size)
            else:
                scatter_add(scratch, np.asarray(index), value, mode=sv.contribution)
                n = int(np.asarray(index).size)
            # each scattered element of the value contributes one add
            n = max(n, int(value.size))
        if sv.strategy == ATOMIC:
            sv._atomic_adds += n
