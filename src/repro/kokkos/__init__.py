"""A Kokkos-style performance-portability layer on NumPy.

This package reproduces the *semantics* of the Kokkos abstractions the paper
relies on (section 3): multi-dimensional Views with space-dependent layouts,
DualViews with modify/sync tracking, ScatterViews with selectable
write-deconfliction strategies, execution spaces, and the
``parallel_for`` / ``parallel_reduce`` / ``parallel_scan`` dispatch patterns
with Range/Team policies.

Execution is functional — kernels run as vectorized NumPy — while the
*performance* of each dispatch is charged to a simulated device through the
:mod:`repro.hardware` cost model, using the :class:`KernelProfile` each
kernel declares.  That split is what lets a pure-Python library study the
performance questions the paper asks (cache carveouts, atomic throughput,
thread starvation) without silicon.

Quick tour::

    import repro.kokkos as kk

    kk.initialize(device="H100")
    x = kk.View((n, 3), space=kk.Device, label="x")
    kk.parallel_for("scale", kk.RangePolicy(kk.Device, 0, n),
                    lambda i: x.data.__imul__(2.0),
                    profile=kk.KernelProfile("scale", bytes_streamed=x.nbytes))
    kk.finalize()
"""

from repro.hardware.cost import KernelProfile
from repro.kokkos.core import (
    Device,
    DeviceContext,
    ExecutionSpace,
    Host,
    device_context,
    finalize,
    initialize,
)
from repro.kokkos.layout import LayoutLeft, LayoutRight, default_layout
from repro.kokkos.view import View
from repro.kokkos.dual_view import DualView
from repro.kokkos.scatter_view import ScatterView
from repro.kokkos.policies import RangePolicy, TeamPolicy
from repro.kokkos.parallel import parallel_for, parallel_reduce, parallel_scan

__all__ = [
    "KernelProfile",
    "ExecutionSpace",
    "Host",
    "Device",
    "DeviceContext",
    "initialize",
    "finalize",
    "device_context",
    "LayoutRight",
    "LayoutLeft",
    "default_layout",
    "View",
    "DualView",
    "ScatterView",
    "RangePolicy",
    "TeamPolicy",
    "parallel_for",
    "parallel_reduce",
    "parallel_scan",
]
