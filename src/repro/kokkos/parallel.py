"""Parallel dispatch: ``parallel_for`` / ``parallel_reduce`` / ``parallel_scan``.

The functor contract is vectorized rather than per-index (a Python call per
work item would bury the numerics in interpreter overhead — see the
hpc-parallel guides on vectorizing loops):

* ``RangePolicy`` functors receive the whole index array once;
* ``MDRangePolicy`` functors receive one tuple of slices per tile (one call
  with the full extent when untiled);
* ``TeamPolicy`` functors receive a :class:`~repro.kokkos.policies.TeamHandle`.

Every dispatch charges simulated device time for its
:class:`~repro.hardware.cost.KernelProfile` to the active timeline; kernels
that pass no profile are charged launch latency plus a parallelism-derived
minimum, so even bookkeeping kernels show up in strong-scaling tails.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

import numpy as np

from repro.graph import capture as graph_capture
from repro.hardware.cost import KernelProfile
from repro.kokkos.core import Device, device_context
from repro.kokkos.policies import MDRangePolicy, RangePolicy, TeamPolicy
from repro.tools import registry as kp

Policy = RangePolicy | MDRangePolicy | TeamPolicy
#: A dispatch's cost profile, or a zero-argument callable resolved *after*
#: the functor ran (the functor is the computation; its measured workload
#: is what gets priced).
ProfileArg = KernelProfile | Callable[[], KernelProfile] | None


def _graph_note(
    kind: str, name: str, policy: Policy, profile: KernelProfile, seconds: float
) -> None:
    """Attribute a charged dispatch to the armed kernel-graph capture."""
    graph_capture.CAPTURING[-1].on_dispatch(
        kind,
        name,
        policy,
        policy.space.name,
        float(policy.parallelism),
        profile,
        seconds,
    )


def _charge(
    name: str, policy: Policy, profile: ProfileArg
) -> tuple[float, KernelProfile]:
    """Charge the dispatch to the timeline; returns (seconds, profile).

    Runs after the functor, so a callable ``profile`` can price the work
    the functor actually measured (cut pairs, atomic adds).
    """
    ctx = device_context()
    if callable(profile):
        profile = profile()
    if profile is None:
        profile = KernelProfile(name=name)
    if not profile.name:
        profile = replace(profile, name=name)
    if profile.parallel_items <= 1.0 and policy.parallelism > 1:
        profile = replace(profile, parallel_items=float(policy.parallelism))
    if (
        isinstance(policy, TeamPolicy)
        and policy.scratch_kb > 0.0
        and profile.shared_kb_per_team <= 0.0
    ):
        profile = replace(profile, shared_kb_per_team=policy.scratch_kb)
    spec = ctx.spec_for(policy.space)
    carveout = ctx.carveout if policy.space is Device else None
    seconds = ctx.cost_model.time(profile, spec, carveout)
    ctx.timeline.record(name, seconds)
    if ctx.profile_log is not None:
        ctx.profile_log.append(profile)
    return seconds, profile


def _run(policy: Policy, functor: Callable) -> Any:
    if isinstance(policy, RangePolicy):
        return functor(policy.indices())
    if isinstance(policy, MDRangePolicy):
        results = [functor(tile) for tile in policy.tiles()]
        return results
    if isinstance(policy, TeamPolicy):
        return functor(policy.handle())
    raise TypeError(f"unsupported policy type {type(policy).__name__}")


def parallel_for(
    name: str,
    policy: Policy,
    functor: Callable,
    *,
    profile: ProfileArg = None,
) -> None:
    """Execute ``functor`` over the policy's iteration space for effect."""
    kid = (
        kp.begin_kernel(
            "parallel_for", name, policy.space.name, float(policy.parallelism)
        )
        if kp.TOOLS
        else None
    )
    _run(policy, functor)
    seconds, resolved = _charge(name, policy, profile)
    if graph_capture.CAPTURING:
        _graph_note("for", name, policy, resolved, seconds)
    if kid is not None:
        kp.end_kernel(kid, resolved, seconds)


def parallel_reduce(
    name: str,
    policy: Policy,
    functor: Callable,
    *,
    profile: ProfileArg = None,
    reducer: Callable = np.sum,
):
    """Execute and combine contributions.

    The functor returns per-item contributions (any array; the reducer
    collapses it) or an already-combined scalar.  For MDRange policies the
    per-tile results are reduced together; Team functors reduce internally
    and return the value.
    """
    kid = (
        kp.begin_kernel(
            "parallel_reduce", name, policy.space.name, float(policy.parallelism)
        )
        if kp.TOOLS
        else None
    )
    raw = _run(policy, functor)
    if isinstance(policy, MDRangePolicy):
        parts = [reducer(np.asarray(r)) for r in raw if r is not None]
        result = reducer(np.asarray(parts)) if parts else reducer(np.zeros(1))
    else:
        result = reducer(np.asarray(raw)) if not np.isscalar(raw) else raw
    seconds, resolved = _charge(name, policy, profile)
    if graph_capture.CAPTURING:
        _graph_note("reduce", name, policy, resolved, seconds)
    if kid is not None:
        kp.end_kernel(kid, resolved, seconds)
    return result


def parallel_scan(
    name: str,
    policy: RangePolicy,
    functor: Callable,
    *,
    profile: ProfileArg = None,
    exclusive: bool = True,
) -> tuple[np.ndarray, Any]:
    """Prefix-sum over per-item values.

    Returns ``(scan, total)``.  The exclusive scan is the Kokkos default and
    what the ReaxFF CSR offset build needs (section 4.2.2): ``scan[i]`` is
    the sum of values before ``i``.
    """
    if not isinstance(policy, RangePolicy):
        raise TypeError("parallel_scan requires a RangePolicy")
    kid = (
        kp.begin_kernel(
            "parallel_scan", name, policy.space.name, float(policy.parallelism)
        )
        if kp.TOOLS
        else None
    )
    values = np.asarray(functor(policy.indices()))
    if values.shape[0] != policy.size:
        raise ValueError(
            f"scan functor returned {values.shape[0]} values for a range of "
            f"{policy.size}"
        )
    inclusive = np.cumsum(values, axis=0)
    total = inclusive[-1] if policy.size else values.sum(axis=0)
    if exclusive:
        scan = np.empty_like(inclusive)
        scan[0] = 0
        scan[1:] = inclusive[:-1]
    else:
        scan = inclusive
    seconds, resolved = _charge(name, policy, profile)
    if graph_capture.CAPTURING:
        _graph_note("scan", name, policy, resolved, seconds)
    if kid is not None:
        kp.end_kernel(kid, resolved, seconds)
    return scan, total
