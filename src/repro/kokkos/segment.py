"""Segmented-reduction scatter: the fast functional path behind ScatterView.

The paper's ScatterView (section 3.2) deconflicts unstructured writes with
atomics on GPUs and per-thread duplication + a combine pass on CPUs.  The
functional analogue of a hardware atomic add is ``np.add.at`` — correct, but
unbuffered and typically 10-50x slower than an equivalent *segmented
reduction*: group the contributions by destination (``np.bincount`` for
narrow values, ``np.add.reduceat`` over pre-sorted segments for wide ones)
and add the per-destination sums in one vectorized pass.

Both paths accumulate each destination's contributions in the original input
order (bincount walks the input sequentially; reduceat sums each contiguous
segment left to right, and the segment orderings used here are stable), so
the two modes produce bit-identical results — the equivalence the tests
assert and the golden thermo baselines rely on.

Mode selection mirrors the paper: :func:`scatter_mode` resolves per
execution space (Device -> ``atomic``, Host -> ``segmented``, matching
"on GPUs ... atomic operations need to be used" vs CPU duplication), and
:func:`force_scatter_mode` lets benchmarks pin one mode globally to measure
the other as a baseline.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.kokkos.core import Device, ExecutionSpace

#: Contribution modes.
ATOMIC = "atomic"  # np.add.at — the hardware-atomic semantic model
SEGMENTED = "segmented"  # sort/bincount/reduceat segmented reduction

_MODES = (ATOMIC, SEGMENTED)

#: Global override installed by :func:`force_scatter_mode` (benchmarks).
_forced_mode: str | None = None


def scatter_mode(space: ExecutionSpace | None = None) -> str:
    """Effective contribution mode for an execution space.

    The forced override (benchmark baselines) wins; otherwise Device maps to
    ``atomic`` and Host (or space-less host code) to ``segmented`` — the
    architecture split of the paper's ScatterView discussion.
    """
    if _forced_mode is not None:
        return _forced_mode
    return ATOMIC if space is Device else SEGMENTED


def forced_scatter_mode() -> str | None:
    """The benchmark-forced global mode, if any."""
    return _forced_mode


def set_scatter_mode(mode: str | None) -> str | None:
    """Install (or clear, with None) the global mode override; return the old.

    Unknown names fail here, at the setter, with a did-you-mean hint — not
    later inside a dispatch.  This is the non-scoped form the autotuner uses
    to lock in a winner for the rest of a run.
    """
    global _forced_mode
    if mode is not None and mode not in _MODES:
        from repro.core.errors import unknown_choice

        raise ValueError(unknown_choice("scatter mode", mode, _MODES))
    prev = _forced_mode
    _forced_mode = mode
    return prev


@contextmanager
def force_scatter_mode(mode: str | None) -> Iterator[None]:
    """Pin the contribution mode globally (None restores per-space choice)."""
    prev = set_scatter_mode(mode)
    try:
        yield
    finally:
        set_scatter_mode(prev)


# ----------------------------------------------------------------- reductions
def _sorted_segments(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, targets)`` of the contiguous runs of a sorted index."""
    starts = np.flatnonzero(np.r_[True, index[1:] != index[:-1]])
    return starts, index[starts]


def segment_sum(
    values: np.ndarray,
    index: np.ndarray,
    n: int,
    *,
    assume_sorted: bool = False,
) -> np.ndarray:
    """Dense ``out`` of length ``n`` with ``out[k] = sum(values[index == k])``.

    1-D values.  Real values go through ``np.bincount``; complex values
    through two bincounts (real/imag).  ``assume_sorted`` routes through
    ``np.add.reduceat`` over the contiguous runs instead — same result,
    no histogram pass.
    """
    values = np.asarray(values)
    index = np.asarray(index)
    if values.ndim != 1:
        raise ValueError(f"segment_sum expects 1-D values, got shape {values.shape}")
    if values.shape != index.shape:
        raise ValueError(f"values {values.shape} vs index {index.shape} mismatch")
    if values.size == 0:
        return np.zeros(n, dtype=np.promote_types(values.dtype, np.float64))
    if assume_sorted:
        starts, targets = _sorted_segments(index)
        out = np.zeros(n, dtype=np.promote_types(values.dtype, np.float64))
        out[targets] = np.add.reduceat(values, starts)
        return out
    if np.iscomplexobj(values):
        return (
            np.bincount(index, weights=values.real, minlength=n)
            + 1j * np.bincount(index, weights=values.imag, minlength=n)
        )
    return np.bincount(index, weights=values, minlength=n)


def segment_sum_vec(
    values: np.ndarray,
    index: np.ndarray,
    n: int,
    *,
    assume_sorted: bool = False,
) -> np.ndarray:
    """Row-segmented sum of 2-D ``values``: ``out[k] += values[index == k]``.

    Sorted indices reduce via one ``np.add.reduceat`` over axis 0 (the fast
    path for wide rows, e.g. SNAP's per-pair Wigner blocks).  Unsorted narrow
    values (force vectors) use one bincount per column; unsorted wide values
    are stably sorted first so per-destination accumulation order — and thus
    the bit pattern — matches ``np.add.at``.
    """
    values = np.asarray(values)
    index = np.asarray(index)
    if values.ndim == 1:
        return segment_sum(values, index, n, assume_sorted=assume_sorted)
    if values.ndim != 2:
        raise ValueError(f"segment_sum_vec expects <=2-D values, got {values.shape}")
    if values.shape[0] != index.shape[0]:
        raise ValueError(f"values {values.shape} vs index {index.shape} mismatch")
    ncols = values.shape[1]
    out_dtype = np.promote_types(values.dtype, np.float64)
    if values.shape[0] == 0 or ncols == 0:
        return np.zeros((n, ncols), dtype=out_dtype)
    if not assume_sorted and (ncols > 4 or np.iscomplexobj(values)):
        order = np.argsort(index, kind="stable")
        values, index = values[order], index[order]
        assume_sorted = True
    if assume_sorted:
        starts, targets = _sorted_segments(index)
        out = np.zeros((n, ncols), dtype=out_dtype)
        out[targets] = np.add.reduceat(values, starts, axis=0)
        return out
    out = np.empty((n, ncols), dtype=out_dtype)
    for c in range(ncols):
        out[:, c] = np.bincount(index, weights=values[:, c], minlength=n)
    return out


# -------------------------------------------------------------- scatter adds
def scatter_add(
    out: np.ndarray,
    index: np.ndarray,
    values: np.ndarray,
    *,
    mode: str | None = None,
    space: ExecutionSpace | None = None,
    assume_sorted: bool = False,
) -> None:
    """``out[index] += values`` with a selectable deconfliction mode.

    ``mode`` overrides; otherwise :func:`scatter_mode` resolves it from the
    execution space (honoring any benchmark-forced global mode).  The
    segmented path reduces per destination first and folds the dense result
    in — bit-identical to the ``np.add.at`` atomic path.
    """
    if mode is None:
        mode = scatter_mode(space)
    if mode == ATOMIC or out.ndim > 2:
        np.add.at(out, index, values)
        return
    index = np.asarray(index)
    values = np.asarray(values)
    want = index.shape + out.shape[1:]
    if values.shape != want:  # np.add.at-style broadcast
        values = np.broadcast_to(values, want)
    if values.size == 0 or index.size == 0:
        return
    n = out.shape[0]
    if out.ndim == 1:
        out += segment_sum(values, index, n, assume_sorted=assume_sorted)
    else:
        out += segment_sum_vec(values, index, n, assume_sorted=assume_sorted)


def scatter_sub(
    out: np.ndarray,
    index: np.ndarray,
    values: np.ndarray,
    *,
    mode: str | None = None,
    space: ExecutionSpace | None = None,
    assume_sorted: bool = False,
) -> None:
    """``out[index] -= values`` (see :func:`scatter_add`)."""
    if mode is None:
        mode = scatter_mode(space)
    if mode == ATOMIC:
        np.subtract.at(out, index, values)
        return
    scatter_add(out, index, -np.asarray(values), mode=mode, assume_sorted=assume_sorted)


# ----------------------------------------------------------- column scatters
def column_scatter_plan(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precompute ``(perm, starts, targets)`` for a column-wise scatter.

    For ``out[:, cols[t]] += vals[:, t]`` with a fixed column index (SNAP's
    contraction-tensor scatters), the stable permutation groups terms by
    destination column; ``reduceat`` then reduces each group in one pass.
    The plan depends only on ``cols`` and is memoized by the callers (it is
    neighbor- and step-invariant: a property of the quantum-number tensor).
    """
    perm = np.argsort(cols, kind="stable")
    sorted_cols = cols[perm]
    starts, targets = _sorted_segments(sorted_cols)
    return perm, starts, targets


def scatter_add_columns(
    out: np.ndarray,
    vals: np.ndarray,
    plan: tuple[np.ndarray, np.ndarray, np.ndarray],
    *,
    mode: str | None = None,
    cols: np.ndarray | None = None,
) -> None:
    """``out[:, cols[t]] += vals[:, t]`` via a :func:`column_scatter_plan`.

    In ``atomic`` mode (benchmark baseline) falls back to ``np.add.at`` with
    the original ``cols`` (which must then be supplied).
    """
    if mode is None:
        mode = scatter_mode()
    if mode == ATOMIC:
        if cols is None:
            raise ValueError("atomic column scatter requires the original cols")
        rows = np.arange(out.shape[0])[:, None]
        np.add.at(out, (rows, cols[None, :]), vals)
        return
    if vals.shape[1] == 0:
        return
    perm, starts, targets = plan
    out[:, targets] += np.add.reduceat(vals[:, perm], starts, axis=1)
