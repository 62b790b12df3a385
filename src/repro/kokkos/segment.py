"""Segmented-reduction scatter: the fast functional path behind ScatterView.

The paper's ScatterView (section 3.2) deconflicts unstructured writes with
atomics on GPUs and per-thread duplication + a combine pass on CPUs.  The
functional analogue of a hardware atomic add is ``np.add.at`` — correct, but
unbuffered and typically 10-50x slower than an equivalent *segmented
reduction*: group the contributions by destination (``np.bincount`` for
narrow values, ``np.add.reduceat`` over pre-sorted segments for wide ones)
and add the per-destination sums in one vectorized pass.

Each destination's contributions accumulate in the original input order
(bincount walks the input sequentially; reduceat sums each contiguous
segment left to right, and the segment orderings used here are stable), so
a reduction onto a zeroed target is bit-identical to ``np.add.at`` — the
equivalence the tests assert against a test-local ``np.add.at`` body.

This is the one wall-clock scatter algorithm for every execution space.
The architecture split of the paper's ScatterView (atomics on GPUs,
duplication on CPUs) is a *cost profile*, priced by
:class:`~repro.kokkos.scatter_view.ScatterView`'s strategy, not a second
algorithm here.
"""

from __future__ import annotations

import numpy as np


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
    assume_sorted: bool = False,
) -> None:
    """``out[index] += values`` as a segmented reduction.

    Reduces per destination first and folds the dense result in.  ``values``
    may be any strided view: component rows ``rows[c, k]`` (LayoutLeft, the
    pairwise pass's per-pair vectors) pass as ``rows.T``, and each component
    then reduces along its contiguous row — bit for bit the C-ordered
    ``(k, 3)`` result.
    """
    _scatter(np.add, out, index, values, assume_sorted)


def scatter_sub(
    out: np.ndarray,
    index: np.ndarray,
    values: np.ndarray,
    *,
    assume_sorted: bool = False,
) -> None:
    """``out[index] -= values`` (see :func:`scatter_add`).  ``out - s`` is
    ``out + (-s)`` bit for bit, so no negated copy of ``values`` is made."""
    _scatter(np.subtract, out, index, values, assume_sorted)


def _scatter(op, out, index, values, assume_sorted) -> None:
    if out.ndim > 2:
        raise ValueError(f"scatter target must be 1-D or 2-D, got shape {out.shape}")
    index = np.asarray(index)
    values = np.asarray(values)
    want = index.shape + out.shape[1:]
    if values.shape != want:  # np.add.at-style broadcast
        values = np.broadcast_to(values, want)
    if values.size == 0 or index.size == 0:
        return
    reduce = segment_sum if out.ndim == 1 else segment_sum_vec
    op(out, reduce(values, index, out.shape[0], assume_sorted=assume_sorted), out=out)


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
) -> None:
    """``out[:, cols[t]] += vals[:, t]`` via a :func:`column_scatter_plan`."""
    if vals.shape[1] == 0:
        return
    perm, starts, targets = plan
    out[:, targets] += np.add.reduceat(vals[:, perm], starts, axis=1)
