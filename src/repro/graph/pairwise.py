"""The two-body pass as three functions, and the many-body executor.

Paper section 4.1's ``pair_kokkos`` contract is that a two-body style
supplies only its pair formula and the base does everything else.  This
module is that "everything else", written once as functions over an
``env`` dict:

* :func:`prologue` -- ``delta -> rsq -> cutmask -> gather``, the cut geometry;
* the style's ``env["force_fn"]`` (:meth:`repro.potentials.pair.Pair.eval_setup`);
* :func:`force_chain` -- ``fvec -> force_scatter`` (half/host, full-sorted,
  ScatterView half +- newton), then on tallied steps the style's energy
  half and ``ev_tally``;

and :func:`pairwise` runs the three in order.  Every executor calls it:
the host style eagerly, ``/kk`` inside one charged whole-kernel dispatch
(:class:`~repro.potentials.pair_kokkos.PairKokkos`), and the replica batch
over the stacked pairs and constants of a whole batch
(:mod:`repro.replica.batch`).  EAM runs :func:`prologue` for its geometry
and :func:`force_chain` after its own ``fp`` terms; SNAP and ReaxFF run
:func:`prologue` for theirs.

A many-body style (``snap``, ``reaxff``) declares one :class:`Stage` list of
its own kernels, and :func:`run_many_body` runs it on the host and under ``/kk``.

Workspace contract: per-rebuild *constants* (pair indices, ``j < nlocal``,
the squared cutoff and the style's coefficients) live in the ``env``
memoized on the list's :class:`~repro.core.neighbor.PairCache`, so a rebuild
invalidates them by construction.  A per-type-pair constant is held once per
type pair: a table with one value over the types present binds as a 0-d
value, and only a table with distinct values binds a per-stored-pair vector
(:func:`cut_value` reads either).  Per-step *scratch* comes from the
process-wide :data:`ARENA`: ranks and replicas execute sequentially in one
process, so one grow-only set of buffers serves them all.  A buffer is
allocated at the size asked and regrows with 1/8 headroom, so a cut-pair
count that creeps up re-allocates O(log n) times; :meth:`Arena.release`
drops it all before each neighbor build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

import repro.kokkos as kk
from repro.kokkos.scatter_view import ScatterView
from repro.kokkos.segment import scatter_add, scatter_sub


@dataclass
class Stage:
    """One declared pass of a many-body style (:func:`run_many_body`)."""

    name: str
    fn: Callable[[dict], None]
    #: A generator body (a many-body stage that exchanges with other ranks).
    yields: bool = False


# ======================================================================= arena
class Arena:
    """Grow-only named scratch buffers shared by every pairwise pass.

    ``take(name, *shape)`` hands out a C-contiguous ``shape`` view of the
    front of one flat buffer per name, so any re-take of a name is shaped
    as asked; the buffer grows when it is too short or of another dtype,
    by 1/8 more than asked when it regrows.  A view stays valid until the
    next ``take`` of the same name, so a pass may only rely on a buffer
    across calls that cannot run another pass in between — which is why
    outputs that must survive a generator ``yield`` (EAM's geometry across
    its ``rho`` and ``fp`` exchanges) are fresh arrays instead
    (``env["take"] = fresh``), or taken under names no other pass takes
    (ReaxFF's, keyed by its list: ``reaxff.nonbonded.list_loans``).
    """

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def take(self, name: str, *shape: int, dtype: Any = np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            grow = size >> 3 if buf is not None and buf.dtype == dtype else 0
            buf = self._bufs[name] = np.empty(size + grow, dtype)
        return buf[:size].reshape(shape)

    def release(self) -> None:
        """Drop every buffer (the next pass re-grows what it needs)."""
        self._bufs.clear()

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._bufs.values())


#: The process-wide scratch arena.
ARENA = Arena()


# ================================================================ stage bodies
# Bitwise discipline: ``np.take`` gathers and ``out=`` ufuncs reproduce the
# plain ``x[i] - x[j]`` / boolean-mask expressions bit for bit (held against
# the formula oracle in tests/test_pairwise_oracle.py).
#
# Layout contract (LayoutLeft): every per-pair 3-vector -- ``dx0``, ``dx_n``,
# ``fvec_n`` -- is ``(3, n)`` component rows, pair index fastest, from the
# gather through the scatter and the tally, so each reduction and broadcast
# runs over contiguous rows.  Consumers that want ``(n, 3)`` take ``.T`` (a
# view) or, where an ``einsum`` reduces over the component axis and the
# layout would pick its summation order, a C-ordered copy.
def gather(a: np.ndarray, idx: np.ndarray, out: np.ndarray | None, axis: int | None = None):
    """``a.take(idx, axis, out=out)`` without ``mode="raise"``, which gathers
    into a private copy of ``out`` and copies it back (twice the gather).  The
    indices are in range already: ``i0``/``j0`` per list (:func:`index_bounds`,
    checked in :func:`_delta_fn`); ``idx`` by construction, ``flatnonzero`` of a
    ``len(i0)`` mask indexing only ``len(i0)`` vectors (asserted at bind).
    Bound, not ``np.take``, whose wrapper costs as much as a small gather."""
    return a.take(idx, axis=axis, out=out, mode="clip")


def index_bounds(env: dict) -> tuple[int, int]:
    """``(min(0, i0, j0), max(i0, j0))`` of ``env``, kept there until either
    array object is replaced (a rebuilt list binds new ones)."""
    i0, j0 = env["i0"], env["j0"]
    b = env.get("ij_bounds")
    if b is None or b[0] is not i0 or b[1] is not j0:
        lo = min(i0.min(initial=0), j0.min(initial=0))
        hi = max(i0.max(initial=-1), j0.max(initial=-1))
        b = env["ij_bounds"] = (i0, j0, int(lo), int(hi))
    return b[2], b[3]


def _delta_fn(env: dict) -> None:
    x, n = env["x"], len(env["i0"])
    lo, hi = index_bounds(env)
    if lo < 0 or hi >= len(x):
        raise IndexError(f"pair indices span [{lo}, {hi}] but x has {len(x)} rows")
    xt = ARENA.take("xt", 3, len(x))
    np.copyto(xt, x.T)
    xi = gather(xt, env["i0"], ARENA.take("xi", 3, n), axis=1)
    xj = gather(xt, env["j0"], ARENA.take("xj", 3, n), axis=1)
    env["dx0"] = np.subtract(xi, xj, out=xi)


def _rsq_fn(env: dict) -> None:
    """``(d0² + d2²) + d1²``: the order ``np.einsum("ij,ij->i")`` sums a
    C-ordered ``(n, 3)`` row in, squared into the dead ``xj`` rows."""
    d = env["dx0"]
    n = d.shape[1]
    sq = ARENA.take("xj", n)
    rsq = np.multiply(d[0], d[0], out=ARENA.take("rsq0", n))
    np.add(rsq, np.multiply(d[2], d[2], out=sq), out=rsq)
    env["rsq0"] = np.add(rsq, np.multiply(d[1], d[1], out=sq), out=rsq)


def _cutmask_fn(env: dict) -> None:
    rsq0 = env["rsq0"]
    env["idx"] = None  # the last call's cut set goes before this one is made
    mask = np.less(rsq0, env["cutsq0"], out=ARENA.take("mask", len(rsq0), dtype=bool))
    env["idx"] = np.flatnonzero(mask)


def fresh(name: str, *shape: int, dtype: Any = np.float64) -> None:
    """The ``env["take"]`` of a pass whose prologue outputs must outlive a
    comm yield: no buffer, so each gather allocates its own array."""
    return None


def _gather_fn(env: dict) -> None:
    idx = env["idx"]
    n = idx.size
    take = env.get("take", ARENA.take)
    i0, j0 = env["i0"], env["j0"]
    # xj is dead once delta has subtracted it: the compressed rows reuse it
    env["dx_n"] = gather(env["dx0"], idx, take("xj", 3, n), axis=1)
    env["rsq_n"] = gather(env["rsq0"], idx, take("rsq_n", n))
    env["i_n"] = gather(i0, idx, take("i_n", n, dtype=i0.dtype))
    env["j_n"] = gather(j0, idx, take("j_n", n, dtype=j0.dtype))
    jl0 = env.get("jl0")
    env["jl_n"] = None if jl0 is None else np.take(jl0, idx)


def cut_value(env: dict, name: str, buf: str):
    """``env[name]`` over the cut pairs: a 0-d constant as bound, a
    per-stored-pair vector gathered at ``idx`` into ``env["take"]``'s ``buf``."""
    c = env[name]
    if np.ndim(c) == 0:
        return c
    idx = env["idx"]
    return gather(c, idx, env.get("take", ARENA.take)(buf, idx.size))


def _scatter_fn(env: dict) -> None:
    """``+fvec`` on i (and ``-fvec`` on j for half lists), per list style."""
    i, j, fvec = env["i_n"], env["j_n"], env["fvec_n"].T
    if env["full"]:
        # One thread per atom sums its own row: conflict-free, so this is a
        # per-row segmented reduction (the row-major list keeps i sorted).
        scatter_add(env["f"], i, fvec, assume_sorted=True)
    elif env["f_view"] is None:
        # Host half list.  The i side is a sorted segmented reduction; the
        # j side is unsorted, where for 3-wide rows the per-column bincount
        # beats replaying the pair cache's j-sort.
        scatter_add(env["f"], i, fvec, assume_sorted=True)
        if env["newton"]:
            scatter_sub(env["f"], j, fvec)
        else:
            jl = env["jl_n"]
            scatter_sub(env["f"], j[jl], fvec[jl])
    else:
        sv = ScatterView(env["f_view"])
        acc = sv.access()
        acc.add(i, fvec)
        if env["newton"]:
            acc.add(j, -fvec)
        else:
            jl = env["jl_n"]
            acc.add(j[jl], -fvec[jl])
        sv.contribute()
        env["atomic_adds"] = sv.atomic_adds
        env["duplicated_bytes"] = float(sv.duplicated_bytes)


# ================================================================ the two-body pass
def prologue(env: dict) -> None:
    """The cut geometry.  Over ``env["x"]``, ``i0``, ``j0``, ``cutsq0`` (0-d
    or per pair) it leaves ``idx`` and the cut-pair arrays
    ``i_n/j_n/dx_n/rsq_n`` (``dx_n = (x[i_n] - x[j_n]).T``), written into
    ``env["take"](name, *shape, dtype=)`` buffers: ``ARENA`` loans by
    default, fresh arrays with :func:`fresh`."""
    _delta_fn(env)
    _rsq_fn(env)
    _cutmask_fn(env)
    _gather_fn(env)


def force_chain(env: dict, tally: bool) -> None:
    """``fvec -> force_scatter`` over the prologue's cut pairs and
    ``env["fpair_n"]``; with ``tally``, the style's energy half, then
    ``ev_tally`` over the cut pairs."""
    dx = env["dx_n"]
    # xi (dx0) is dead once gather has compressed it, and is never shorter
    fvec = env["fvec_n"] = np.multiply(dx, env["fpair_n"], out=ARENA.take("xi", *dx.shape))
    _scatter_fn(env)
    if tally:
        env["energy_fn"](env)
        env["pair"].tally_pairs(
            env["evdwl_n"], dx.T, fvec.T, env["jl_n"],
            full_list=env["full"], newton=env["newton"],
        )


def pairwise(env: dict, tally: bool) -> None:
    """The whole two-body pass: prologue, the style's force half, the chain."""
    prologue(env)
    env["force_fn"](env)
    force_chain(env, tally)


# =================================================================== executors
def run_many_body(stages: list[Stage], env: dict, kernels: dict) -> Iterator[None]:
    """The many-body executor.  ``kernels`` maps a stage to its ``/kk``
    charge ``(kernel name, policy, profile)``; a stage without one runs bare.
    A charged stage runs inside its ``kk.parallel_for``, priced by
    ``profile()`` after it ran.  A yielding stage is ``yield from``-ed."""
    for st in stages:
        name, policy, profile = kernels.get(st.name, (None, None, None))
        if st.yields:
            yield from st.fn(env)
            # A dispatch cannot span a comm yield (the other ranks run
            # inside it), so this is the one charge that follows its work.
            functor = lambda idx: None  # noqa: E731
        elif name is None:
            st.fn(env)
        else:
            functor = lambda idx, fn=st.fn: fn(env)  # noqa: E731
        if name is not None:
            policy = policy() if callable(policy) else policy
            kk.parallel_for(name, policy, functor, profile=profile)
