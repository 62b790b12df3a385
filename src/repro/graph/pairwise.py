"""The force passes as Stage lists, and the executors that run them.

Paper section 4.1's ``pair_kokkos`` contract is that a two-body style
supplies only its pair formula and the base does everything else.  This
module is that "everything else", written once as stage functions over an
``env`` dict:

``delta -> rsq -> cutmask -> gather`` (the geometry prologue), the style's
``eval`` hook (:meth:`repro.potentials.pair.Pair.eval_setup`), ``fvec``,
``force_scatter`` (half/host, full-sorted, ScatterView half +- newton) and
``tally`` (the style's energy half + ``ev_tally``).

Three executors drive that list:

* **eager host** runs the stage bodies in order (:func:`run_stages`);
* **eager kk** runs them inside one charged whole-kernel dispatch
  (:class:`~repro.potentials.pair_kokkos.PairKokkos`);
* **replica** runs the same stage functions over the stacked
  ``i/j/cutsq/coefficient`` vectors of a whole batch
  (:mod:`repro.replica.batch`).

A many-body style (``snap``, ``reaxff``) declares one Stage list of its
own kernels, and :func:`run_many_body` runs it on the host and under ``/kk``.

Workspace contract: per-rebuild *constants* (pair indices, squared
cutoffs, pre-gathered coefficient vectors, ``j < nlocal``) live in the
``env`` memoized on the list's :class:`~repro.core.neighbor.PairCache`, so
a rebuild invalidates them by construction.  Per-step *scratch* comes from
the process-wide :data:`ARENA`: ranks and replicas execute sequentially in
one process, so one grow-only set of buffers serves them all, and
:meth:`Arena.release` drops it before each neighbor build.
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
    """One declared pass of a staged force path."""

    name: str
    fn: Callable[[dict], None]
    #: A generator body (a many-body stage that exchanges with other ranks).
    yields: bool = False


# ======================================================================= arena
class Arena:
    """Grow-only named scratch buffers shared by every pairwise pass.

    ``take(name, *shape)`` hands out a C-contiguous ``shape`` view of the
    front of one flat buffer per name, so any re-take of a name is shaped
    as asked; the buffer grows when it is too short or of another dtype.
    A view stays valid until the next ``take`` of the same name, so a pass
    may only rely on a buffer across calls that cannot run another pass in
    between — which is why outputs that must survive a generator ``yield``
    (EAM's geometry across its ``rho`` and ``fp`` exchanges) are fresh
    arrays instead (``env["take"] = fresh``), or taken under names no other
    pass takes (ReaxFF's, keyed by its list: ``reaxff.nonbonded.list_loans``).
    """

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def take(self, name: str, *shape: int, dtype: Any = np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._bufs[name] = np.empty(size, dtype)
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


#: The geometry prologue, for callers that run it outside a Stage list.
#: Over ``env["x"]``, ``i0``, ``j0``, ``cutsq0`` it leaves ``idx`` and the
#: cut-pair arrays ``i_n/j_n/dx_n/rsq_n`` (``dx_n = (x[i_n] - x[j_n]).T``),
#: written into ``env["take"](name, *shape, dtype=)`` buffers: ``ARENA``
#: loans by default, fresh arrays with :func:`fresh`.
PROLOGUE = (_delta_fn, _rsq_fn, _cutmask_fn, _gather_fn)


def _fvec_fn(env: dict) -> None:
    dx = env["dx_n"]
    # xi (dx0) is dead once gather has compressed it, and is never shorter
    env["fvec_n"] = np.multiply(dx, env["fpair_n"], out=ARENA.take("xi", *dx.shape))


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


def _tally_fn(env: dict) -> None:
    """The style's energy half, then ``ev_tally`` over the cut pairs."""
    env["energy_fn"](env)
    env["pair"].tally_pairs(
        env["evdwl_n"],
        env["dx_n"].T,
        env["fvec_n"].T,
        env["jl_n"],
        full_list=env["full"],
        newton=env["newton"],
    )


# ============================================================ stage declarations
def prologue_stages(prefix: str = "") -> list[Stage]:
    """Stage declarations of the geometry prologue."""
    return [
        Stage(f"{prefix}{name}", fn)
        for name, fn in zip(("delta", "rsq", "cutmask", "gather"), PROLOGUE)
    ]


def force_chain_stages(prefix: str = "") -> tuple[list[Stage], Stage]:
    """``fvec -> force_scatter`` declarations plus the ``tally`` stage."""
    chain = [Stage(f"{prefix}fvec", _fvec_fn), Stage(f"{prefix}force_scatter", _scatter_fn)]
    return chain, Stage(f"{prefix}tally", _tally_fn)


def pairwise_stages(force_fn: Callable[[dict], None]) -> tuple[list[Stage], Stage]:
    """The whole two-body pass: ``(force stages, tally stage)``."""
    chain, tally = force_chain_stages()
    return [*prologue_stages(), Stage("eval", force_fn), *chain], tally


# =================================================================== executors
def run_stages(stages: list[Stage], env: dict) -> None:
    """The eager executor: the stage bodies, in order."""
    for st in stages:
        st.fn(env)


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
