"""Charge equilibration: over-allocated CSR build + fused dual CG solve.

Paper sections 4.2.2-4.2.3 in full:

* The electrostatic interaction matrix uses a **modified CSR** format that
  is *over-allocated*: each row's slot count comes from a parallel scan
  over the full neighbor list (independent of the interaction cutoff), so
  the build never needs a second counting pass over the expensive kernel.
  Four data structures describe it — flat values, column indices, row
  offsets, and an explicit per-row non-zero count (required *because* rows
  are over-allocated).  Appendix B's integer-width split is applied: row
  offsets are int64 (they overflow 32 bits at exascale), column indices and
  row lengths stay int32 — and :func:`build_qeq_matrix` *enforces* that
  split rather than documenting it.  The offsets, the guards, the diagonal
  and the slot arrays depend only on the neighbor list, so they are built
  once per rebuild (the list's ``PairCache``) and a step writes only the
  live slots and the counts.  A slot past its row's count may hold an
  earlier step's entry: the count, not a ``-1`` column, says which slots
  are live, which is the reason the format carries it.

* The two Krylov solves (``A s = -chi``, ``A t = -1``) are **fused**: the
  direction vectors stack into one ``(nall, 2)`` operand and one dual-RHS
  product (:meth:`QEqMatrix.spmv2`) serves both recurrences — the
  optimization AMD contributed to the Kokkos version.  The *modeled* device
  kernel loads the ``vals``/``cols`` stream once for both products; the
  NumPy body runs two 1-D column passes over the shared row plan, which is
  the faster host form and bitwise equal.  The equilibrated
  charges are ``q = s - t * (sum s / sum t)``, which enforces charge
  neutrality.

* The CG is **Jacobi-preconditioned** (the stored diagonal) and seeded by
  **charge-history extrapolation** (:class:`QEqHistory`): a ring buffer of
  the last three steps' ``s``/``t`` solutions rides on the atom arrays (so
  it survives spatial sorting and rank migration) and seeds every solve
  after a run's first from an order-2 polynomial extrapolation instead of
  zero — the one solver ``pair_style reaxff`` runs, as LAMMPS's
  ``fix qeq/reaxff`` always runs diagonal-preconditioned CG seeded from its
  s/t history.

The solver is written as a generator so distributed runs forward-communicate
the two direction vectors (staged through the ``rho``/``fp`` scratch fields,
packed into ONE exchange per iteration) and allreduce the dot products each
iteration through the lockstep protocol.  On one rank every ghost is a
replayed copy of an owned atom, so the matrix reads each ghost column
through its owner (:meth:`QEqMatrix.fold`) and the CG runs on the owned
vectors alone, with no staging and no exchange — bitwise the same
products.  Convergence is always tested on the *true* residual, so a seeded
and an unseeded solve stop at the identical tolerance — the property the
iteration-count benchmarks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.errors import LammpsError, OverflowGuardError
from repro.graph.pairwise import gather
from repro.reaxff.nonbonded import NonbondedGeometry, list_loans, nonbonded_geometry
from repro.reaxff.params import ReaxParams


@dataclass
class QEqMatrix:
    """Over-allocated CSR (paper's four-structure format) plus the diagonal."""

    nlocal: int
    #: row offsets into the over-allocated flat arrays, int64 (appendix B)
    offsets: np.ndarray
    #: flat column indices (into local+ghost vectors), int32
    cols: np.ndarray
    #: flat interaction values
    vals: np.ndarray
    #: actual non-zeros per row, int32 — required because rows over-allocate
    nnz: np.ndarray
    #: diagonal: 2 * eta_i
    diag: np.ndarray
    #: the step's nonbonded pair geometry the values came from; the
    #: nonbonded force pass reads it instead of recomputing it
    geometry: NonbondedGeometry
    # compacted COO the spmv runs on (the kept entries, row-sorted, exactly
    # the valid slots of the four structures above, which stay the format
    # of record); the build sets it from the arrays it already holds
    _rows_flat: np.ndarray
    _cols_flat: np.ndarray
    _vals_flat: np.ndarray
    # row-segment plan: starts of each non-empty row's run in the compacted
    # arrays and the owning row indices — the true-CSR reduction
    _seg_starts: np.ndarray
    _seg_rows: np.ndarray
    #: length of the vectors the spmv columns index: ``nall``, or ``nlocal``
    #: once :meth:`fold` has pointed every ghost column at its owner
    ncols: int
    #: the spmv's work buffers, loans of the list's own (``list_loans``): the
    #: row product's ``(row, prod, seg, rows)``, the folded operand
    #: ``(2, nlocal)`` and the dual product ``(nlocal, 2)``
    _work: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    _operand: np.ndarray
    _ap: np.ndarray
    #: :meth:`fold` ran: no column names a ghost, so the solve exchanges
    #: nothing.  Only ``fold`` sets it; an N-rank matrix whose rank has no
    #: ghosts (``nall == nlocal``) still exchanges, as its peers do.
    folded: bool = False

    def fold(self, owners: np.ndarray) -> None:
        """Read each ghost column through its owner (``owners[k]`` is the
        owned atom ghost ``k`` copies, :attr:`GhostReplay.owners`).  Exact on
        one rank, where every ghost value is a replayed copy of its owner's.
        The slot arrays keep the ghost columns: they stay the list's view."""
        self._cols_flat = np.take(owners, self._cols_flat)
        self.ncols = self.nlocal
        self.folded = True

    def _row_product(self, vec_all: np.ndarray) -> np.ndarray:
        """``A @ vec`` for one 1-D right-hand side, into the matrix's work
        buffer (valid until the next call).

        Row-major storage makes this a true CSR product: one ``reduceat``
        over the row segments replaces a scalar ``np.add.at`` scatter.
        """
        if len(vec_all) < self.ncols:
            raise LammpsError(f"spmv operand has {len(vec_all)} rows, columns need {self.ncols}")
        out, prod, seg, rows = self._work
        np.multiply(self.diag, vec_all[: self.nlocal], out=out)
        if len(prod):
            gather(vec_all, self._cols_flat, prod)
            np.multiply(self._vals_flat, prod, out=prod)
            np.add.reduceat(prod, self._seg_starts, out=seg)
            gather(out, self._seg_rows, rows)
            out[self._seg_rows] = np.add(rows, seg, out=rows)
        return out

    def spmv(self, vec_all: np.ndarray) -> np.ndarray:
        """``A @ vec``: local rows against local+ghost columns."""
        return self._row_product(vec_all).copy()

    def spmv2(self, vec2_all: np.ndarray) -> np.ndarray:
        """``A @ [u, v]``: the dual-RHS product of the fused CG.

        ``vec2_all`` is ``(ncols, 2)``; the result is ``(nlocal, 2)``, a
        buffer the next call overwrites.  The device kernel this stands for
        loads ``vals``/``cols`` once for both right-hand sides, and that
        one-traversal stream is what the cost model and
        :meth:`traversal_bytes` charge.  The NumPy body is two 1-D
        column passes over the shared per-rebuild row plan: a 2-column fancy
        gather plus ``reduceat(axis=0)`` over an ``(nnz, 2)`` block is
        slower than two 1-D passes.  Each column accumulates exactly
        as :meth:`spmv` does, so the result is bitwise ``(spmv(u), spmv(v))``.
        """
        out = self._ap
        out[:, 0] = self._row_product(vec2_all[:, 0])
        out[:, 1] = self._row_product(vec2_all[:, 1])
        return out

    def traversal_bytes(self) -> int:
        """Matrix-stream bytes the modeled kernel loads per dual-RHS product.

        One pass over the compacted value/column arrays feeds both
        right-hand sides.  Vector gathers are excluded — the point of the
        fusion is the matrix stream.
        """
        return self._vals_flat.nbytes + self._cols_flat.nbytes

    @property
    def stored_slots(self) -> int:
        return len(self.vals)

    @property
    def total_nnz(self) -> int:
        return int(self.nnz.sum())


def _slot_offsets(nlist) -> np.ndarray:
    """Over-allocated row offsets from the list's counts, behind appendix
    B's width guards."""
    numneigh = nlist.numneigh
    offsets = np.zeros(nlist.nlocal + 1, dtype=np.int64)
    np.cumsum(numneigh, out=offsets[1:])
    # Appendix B's width split, enforced: the total slot count may
    # legitimately exceed int32 (that is exactly why the offsets are int64),
    # but the narrow structures must never overflow silently — a single
    # row's length lands in the int32 ``nnz`` array, and column indices land
    # in the int32 ``cols`` array.  The guards fire BEFORE the flat arrays
    # are allocated, so an oversized row raises instead of first trying to
    # materialize gigabytes of slots.
    if offsets.dtype != np.int64:
        raise OverflowGuardError(
            f"QEq row offsets must be int64 (appendix B), got {offsets.dtype}"
        )
    if numneigh.size and int(np.max(numneigh)) > np.iinfo(np.int32).max:
        raise OverflowGuardError(
            f"QEq row length {int(np.max(numneigh))} exceeds int32 — the "
            "per-row nnz array is int32 by the appendix-B width split"
        )
    if nlist.neighbors.size and int(nlist.neighbors.max()) > np.iinfo(np.int32).max:
        raise OverflowGuardError("column index exceeds int32 (appendix B guard)")
    return offsets


def build_qeq_matrix(
    x: np.ndarray,
    types: np.ndarray,
    nlist,
    params: ReaxParams,
    qqr2e: float,
    owners: np.ndarray | None = None,
) -> QEqMatrix:
    """Build the interaction matrix from the full neighbor list.

    Pipeline per the paper: (1) parallel scan over full-list neighbor
    counts -> over-allocated row offsets; (2) value kernel computes the
    shielded-tapered interactions, slots them row-contiguously, and records
    per-row non-zero counts and column offsets.  Step (1), the guards, the
    diagonal and the slot arrays depend on the list alone, so they are
    built once per rebuild of ``nlist`` (its
    :class:`~repro.core.neighbor.PairCache`); each call writes only the
    live slots and ``nnz``.  The value kernel's pair
    geometry (:func:`~repro.reaxff.nonbonded.nonbonded_geometry`, the shared
    two-body prologue) is the step's one nonbonded geometry pass; it rides
    on the matrix as ``geometry`` for the nonbonded force.  ``owners``
    (one-rank worlds) folds the ghost columns onto their owners
    (:meth:`QEqMatrix.fold`).
    """
    nlocal = nlist.nlocal

    def bind():
        offsets = _slot_offsets(nlist)
        slots = int(offsets[-1])
        diag = 2.0 * np.take(params.eta, types[:nlocal])
        return (offsets, np.full(slots, -1, dtype=np.int32), np.zeros(slots),
                np.zeros(nlocal, dtype=np.int32), diag, params)

    offsets, cols, vals, nnz, diag, _ = nlist.pair_cache().memo(("reaxff.qeq", id(params)), bind)

    geom = nonbonded_geometry(x, types, nlist, params)
    i, j = geom.i, geom.j
    v = qqr2e * geom.g * geom.t

    # slot the kept entries contiguously at the front of each row; slots
    # past a row's nnz may hold an earlier step's entries, which nnz hides
    nnz[:] = np.bincount(i, minlength=nlocal)
    row_start = np.zeros(nlocal, dtype=np.int64)
    np.cumsum(nnz[:-1], out=row_start[1:])
    # i is sorted (ij_pairs yields row-major order): entry k of row i goes
    # to slot offsets[i] + (k - row_start[i])
    slot = np.arange(len(i), dtype=np.int64) + np.take(offsets[:-1] - row_start, i)
    cols[slot] = j
    vals[slot] = v

    # (i, j, v) already are the valid slots in row order, so they are the
    # compacted COO, and the non-empty rows' starts are its row plan
    nonempty = np.flatnonzero(nnz)
    take, nseg = list_loans(nlist), len(nonempty)
    matrix = QEqMatrix(
        nlocal=nlocal, offsets=offsets, cols=cols, vals=vals, nnz=nnz, diag=diag,
        geometry=geom, _rows_flat=i, _cols_flat=j, _vals_flat=v,
        _seg_starts=row_start[nonempty], _seg_rows=nonempty, ncols=len(x),
        _work=(take("qeq.row", nlocal), take("qeq.prod", len(i)), take("qeq.seg", nseg),
               take("qeq.rows", nseg)),
        _operand=take("qeq.operand", 2, nlocal), _ap=take("qeq.ap", nlocal, 2),
    )
    if owners is not None:
        matrix.fold(owners)
    return matrix


# ------------------------------------------------------ history extrapolation
#: binomial predictor coefficients per order: x0 = sum c_k * x[t-k]; the
#: seed runs order 2, and an atom with a shorter ring the highest it holds
EXTRAP_COEFFS = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0))

#: ring depth: one slot per order-2 coefficient
HISTORY_DEPTH = len(EXTRAP_COEFFS)


class QEqHistory:
    """Ring buffer of recent ``s``/``t`` solutions, living on the atom arrays.

    The buffers are registered custom per-atom fields
    (:meth:`repro.core.atom.AtomVec.add_custom`), so they are permuted by
    spatial sorting and migrate with their atoms through ``exchange`` — the
    FIRE ``v``-remap lesson, except the history must *survive* ownership
    changes rather than reset.  A per-atom valid-count field clamps each
    atom's usable extrapolation order, so freshly started (or historically
    shallow) atoms fall back to the highest order their ring supports.
    """

    FIELD = "qeq_hist"
    COUNT_FIELD = "qeq_hist_n"

    def __init__(self, atom) -> None:
        self.atom = atom
        # columns [0:D) are s (newest first), [D:2D) are t
        atom.add_custom(self.FIELD, 2 * HISTORY_DEPTH)
        atom.add_custom(self.COUNT_FIELD, 1, dtype=np.int32)

    def push(self, s: np.ndarray, t: np.ndarray) -> None:
        """Shift the ring and record this step's converged solutions."""
        atom = self.atom
        n = atom.nlocal
        d = HISTORY_DEPTH
        h = atom.custom[self.FIELD]
        h[:n, 1:d] = h[:n, 0 : d - 1]
        h[:n, 0] = s
        h[:n, d + 1 : 2 * d] = h[:n, d : 2 * d - 1]
        h[:n, d] = t
        cnt = atom.custom[self.COUNT_FIELD]
        np.minimum(cnt[:n, 0] + 1, d, out=cnt[:n, 0])

    def seed(self) -> tuple[np.ndarray, np.ndarray]:
        """Order-2 polynomial extrapolation ``(s0, t0)``.

        Per atom, the order is clamped to what its ring holds (an atom with
        k recorded solutions extrapolates at order k-1, down to a zero seed
        for an empty ring), so migration and fresh starts degrade gracefully
        instead of polluting the Krylov seed.
        """
        atom = self.atom
        n = atom.nlocal
        d = HISTORY_DEPTH
        h = atom.custom[self.FIELD][:n]
        cnt = atom.custom[self.COUNT_FIELD][:n, 0]
        avail = cnt.astype(np.int64) - 1  # push caps the count at the depth
        s0 = np.zeros(n)
        t0 = np.zeros(n)
        for p, coeffs in enumerate(EXTRAP_COEFFS):
            rows = np.flatnonzero(avail == p)
            if not rows.size:
                continue
            c = np.asarray(coeffs)
            s0[rows] = h[rows, : p + 1] @ c
            t0[rows] = h[rows, d : d + p + 1] @ c
        return s0, t0


# ------------------------------------------------------------------ the solve
def fused_cg_gen(
    lmp,
    matrix: QEqMatrix,
    b1: np.ndarray,
    b2: np.ndarray,
    *,
    out: dict,
    tol: float = 1e-8,
    maxiter: int = 200,
    x0: tuple[np.ndarray, np.ndarray] | None = None,
) -> Iterator[None]:
    """Fused dual conjugate gradient: solve ``A s = b1`` and ``A t = b2``.

    One generator drives both recurrences so each iteration traverses the
    matrix once (section 4.2.3's kernel fusion / work batching: the two
    right-hand-side streams hide behind the single matrix-element stream —
    :meth:`QEqMatrix.spmv2`).

    The recurrence is Jacobi-preconditioned (``z = r / diag``, the stored
    diagonal); ``x0 = (s0, t0)`` seeds the iterates (one extra traversal
    computes the true seed residual).  Convergence is tested on the
    unpreconditioned residual against ``|b|^2 * tol^2``, so a seeded and an
    unseeded solve stop at the identical tolerance.

    Results land in ``out['s']``, ``out['t']``, ``out['iterations']``, plus
    ``out['seeded']``, ``out['spmv_traversals']``, ``out['spmv_bytes']``.
    Distributed: direction vectors are staged through the atom scratch
    fields ``rho``/``fp`` and ghost-exchanged as ONE packed message per
    swap per iteration; dot products allreduce through the lockstep
    protocol.  A folded matrix (:attr:`QEqMatrix.folded`, one rank) reads
    its columns from the owned vectors, so it stages and exchanges nothing.
    """
    atom = lmp.atom
    n = matrix.nlocal
    nall = atom.nall

    def _dual_product(v1, v2) -> Iterator[None]:
        """``A @ [v1, v2]``, exchanging the ghost copies unless folded."""
        if matrix.folded:
            # two contiguous rows, passed as the (n, 2) operand's columns
            operand = matrix._operand
            operand[0] = v1
            operand[1] = v2
            return matrix.spmv2(operand.T)
        # both direction vectors ride one forward exchange per swap
        atom.rho[:nall] = 0.0
        atom.fp[:nall] = 0.0
        atom.rho[:n] = v1
        atom.fp[:n] = v2
        yield from lmp.comm_brick.forward_comm_fields(atom, ("rho", "fp"))
        return matrix.spmv2(np.column_stack((atom.rho[:nall], atom.fp[:nall])))

    traversals = 0
    if x0 is None:
        s, t = np.zeros(n), np.zeros(n)
        r1, r2 = b1.copy(), b2.copy()
    else:
        s = np.array(x0[0], dtype=float, copy=True)
        t = np.array(x0[1], dtype=float, copy=True)
        ax = yield from _dual_product(s, t)
        traversals += 1
        r1 = b1 - ax[:, 0]
        r2 = b2 - ax[:, 1]

    def _precondition(ra, rb):
        # z = r / diag as the columns of one (n, 2) block: the dot products
        # read them strided, and the frozen digests pin those sums' bits
        z = np.column_stack((ra, rb)) / matrix.diag[:, None]
        return z[:, 0], z[:, 1]

    z1, z2 = _precondition(r1, r2)
    p1, p2 = z1.copy(), z2.copy()

    def _reduce(key, values) -> None:
        lmp.world.reduce_contribute(key, np.asarray(values))

    key = ("qeq_rr0", lmp.update.ntimestep)
    _reduce(key, [r1 @ r1, r2 @ r2, b1 @ b1, b2 @ b2, r1 @ z1, r2 @ z2])
    yield
    rr1, rr2, bb1, bb2, rz1, rz2 = np.atleast_1d(lmp.world.reduce_result(key))
    stop1 = max(bb1, 1e-300) * tol * tol
    stop2 = max(bb2, 1e-300) * tol * tol

    it = 0
    while it < maxiter and (rr1 > stop1 or rr2 > stop2):
        # fused matrix traversal: one load of A feeds both products
        ap = yield from _dual_product(p1, p2)
        traversals += 1
        ap1, ap2 = ap[:, 0], ap[:, 1]

        key = ("qeq_pap", lmp.update.ntimestep, it)
        _reduce(key, [p1 @ ap1, p2 @ ap2])
        yield
        pap1, pap2 = np.atleast_1d(lmp.world.reduce_result(key))

        a1 = rz1 / pap1 if rr1 > stop1 else 0.0
        a2 = rz2 / pap2 if rr2 > stop2 else 0.0
        s += a1 * p1
        t += a2 * p2
        r1 -= a1 * ap1
        r2 -= a2 * ap2
        z1, z2 = _precondition(r1, r2)

        key = ("qeq_rr", lmp.update.ntimestep, it)
        _reduce(key, [r1 @ r1, r2 @ r2, r1 @ z1, r2 @ z2])
        yield
        new1, new2, newz1, newz2 = np.atleast_1d(lmp.world.reduce_result(key))
        beta1 = newz1 / rz1 if rr1 > stop1 else 0.0
        beta2 = newz2 / rz2 if rr2 > stop2 else 0.0
        p1 = z1 + beta1 * p1
        p2 = z2 + beta2 * p2
        rr1, rr2 = new1, new2
        rz1, rz2 = newz1, newz2
        it += 1

    if rr1 > stop1 or rr2 > stop2:
        raise LammpsError(
            f"QEq fused CG failed to converge in {maxiter} iterations "
            f"(residuals {rr1:.3e}, {rr2:.3e})"
        )
    out["s"] = s
    out["t"] = t
    out["iterations"] = it
    out["seeded"] = x0 is not None
    out["spmv_traversals"] = traversals
    out["spmv_bytes"] = matrix.traversal_bytes() * traversals


def equilibrate_charges_gen(
    lmp,
    matrix: QEqMatrix,
    chi_local: np.ndarray,
    out: dict,
    *,
    tol: float = 1e-8,
    maxiter: int = 200,
    x0: tuple[np.ndarray, np.ndarray] | None = None,
) -> Iterator[None]:
    """Full QEq: dual solve + neutrality projection.

    ``chi_local`` is the per-owned-atom electronegativity (species-mapped by
    the caller).  ``q_i = s_i - t_i * (sum s / sum t)`` (global sums —
    reduced).  Results land in ``out['q']``, ``out['s']``/``out['t']`` (for
    the history ring), ``out['iterations']``, and the solver's accounting
    keys (``seeded``/``spmv_traversals``/``spmv_bytes``).
    """
    n = matrix.nlocal
    if chi_local.shape != (n,):
        raise LammpsError(f"chi_local shape {chi_local.shape} != ({n},)")
    b1 = -chi_local
    b2 = -np.ones(n)
    sol: dict = {}
    yield from fused_cg_gen(
        lmp, matrix, b1, b2, tol=tol, maxiter=maxiter, out=sol, x0=x0,
    )
    key = ("qeq_neutral", lmp.update.ntimestep)
    lmp.world.reduce_contribute(key, np.array([sol["s"].sum(), sol["t"].sum()]))
    yield
    ssum, tsum = np.atleast_1d(lmp.world.reduce_result(key))
    if abs(tsum) < 1e-300:
        raise LammpsError("QEq neutrality projection degenerate (sum t = 0)")
    out["q"] = sol["s"] - sol["t"] * (ssum / tsum)
    for keep in ("s", "t", "iterations", "seeded", "spmv_traversals", "spmv_bytes"):
        out[keep] = sol[keep]
