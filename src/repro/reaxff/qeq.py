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
  split rather than documenting it.

* The two Krylov solves (``A s = -chi``, ``A t = -1``) are **fused**: the
  direction vectors stack into one ``(nall, 2)`` operand and one dual-RHS
  product (:meth:`QEqMatrix.spmv2`) serves both recurrences — the
  optimization AMD contributed to the Kokkos version.  The *modeled* device
  kernel loads the ``vals``/``cols`` stream once for both products; the
  NumPy body runs two 1-D column passes over the shared row plan, which is
  the faster host form and bitwise equal.  The equilibrated
  charges are ``q = s - t * (sum s / sum t)``, which enforces charge
  neutrality.

* Iterations-to-tolerance is attacked from two more sides: a pluggable
  **preconditioner** (:func:`make_preconditioner`: ``none``/``jacobi``)
  applied inside the dual CG recurrence, and **charge-history
  extrapolation** (:class:`QEqHistory`): a ring buffer of the last few
  steps' ``s``/``t`` solutions rides on the atom arrays (so it survives
  spatial sorting and rank migration) and seeds the CG from a polynomial
  extrapolation instead of zero.  ``pair_style reaxff`` runs ``jacobi``
  with order-2 seeding unless told otherwise.

The solver is written as a generator so distributed runs forward-communicate
the two direction vectors (staged through the ``rho``/``fp`` scratch fields,
packed into ONE exchange per iteration) and allreduce the dot products each
iteration through the lockstep protocol.  Convergence is always tested on
the *true* residual, so every preconditioner/seed combination stops at the
identical tolerance — the property the iteration-count benchmarks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.errors import LammpsError, OverflowGuardError, unknown_choice
from repro.reaxff.nonbonded import NonbondedGeometry, nonbonded_geometry
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

    def _row_product(self, vec_all: np.ndarray) -> np.ndarray:
        """``A @ vec`` for one 1-D right-hand side.

        Row-major storage makes this a true CSR product: one ``reduceat``
        over the row segments replaces a scalar ``np.add.at`` scatter.
        """
        out = self.diag * vec_all[: self.nlocal]
        prod = self._vals_flat * vec_all[self._cols_flat]
        if len(prod):
            out[self._seg_rows] += np.add.reduceat(prod, self._seg_starts)
        return out

    def spmv(self, vec_all: np.ndarray) -> np.ndarray:
        """``A @ vec``: local rows against local+ghost columns."""
        return self._row_product(vec_all)

    def spmv2(self, vec2_all: np.ndarray) -> np.ndarray:
        """``A @ [u, v]``: the dual-RHS product of the fused CG.

        ``vec2_all`` is ``(nall, 2)``; the result is ``(nlocal, 2)``.  The
        device kernel this stands for loads ``vals``/``cols`` once for both
        right-hand sides, and that one-traversal stream is what the cost
        model and :meth:`traversal_bytes` charge.  The NumPy body is two 1-D
        column passes over the shared per-rebuild row plan: a 2-column fancy
        gather plus ``reduceat(axis=0)`` over an ``(nnz, 2)`` block is
        slower than two 1-D passes.  Each column accumulates exactly
        as :meth:`spmv` does, so the result is bitwise ``(spmv(u), spmv(v))``.
        """
        out = np.empty((self.nlocal, 2))
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


def build_qeq_matrix(
    x: np.ndarray,
    types: np.ndarray,
    nlist,
    params: ReaxParams,
    qqr2e: float,
) -> QEqMatrix:
    """Build the interaction matrix from the full neighbor list.

    Pipeline per the paper: (1) parallel scan over full-list neighbor
    counts -> over-allocated row offsets; (2) value kernel computes the
    shielded-tapered interactions, slots them row-contiguously, and records
    per-row non-zero counts and column offsets.  The value kernel's pair
    geometry (:func:`~repro.reaxff.nonbonded.nonbonded_geometry`, the shared
    two-body prologue) is the step's one nonbonded geometry pass; it rides
    on the matrix as ``geometry`` for the nonbonded force.
    """
    nlocal = nlist.nlocal
    numneigh = nlist.numneigh
    offsets = np.zeros(nlocal + 1, dtype=np.int64)
    np.cumsum(numneigh, out=offsets[1:])
    slots = int(offsets[-1])
    # Appendix B's width split, enforced: the total slot count may
    # legitimately exceed int32 (that is exactly why the offsets are int64),
    # but the narrow structures must never overflow silently — a single
    # row's length lands in the int32 ``nnz`` array, and column indices land
    # in the int32 ``cols`` array.  Both guards fire BEFORE the flat arrays
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

    cols = np.full(slots, -1, dtype=np.int32)
    vals = np.zeros(slots)
    nnz = np.zeros(nlocal, dtype=np.int32)

    geom = nonbonded_geometry(x, types, nlist, params)
    i, j = geom.i, geom.j
    v = qqr2e * geom.g * geom.t

    # slot the kept entries contiguously at the front of each row
    nnz_counts = np.bincount(i, minlength=nlocal).astype(np.int32)
    row_start = np.zeros(nlocal, dtype=np.int64)
    np.cumsum(nnz_counts[:-1], out=row_start[1:])
    # i is sorted (ij_pairs yields row-major order); position within row:
    pos = np.arange(len(i), dtype=np.int64) - np.take(row_start, i)
    slot = np.take(offsets, i) + pos
    cols[slot] = j.astype(np.int32)
    vals[slot] = v
    nnz[:] = nnz_counts

    # (i, j, v) already are the valid slots in row order, so they are the
    # compacted COO, and the non-empty rows' starts are its row plan
    nonempty = np.flatnonzero(nnz_counts)
    diag = 2.0 * np.take(params.eta, types[:nlocal])
    return QEqMatrix(
        nlocal=nlocal, offsets=offsets, cols=cols, vals=vals, nnz=nnz, diag=diag,
        geometry=geom, _rows_flat=i, _cols_flat=j.astype(np.int64), _vals_flat=v,
        _seg_starts=row_start[nonempty], _seg_rows=nonempty,
    )


# ---------------------------------------------------------- preconditioners
#: preconditioner choices for the dual CG recurrence
PRECOND_NONE = "none"
PRECOND_JACOBI = "jacobi"
PRECONDS = (PRECOND_NONE, PRECOND_JACOBI)


class JacobiPreconditioner:
    """``z = r / diag`` — free, the diagonal is already stored."""

    name = PRECOND_JACOBI

    def __init__(self, matrix: QEqMatrix) -> None:
        self._diag = matrix.diag

    def apply(self, r2: np.ndarray) -> np.ndarray:
        """``M^-1 @ r2`` for an ``(n, 2)`` residual block."""
        return r2 / self._diag[:, None]


def make_preconditioner(name: str, matrix: QEqMatrix):
    """Preconditioner instance for the dual CG, or None for ``none``.

    Unknown names fail with the shared did-you-mean hint so input-script
    typos surface at parse/apply time, not deep inside the solve.
    """
    if name == PRECOND_NONE:
        return None
    if name == PRECOND_JACOBI:
        return JacobiPreconditioner(matrix)
    raise LammpsError(unknown_choice("qeq_precond", name, PRECONDS))


# ------------------------------------------------------ history extrapolation
#: ring depth: one more slot than the highest extrapolation order
HISTORY_DEPTH = 4

#: extrapolation order choices (string-valued for input scripts / configs)
EXTRAP_NONE = "none"
EXTRAPS = (EXTRAP_NONE, "0", "1", "2", "3")

#: binomial predictor coefficients per order: x0 = sum c_k * x[t-k]
EXTRAP_COEFFS = {
    0: (1.0,),
    1: (2.0, -1.0),
    2: (3.0, -3.0, 1.0),
    3: (4.0, -6.0, 4.0, -1.0),
}


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

    def seed(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Polynomial extrapolation ``(s0, t0)`` at the requested order.

        Per atom, the order is clamped to what its ring holds (an atom with
        k recorded solutions extrapolates at order k-1, down to a zero seed
        for an empty ring), so migration and fresh starts degrade gracefully
        instead of polluting the Krylov seed.
        """
        if order not in EXTRAP_COEFFS:
            raise LammpsError(
                unknown_choice("qeq_extrap order", order, sorted(EXTRAP_COEFFS))
            )
        atom = self.atom
        n = atom.nlocal
        d = HISTORY_DEPTH
        h = atom.custom[self.FIELD][:n]
        cnt = atom.custom[self.COUNT_FIELD][:n, 0]
        avail = np.minimum(cnt.astype(np.int64) - 1, order)
        s0 = np.zeros(n)
        t0 = np.zeros(n)
        for p in range(order + 1):
            rows = np.flatnonzero(avail == p)
            if not rows.size:
                continue
            c = np.asarray(EXTRAP_COEFFS[p])
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
    tol: float = 1e-8,
    maxiter: int = 200,
    out: dict | None = None,
    precond=None,
    x0: tuple[np.ndarray, np.ndarray] | None = None,
) -> Iterator[None]:
    """Fused dual conjugate gradient: solve ``A s = b1`` and ``A t = b2``.

    One generator drives both recurrences so each iteration traverses the
    matrix once (section 4.2.3's kernel fusion / work batching: the two
    right-hand-side streams hide behind the single matrix-element stream —
    :meth:`QEqMatrix.spmv2`).

    ``precond`` (from :func:`make_preconditioner`) turns the recurrence into
    preconditioned CG; ``x0 = (s0, t0)`` seeds the iterates (one extra
    traversal computes the true seed residual).  Convergence is ALWAYS
    tested on the unpreconditioned residual against ``|b|^2 * tol^2``, so
    every configuration stops at the identical tolerance.  With
    ``precond=None`` and ``x0=None`` the iterates are bitwise identical to
    the historical plain-CG path.

    Results land in ``out['s']``, ``out['t']``, ``out['iterations']``, plus
    ``out['seeded']``, ``out['spmv_traversals']``, ``out['spmv_bytes']``.
    Distributed: direction vectors are staged through the atom scratch
    fields ``rho``/``fp`` and ghost-exchanged as ONE packed message per
    swap per iteration; dot products allreduce through the lockstep
    protocol.
    """
    if out is None:
        raise LammpsError("fused_cg_gen requires an output dict")
    atom = lmp.atom
    n = matrix.nlocal
    nall = atom.nall

    def _stage_and_comm(v1, v2) -> Iterator[None]:
        # both direction vectors ride one forward exchange per swap
        atom.rho[:nall] = 0.0
        atom.fp[:nall] = 0.0
        atom.rho[:n] = v1
        atom.fp[:n] = v2
        yield from lmp.comm_brick.forward_comm_fields(atom, ("rho", "fp"))

    def _dual_spmv() -> np.ndarray:
        return matrix.spmv2(np.column_stack((atom.rho[:nall], atom.fp[:nall])))

    traversals = 0
    if x0 is None:
        s = np.zeros(n)
        t = np.zeros(n)
        r1 = b1.copy()
        r2 = b2.copy()
    else:
        s = np.array(x0[0], dtype=float, copy=True)
        t = np.array(x0[1], dtype=float, copy=True)
        yield from _stage_and_comm(s, t)
        ax = _dual_spmv()
        traversals += 1
        r1 = b1 - ax[:, 0]
        r2 = b2 - ax[:, 1]

    if precond is None:
        # z aliases r: after every in-place residual update z IS the new
        # residual, which reduces PCG to the historical plain recurrence
        z1, z2 = r1, r2
    else:
        z = precond.apply(np.column_stack((r1, r2)))
        z1, z2 = z[:, 0], z[:, 1]
    p1 = z1.copy()
    p2 = z2.copy()

    def _reduce(key, values) -> np.ndarray:
        lmp.world.reduce_contribute(key, np.asarray(values))
        return key

    key = ("qeq_rr0", lmp.update.ntimestep)
    _reduce(key, [r1 @ r1, r2 @ r2, b1 @ b1, b2 @ b2, r1 @ z1, r2 @ z2])
    yield
    rr1, rr2, bb1, bb2, rz1, rz2 = np.atleast_1d(lmp.world.reduce_result(key))
    stop1 = max(bb1, 1e-300) * tol * tol
    stop2 = max(bb2, 1e-300) * tol * tol

    it = 0
    while it < maxiter and (rr1 > stop1 or rr2 > stop2):
        yield from _stage_and_comm(p1, p2)
        # fused matrix traversal: one load of A feeds both products
        ap = _dual_spmv()
        traversals += 1
        ap1 = ap[:, 0]
        ap2 = ap[:, 1]

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
        if precond is not None:
            z = precond.apply(np.column_stack((r1, r2)))
            z1, z2 = z[:, 0], z[:, 1]

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
    precond=None,
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
        lmp, matrix, b1, b2, tol=tol, maxiter=maxiter, out=sol,
        precond=precond, x0=x0,
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
