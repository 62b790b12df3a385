"""Tapered van der Waals + shielded Coulomb (ReaxFF's nonbonded terms).

All neighbor pairs within the 10 A cutoff interact through:

* a Morse-form vdW term ``D [exp(a(1 - r/rv)) - 2 exp(a/2 (1 - r/rv))]``
* a shielded Coulomb term ``C q_i q_j (r^3 + 1/gamma_ij^3)^(-1/3)``

both multiplied by ReaxFF's 7th-order taper ``T(r)`` that takes the
interaction smoothly to zero at the outer cutoff.  The QEq matrix is built
from the same shielded-tapered kernel over the same per-step geometry pass
(:func:`nonbonded_geometry`, run once, by the matrix build), so the
equilibrated charges minimize exactly the Coulomb energy computed here
(which is what makes forces at fixed charges exact derivatives — the
envelope theorem the tests rely on).
That pass is the shared section 4.1 prologue (``pairwise.PROLOGUE``), with
the per-pair species constants gathered once per neighbor rebuild and the
per-step values written into arena loans of the list's own
(:func:`list_loans`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.pairwise import ARENA, PROLOGUE, gather, index_bounds
from repro.kokkos.segment import scatter_add
from repro.reaxff.params import ReaxParams


def taper(
    r: np.ndarray, rc: float, out: tuple[np.ndarray, np.ndarray] | None = None,
    work: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """ReaxFF 7th-order taper ``(T, dT/dr)``: T(0)=1, T(rc)=0, smooth ends.

    ``out`` receives ``(T, dT/dr)`` and ``work`` is a ``(3, len(r))``
    block for the intermediates; either may be omitted.  The buffered form does the plain
    expressions' operations in their order, so it is bitwise the same.
    """
    t, dt = out if out is not None else (np.empty_like(r), np.empty_like(r))
    s, s3, w = work if work is not None else np.empty((3, len(r)))
    np.divide(r, rc, out=s)
    np.multiply(s, s, out=s3)
    s3 *= s
    # t = 1 + s^3 s (-35 + s (84 + s (-70 + 20 s)))
    np.multiply(s, 20.0, out=w)
    w += -70.0
    w *= s
    w += 84.0
    w *= s
    w += -35.0
    np.multiply(s3, s, out=t)
    t *= w
    t += 1.0
    # dt = -140 s^3 (1 - s)^3 / rc
    np.subtract(1.0, s, out=w)
    np.power(w, 3, out=w)
    np.multiply(s3, -140.0, out=dt)
    dt *= w
    dt /= rc
    return t, dt


def shielded_kernel(
    r: np.ndarray, shield: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(g, dg/dr)`` with ``g = (r^3 + shield)^(-1/3)``, ``shield =
    1/gamma_ij^3`` (a species constant, gathered per rebuild).

    ``out`` receives ``(g, dg)``; ``shield`` may be ``g``'s buffer (it is
    read before ``g`` is written).
    """
    g, dg = out if out is not None else (np.empty_like(r), np.empty_like(r))
    base = np.power(r, 3, out=dg)
    base += shield
    np.power(base, -1.0 / 3.0, out=g)
    # dg = -(base^(-4/3)) r r
    np.power(base, -4.0 / 3.0, out=dg)
    np.negative(dg, out=dg)
    dg *= r
    dg *= r
    return g, dg


def vdw_morse(
    r: np.ndarray, d: np.ndarray, alpha: float, rv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(E, dE/dr)`` for the Morse vdW form (no taper)."""
    s = 1.0 - r / rv
    ex = np.exp(alpha * s)
    exh = np.exp(0.5 * alpha * s)
    e = d * (ex - 2.0 * exh)
    de = d * (-alpha / rv) * (ex - exh)
    return e, de


@dataclass
class NonbondedGeometry:
    """Per-step geometry of the full-list pairs inside ``rcut_nonb``.

    One pass computes it for both consumers: the QEq matrix build reads
    ``g * t`` and the nonbonded force reads everything.  Rows are the
    list's row-major order (``i`` sorted).
    """

    i: np.ndarray
    j: np.ndarray
    #: displacement x_i - x_j and distance
    dx: np.ndarray
    r: np.ndarray
    #: taper ``(T, dT/dr)`` and shielded kernel ``(g, dg/dr)``
    t: np.ndarray
    dt: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    #: vdW well depth and radius of the pair's species
    vdw_d: np.ndarray
    vdw_r: np.ndarray


def nonbonded_geometry(
    x: np.ndarray, types: np.ndarray, nlist, params: ReaxParams
) -> NonbondedGeometry:
    """Cutoff-masked pair geometry, taper and shielding from a full list
    (``types`` must be constant between rebuilds of ``nlist``).

    The fields are ``ARENA`` loans under names of ``nlist``'s own
    (:func:`list_loans`): valid until the next call over the same list,
    and across QEq's comm yields, in which another rank's pass takes only
    its own names.  The rebuild's ``ARENA.release()`` drops them."""

    def bind():
        i0, j0 = nlist.ij_pairs()
        ti, tj = np.take(types, i0), np.take(types, j0)
        base = {"i0": i0, "j0": j0, "cutsq0": params.rcut_nonb**2}
        index_bounds(base)
        shield = 1.0 / params.gamma_ij(ti, tj) ** 3
        consts = (shield, params.vdw_d_ij(ti, tj), params.vdw_r_ij(ti, tj))
        return base, params, consts  # params pins the id the memo is keyed on

    base, _, consts = nlist.pair_cache().memo(("reaxff.nonbonded", id(params)), bind)
    loans = list_loans(nlist)

    def take(name, *shape, dtype=np.float64):
        # dx_n stays in the dead xj rows, as for every pass: only its
        # C-ordered copy below has to outlive QEq's yields
        return (ARENA.take if name == "xj" else loans)(name, *shape, dtype=dtype)

    geo = dict(base, x=x, take=take)
    for fn in PROLOGUE:
        fn(geo)
    idx, i, j = geo["idx"], geo["i_n"], geo["j_n"]
    n = idx.size
    # C-ordered, because the force and virial reductions over it are
    # written for (n, 3) rows, and the layout sets their order
    dx = loans("dx", n, 3)
    np.copyto(dx, geo["dx_n"].T)
    r = np.sqrt(geo["rsq_n"], out=geo["rsq_n"])
    # the shield lands in g's buffer, which shielded_kernel reads first
    shield, vdw_d, vdw_r = (
        gather(c, idx, loans(k, n)) for c, k in zip(consts, ("g", "vdw_d", "vdw_r"))
    )
    # dx0's rows are dead once compressed: the taper's work block
    t, dt = taper(r, params.rcut_nonb, (loans("t", n), loans("dt", n)), ARENA.take("xi", 3, n))
    g, dg = shielded_kernel(r, shield, (shield, loans("dg", n)))
    return NonbondedGeometry(i, j, dx, r, t, dt, g, dg, vdw_d, vdw_r)


def list_loans(nlist):
    """``take(name, *shape, dtype)``: ``ARENA`` loans no pass over another
    list takes (names keyed by the list's process-wide ``generation``), so
    they outlive comm yields until the next neighbor build releases them."""
    return lambda name, *shape, dtype=np.float64: ARENA.take(
        ("reaxff", nlist.generation, name), *shape, dtype=dtype
    )


def compute_nonbonded(
    geom: NonbondedGeometry,
    q: np.ndarray,
    params: ReaxParams,
    qqr2e: float,
    f: np.ndarray,
    virial: np.ndarray | None,
) -> tuple[float, float, int]:
    """vdW + Coulomb over this step's :class:`NonbondedGeometry`.

    Returns ``(evdw, ecoul_pairs, pairs_in_cutoff)``; forces are added to
    owned atoms only (full-list convention: each pair visited from both
    ends, energies at half weight).  ``virial=None`` is an untallied step
    (DESIGN §3.4): forces only, and both energies come back 0.0.
    """
    i, j, dx, r = geom.i, geom.j, geom.dx, geom.r
    t, dt, g, dg = geom.t, geom.dt, geom.g, geom.dg
    ev, dev = vdw_morse(r, geom.vdw_d, params.vdw_alpha, geom.vdw_r)
    qq = qqr2e * np.take(q, i) * np.take(q, j)

    de_total = (dev * t + ev * dt) + qq * (dg * t + g * dt)
    fpair = -de_total / r
    fvec = fpair[:, None] * dx
    scatter_add(f, i, fvec, assume_sorted=True)
    if virial is None:
        return 0.0, 0.0, len(r)
    # full-list convention: half the pair energy per visit; force on i only.
    evdw = 0.5 * float((ev * t).sum())
    ecoul = 0.5 * float((qq * g * t).sum())
    # per-visit half virial (sums to the full pair virial over both visits)
    virial[0] += 0.5 * float(np.dot(dx[:, 0], fvec[:, 0]))
    virial[1] += 0.5 * float(np.dot(dx[:, 1], fvec[:, 1]))
    virial[2] += 0.5 * float(np.dot(dx[:, 2], fvec[:, 2]))
    virial[3] += 0.5 * float(np.dot(dx[:, 0], fvec[:, 1]))
    virial[4] += 0.5 * float(np.dot(dx[:, 0], fvec[:, 2]))
    virial[5] += 0.5 * float(np.dot(dx[:, 1], fvec[:, 2]))
    return evdw, ecoul, len(r)
