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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kokkos.segment import scatter_add
from repro.reaxff.params import ReaxParams


def taper(r: np.ndarray, rc: float) -> tuple[np.ndarray, np.ndarray]:
    """ReaxFF 7th-order taper ``(T, dT/dr)``: T(0)=1, T(rc)=0, smooth ends."""
    s = r / rc
    s3 = s * s * s
    t = 1.0 + s3 * s * (-35.0 + s * (84.0 + s * (-70.0 + 20.0 * s)))
    dt = (-140.0 * s3 * (1.0 - s) ** 3) / rc
    return t, dt


def shielded_kernel(
    r: np.ndarray, gamma_ij: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(g, dg/dr)`` with ``g = (r^3 + 1/gamma^3)^(-1/3)``."""
    shield = 1.0 / gamma_ij**3
    base = r**3 + shield
    g = base ** (-1.0 / 3.0)
    dg = -(base ** (-4.0 / 3.0)) * r * r
    return g, dg


def vdw_morse(
    r: np.ndarray, d: np.ndarray, alpha: float, rv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(E, dE/dr)`` for the Morse vdW form (no taper)."""
    ex = np.exp(alpha * (1.0 - r / rv))
    exh = np.exp(0.5 * alpha * (1.0 - r / rv))
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
    #: species of ``i`` and ``j``
    ti: np.ndarray
    tj: np.ndarray
    #: displacement x_i - x_j and distance
    dx: np.ndarray
    r: np.ndarray
    #: taper ``(T, dT/dr)`` and shielded kernel ``(g, dg/dr)``
    t: np.ndarray
    dt: np.ndarray
    g: np.ndarray
    dg: np.ndarray


def nonbonded_geometry(
    x: np.ndarray, types: np.ndarray, nlist, params: ReaxParams
) -> NonbondedGeometry:
    """Cutoff-masked pair geometry, taper and shielding from a full list."""
    i, j = nlist.ij_pairs()
    dx = x[i] - x[j]
    rsq = np.einsum("ij,ij->i", dx, dx)
    mask = rsq < params.rcut_nonb**2
    i, j, dx = i[mask], j[mask], dx[mask]
    r = np.sqrt(rsq[mask])
    ti, tj = types[i], types[j]
    t, dt = taper(r, params.rcut_nonb)
    g, dg = shielded_kernel(r, params.gamma_ij(ti, tj))
    return NonbondedGeometry(i=i, j=j, ti=ti, tj=tj, dx=dx, r=r, t=t, dt=dt, g=g, dg=dg)


def compute_nonbonded(
    geom: NonbondedGeometry,
    q: np.ndarray,
    params: ReaxParams,
    qqr2e: float,
    f: np.ndarray,
    virial: np.ndarray,
) -> tuple[float, float, int]:
    """vdW + Coulomb over this step's :class:`NonbondedGeometry`.

    Returns ``(evdw, ecoul_pairs, pairs_in_cutoff)``; forces are added to
    owned atoms only (full-list convention: each pair visited from both
    ends, energies at half weight).
    """
    i, j, ti, tj, dx, r = geom.i, geom.j, geom.ti, geom.tj, geom.dx, geom.r
    t, dt, g, dg = geom.t, geom.dt, geom.g, geom.dg
    ev, dev = vdw_morse(r, params.vdw_d_ij(ti, tj), params.vdw_alpha, params.vdw_r_ij(ti, tj))
    qq = qqr2e * q[i] * q[j]

    e_vdw_pair = ev * t
    e_cou_pair = qq * g * t
    de_total = (dev * t + ev * dt) + qq * (dg * t + g * dt)

    # full-list convention: half the pair energy per visit; force on i only.
    evdw = 0.5 * float(e_vdw_pair.sum())
    ecoul = 0.5 * float(e_cou_pair.sum())
    fpair = -de_total / r
    fvec = fpair[:, None] * dx
    scatter_add(f, i, fvec, assume_sorted=True)
    # per-visit half virial (sums to the full pair virial over both visits)
    virial[0] += 0.5 * float(np.dot(dx[:, 0], fvec[:, 0]))
    virial[1] += 0.5 * float(np.dot(dx[:, 1], fvec[:, 1]))
    virial[2] += 0.5 * float(np.dot(dx[:, 2], fvec[:, 2]))
    virial[3] += 0.5 * float(np.dot(dx[:, 0], fvec[:, 1]))
    virial[4] += 0.5 * float(np.dot(dx[:, 0], fvec[:, 2]))
    virial[5] += 0.5 * float(np.dot(dx[:, 1], fvec[:, 2]))
    return evdw, ecoul, len(r)
