"""Wigner U-matrix recursion on the 3-sphere, vectorized over pairs.

Equation 2 of the paper: relative positions map onto the unit 3-sphere
through Cayley-Klein parameters, and the half-integer family of Wigner
matrices ``u_j`` follows from the linear recursion ``u_j = F(u_{j-1/2})``.
The loop over quantum numbers has a serial dependency (section 4.3.3), so
the recursion runs layer by layer; every layer operation is vectorized over
the (atom, neighbor) pair axis, which is where the parallelism lives on
GPUs too.

The levels are binomial-scaled, ``u_J = S_J v_J`` (``SnapIndex.half_scale``,
applied once per atom by the consumers).

Each level keeps only the rows some consumer reads (:func:`level_rows`):
the half-range prefix ComputeUi sums and the rows the next level is built
from.  Derivatives are not carried forward here: ComputeFusedDeidrj runs
the recursion once for values and takes the force by one reverse sweep
through the same levels (:mod:`repro.snap.compute_deidrj`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

#: angle scale factor (LAMMPS default rfac0)
RFAC0 = 0.99363


def switching(r: np.ndarray, rcut: float, rmin0: float) -> tuple[np.ndarray, np.ndarray]:
    """Cosine switching function ``(sfac, dsfac/dr)`` (LAMMPS switchflag=1)."""
    denom = rcut - rmin0
    s = np.pi * (r - rmin0) / denom
    sfac = 0.5 * (np.cos(s) + 1.0)
    dsfac = -0.5 * np.pi / denom * np.sin(s)
    inside = r < rcut
    return np.where(inside, sfac, 0.0), np.where(inside, dsfac, 0.0)


def cayley_klein(
    rij: np.ndarray, rcut: float, rmin0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cayley-Klein parameters and their Cartesian gradients.

    Returns ``(r, ca, cb, dca, dcb)`` where ``ca = conj(a)``, ``cb =
    conj(b)`` enter the recursion directly, and ``dca``/``dcb`` have shape
    (3, npairs).
    """
    rt = np.ascontiguousarray(rij.T)
    x, y, z = rt
    r = np.sqrt(np.einsum("ij,ij->i", rij, rij))
    theta0 = RFAC0 * np.pi * (r - rmin0) / (rcut - rmin0)
    dtheta_dr = RFAC0 * np.pi / (rcut - rmin0)
    cot = np.cos(theta0) / np.sin(theta0)
    z0 = r * cot
    # dz0/dr = cot - r * (1 + cot^2) * dtheta/dr
    dz0_dr = cot - r * (1.0 + cot * cot) * dtheta_dr
    dz0 = dz0_dr * (rt / r)  # (3, n)

    r0sq = r * r + z0 * z0
    r0inv = 1.0 / np.sqrt(r0sq)
    # dr0inv = -r0inv^3 (r dr + z0 dz0)
    dr0inv = -(r0inv**3) * (rt + z0 * dz0)

    a = r0inv * (z0 - 1j * z)
    b = r0inv * (y - 1j * x)
    da = dr0inv * (z0 - 1j * z) + r0inv * dz0.astype(complex)
    da[2] += r0inv * (-1j)
    db = dr0inv * (y - 1j * x)
    db[1] += r0inv
    db[0] += r0inv * (-1j)
    return r, np.conj(a), np.conj(b), np.conj(da), np.conj(db)


def level_rows(J: int) -> int:
    """Rows of level ``J`` that :func:`wigner_levels` yields: the computed
    rows ``mb <= J/2`` plus, for odd ``J``, the mirror row ``J//2 + 1`` that
    level ``J + 1`` reads."""
    return J // 2 + 1 + J % 2


@lru_cache(maxsize=None)
def mirror_sign(J: int) -> np.ndarray:
    """``(-1)^(mb + ma)`` of the last computed row ``mb = J//2`` of level
    ``J`` (J + 1 entries, trailing pair axis): the sign of its mirror image."""
    return ((-1.0) ** (J + J // 2) * (-1.0) ** np.arange(J + 1))[:, None]


def wigner_levels(
    weight: np.ndarray, ca: np.ndarray, cb: np.ndarray, twojmax: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(J, v_J)`` for ``J = 0..twojmax`` from the per-pair level 0
    ``weight`` and the Cayley-Klein parameters ``ca``, ``cb``.

    ``u_J = S_J v_J``, ``S_J[mb, ma] = A_J[mb] sqrt(ma! (J-ma)!)`` with
    ``A_J[mb] = A_{J-1}[mb] / sqrt(J-mb)`` (``A_0 = 1``; an odd level's
    mirror row takes ``A_J[J//2]``): the textbook factors ``sqrt((J-ma)/
    (J-mb))``, ``-sqrt(ma/(J-mb))`` factor out, leaving ``v_J[:, ma] = ca
    v_{J-1}[:, ma] - cb v_{J-1}[:, ma-1]``, linear in ``weight``.  ``v_J``
    is (:func:`level_rows` (J), J+1, npairs), ``[mb, ma, pair]``: the rows
    ``mb <= J/2``, then the mirror ``v[J-mb, J-ma] = (-1)^(mb+ma) conj(v[mb,
    ma])`` (VMK 4.4; ``S`` is mirror-symmetric) of what level ``J + 1``
    reads and was not computed — an odd level's row ``J//2 + 1``, the right
    half of an even level's middle row — so it holds bit for bit.  The
    half-range prefix (``SnapIndex.half_block``) of every level is complete.
    """
    # the levels' rank: 1-D against one (1, 1, 1) pair multiplies otherwise
    ca, cb, cur = (x.reshape(1, 1, -1) for x in (ca, cb, weight))
    yield 0, cur
    for J in range(1, twojmax + 1):
        h = J // 2 + 1
        p = cur[:h]  # (h, J, n): rows of level J - 1 feeding rows mb <= J/2
        nxt = np.empty((level_rows(J), J + 1, cur.shape[2]), dtype=np.complex128)
        np.multiply(ca, p, out=nxt[:h, :J])
        nxt[:h, J] = 0.0
        nxt[:h, 1:] -= cb * p
        c = J // 2
        sign = mirror_sign(J)
        if J % 2:
            nxt[h] = sign * np.conj(nxt[c, ::-1])
        else:
            nxt[c, c + 1 :] = sign[c + 1 :] * np.conj(nxt[c, c - 1 :: -1])
        cur = nxt
        yield J, cur
