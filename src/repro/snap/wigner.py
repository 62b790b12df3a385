"""Wigner U-matrix recursion on the 3-sphere, vectorized over pairs.

Equation 2 of the paper: relative positions map onto the unit 3-sphere
through Cayley-Klein parameters, and the half-integer family of Wigner
matrices ``u_j`` follows from the linear recursion ``u_j = F(u_{j-1/2})``.
The loop over quantum numbers has a serial dependency (section 4.3.3), so
the recursion runs layer by layer; every layer operation is vectorized over
the (atom, neighbor) pair axis, which is where the parallelism lives on
GPUs too.

The derivative recursion (``compute_duarray`` in LAMMPS) applies the product
rule through the same structure and is fused here with the value recursion
when requested, mirroring the hybrid evaluation of section 4.3.3.
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


def _cayley_klein(
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


@lru_cache(maxsize=None)
def _level_tables(J: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Static ``(mb, ma)`` coefficients of level ``J``'s computed rows
    ``mb <= J/2``: the two recursion factors (J columns) and the mirror
    sign ``(-1)^(mb + ma)`` (J + 1 columns), each with a trailing pair axis."""
    mb = np.arange(J // 2 + 1)[:, None]
    ma = np.arange(J)[None, :]
    rpq_a = np.sqrt((J - ma) / (J - mb).astype(float))
    rpq_b = np.sqrt((ma + 1) / (J - mb).astype(float))
    sign = (-1.0) ** (J + mb) * (-1.0) ** np.arange(J + 1)
    return rpq_a[..., None], -rpq_b[..., None], sign[..., None]


def wigner_levels(
    rij: np.ndarray,
    rcut: float,
    *,
    rmin0: float = 0.0,
    twojmax: int = 8,
    derivatives: bool = False,
) -> Iterator[tuple[int, np.ndarray, np.ndarray | None]]:
    """Yield ``(J, u_J, du_J)`` for ``J = 0..twojmax``.

    ``u_J`` is (J+1, J+1, npairs) indexed ``[mb, ma, pair]``.  Each level is
    one update of all rows ``mb <= J/2`` from the previous level, then the
    mirror fill ``u[J-mb, J-ma] = (-1)^(mb+ma) conj(u[mb, ma])`` (VMK 4.4)
    of the entries not updated, so the symmetry holds bit for bit.
    ``du_J`` (None unless ``derivatives``) is (rows, J+1, 3, npairs) and
    stops at the rows ``mb <= (J+1)/2`` the next level and the half-range
    force contraction read; the rest of its mirror image is never built.
    Values are the *bare* matrices — the caller applies the switching
    weight.
    """
    n = rij.shape[0]
    cur = np.ones((1, 1, n), dtype=np.complex128)
    dcur = np.zeros((1, 1, 3, n), dtype=np.complex128) if derivatives else None
    yield 0, cur, dcur
    _, ca, cb, dca, dcb = _cayley_klein(rij, rcut, rmin0)
    for J in range(1, twojmax + 1):
        rpq_a, rpq_b, sign = _level_tables(J)
        h = J // 2 + 1
        p = cur[:h]  # (h, J, n): rows of level J - 1 feeding rows mb <= J/2
        nxt = np.empty((J + 1, J + 1, n), dtype=np.complex128)
        nxt[:h, :J] = rpq_a * (ca * p)
        nxt[:h, J] = 0.0
        nxt[:h, 1:] += rpq_b * (cb * p)
        # the mirror writes only what was not computed: the rows below the
        # middle and the right half of an even level's middle row, so every
        # mirror pair is exact (ComputeUi and ComputeYi read only the half
        # range and stand for the rest)
        k = (J + 1) // 2
        nxt[J : J - k : -1] = sign[:k] * np.conj(nxt[:k, ::-1])
        if J % 2 == 0:
            c = J // 2
            nxt[c, c + 1 :] = sign[c, c + 1 :] * np.conj(nxt[c, c - 1 :: -1])
        if derivatives:
            dp, pe = dcur[:h], p[:, :, None]
            dnxt = np.empty((h + J % 2, J + 1, 3, n), dtype=np.complex128)
            dnxt[:h, :J] = rpq_a[..., None] * (dca * pe + ca * dp)
            dnxt[:h, J] = 0.0
            dnxt[:h, 1:] += rpq_b[..., None] * (dcb * pe + cb * dp)
            if J % 2:  # the one mirrored row that level J + 1 reads
                dnxt[h] = sign[h - 1, :, None] * np.conj(dnxt[h - 1, ::-1])
            dcur = dnxt
        cur = nxt
        yield J, cur, dcur

