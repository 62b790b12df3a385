"""Exact Clebsch-Gordan coefficients on the half-integer lattice.

All angular momenta are passed in LAMMPS's *doubled* integer convention
(``j2x = 2j``), so half-integers stay exact.  Coefficients are computed with
exact integer factorials (Python bignums) and cached; the group-theoretic
symmetries the SNAP index space relies on (section 4.3: ``0 <= j2 <= j1 <=
j <= J``) are property-tested against these values.
"""

from __future__ import annotations

import math
from functools import lru_cache


def _fact(n2: int) -> int:
    """Factorial of a doubled-index quantity; ``n2`` must be even and >= 0."""
    if n2 < 0 or n2 % 2:
        raise ValueError(f"factorial argument {n2}/2 is not a non-negative integer")
    return math.factorial(n2 // 2)


def triangle_ok(j1x2: int, j2x2: int, jx2: int) -> bool:
    """Angular-momentum triangle rule plus integer-sum condition."""
    return (
        abs(j1x2 - j2x2) <= jx2 <= j1x2 + j2x2 and (j1x2 + j2x2 + jx2) % 2 == 0
    )


@lru_cache(maxsize=None)
def clebsch_gordan(
    j1x2: int, m1x2: int, j2x2: int, m2x2: int, jx2: int, mx2: int
) -> float:
    """``<j1 m1 j2 m2 | j m>`` with all arguments doubled.

    Exact rational arithmetic under the square root; returns 0 for any
    selection-rule violation.
    """
    if mx2 != m1x2 + m2x2:
        return 0.0
    if not triangle_ok(j1x2, j2x2, jx2):
        return 0.0
    for jx, mx in ((j1x2, m1x2), (j2x2, m2x2), (jx2, mx2)):
        if abs(mx) > jx or (jx + mx) % 2:
            return 0.0

    # Racah's formula, everything in doubled units (sums are even by the
    # selection rules, so _fact arguments are valid).
    pref_num = (
        _fact(j1x2 + j2x2 - jx2)
        * _fact(j1x2 - j2x2 + jx2)
        * _fact(-j1x2 + j2x2 + jx2)
        * (jx2 + 1)
    )
    pref_den = _fact(j1x2 + j2x2 + jx2 + 2)
    m_num = (
        _fact(j1x2 + m1x2)
        * _fact(j1x2 - m1x2)
        * _fact(j2x2 + m2x2)
        * _fact(j2x2 - m2x2)
        * _fact(jx2 + mx2)
        * _fact(jx2 - mx2)
    )

    zmin = max(0, (j2x2 - jx2 - m1x2) // 2, (j1x2 - jx2 + m2x2) // 2)
    zmax = min(
        (j1x2 + j2x2 - jx2) // 2,
        (j1x2 - m1x2) // 2,
        (j2x2 + m2x2) // 2,
    )
    # the alternating sum is exact over the LCM of its denominators
    dens = [
        _fact(2 * z)
        * _fact(j1x2 + j2x2 - jx2 - 2 * z)
        * _fact(j1x2 - m1x2 - 2 * z)
        * _fact(j2x2 + m2x2 - 2 * z)
        * _fact(jx2 - j2x2 + m1x2 + 2 * z)
        * _fact(jx2 - j1x2 - m2x2 + 2 * z)
        for z in range(zmin, zmax + 1)
    ]
    lcm = math.lcm(*dens)
    num = sum((-1) ** z * (lcm // den) for z, den in enumerate(dens, zmin))
    if num == 0:
        return 0.0
    return num / lcm * math.sqrt(pref_num * m_num / pref_den)
