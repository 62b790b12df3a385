"""Data files (``read_data``).

Paper section 2.1 names ``read_data`` as the canonical immediate command —
"reading an atomic structure from a file".  The format here is the LAMMPS
data-file dialect restricted to what the engine models: header counts,
orthogonal box bounds, ``Masses``, ``Atoms`` (``atomic`` or ``charge``
style), and ``Velocities``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import InputError


@dataclass
class DataFile:
    """Parsed contents of a LAMMPS data file."""

    natoms: int
    ntypes: int
    boxlo: np.ndarray
    boxhi: np.ndarray
    masses: np.ndarray  # (ntypes + 1,)
    tags: np.ndarray
    types: np.ndarray
    x: np.ndarray
    q: np.ndarray
    v: np.ndarray


def parse_data(path: str) -> DataFile:
    """Parse the supported data-file subset with diagnostics on malformation."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    lines = [ln.split("#", 1)[0].rstrip() for ln in raw]

    natoms = ntypes = None
    boxlo = np.zeros(3)
    boxhi = np.ones(3)
    k = 1  # skip the title line
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for ln in lines[1:]:
        s = ln.strip()
        if not s:
            continue
        toks = s.split()
        if s.endswith("atoms") and len(toks) == 2:
            natoms = int(toks[0])
        elif s.endswith("atom types"):
            ntypes = int(toks[0])
        elif len(toks) == 4 and toks[2] in ("xlo", "ylo", "zlo"):
            d = "xyz".index(toks[2][0])
            boxlo[d], boxhi[d] = float(toks[0]), float(toks[1])
        elif toks[0] in ("Masses", "Atoms", "Velocities"):
            current = toks[0]
            sections[current] = []
        elif current is not None:
            sections[current].append(s)
        else:
            raise InputError(f"data file: unrecognized header line {s!r}")

    if natoms is None or ntypes is None:
        raise InputError("data file: missing 'atoms' or 'atom types' header")
    if "Atoms" not in sections:
        raise InputError("data file: no Atoms section")

    masses = np.ones(ntypes + 1)
    for s in sections.get("Masses", []):
        toks = s.split()
        t = int(toks[0])
        if not 1 <= t <= ntypes:
            raise InputError(f"data file: mass for type {t} out of range")
        masses[t] = float(toks[1])

    rows = [s.split() for s in sections["Atoms"]]
    if len(rows) != natoms:
        raise InputError(
            f"data file: Atoms section has {len(rows)} rows, header says {natoms}"
        )
    width = len(rows[0])
    if width not in (5, 6):
        raise InputError("data file: Atoms rows must be 'id type [q] x y z'")
    arr = np.asarray(rows, dtype=float)
    tags = arr[:, 0].astype(np.int64)
    types = arr[:, 1].astype(np.int32)
    if types.min() < 1 or types.max() > ntypes:
        raise InputError("data file: atom type out of range")
    if width == 6:
        q = arr[:, 2]
        x = arr[:, 3:6]
    else:
        q = np.zeros(natoms)
        x = arr[:, 2:5]

    v = np.zeros((natoms, 3))
    if "Velocities" in sections:
        vrows = np.asarray([s.split() for s in sections["Velocities"]], dtype=float)
        idx = vrows[:, 0].astype(np.int64)
        order = np.argsort(tags)
        pos = order[np.searchsorted(tags[order], idx)]
        v[pos] = vrows[:, 1:4]

    return DataFile(
        natoms=natoms, ntypes=ntypes, boxlo=boxlo, boxhi=boxhi,
        masses=masses, tags=tags, types=types, x=x, q=q, v=v,
    )


def read_data(lmp, path: str) -> None:
    """Create the box and populate atoms from a data file."""
    data = parse_data(path)
    from repro.core.domain import BlockRegion

    lmp.create_box(data.ntypes, BlockRegion.create(data.boxlo, data.boxhi))
    atom = lmp.atom
    atom.mass[:] = data.masses
    # keep the file's tags: sort by tag, then owner-filter like create_atoms
    order = np.argsort(data.tags)
    x = lmp.domain.wrap(data.x[order])
    owners = lmp.decomp.owner_of(x)
    mine = owners == lmp.comm_rank
    atom.add_local(x[mine], types=data.types[order][mine], tags=data.tags[order][mine])
    sel = np.flatnonzero(mine)
    atom.q[: atom.nlocal] = data.q[order][sel]
    atom.v[: atom.nlocal] = data.v[order][sel]
    lmp.natoms_total += data.natoms
