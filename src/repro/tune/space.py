"""The autotuner's configuration space: the paper's section 4.1 question.

A tune config is a string-valued, JSON-friendly dict with exactly two keys,
``neigh`` + ``newton``: list style and Newton's-third-law handling, the
LAMMPS ``package kokkos neigh/newton`` axes.  They are one *joint*
dimension because full lists require newton off.

:func:`enumerate_configs` produces the candidate cells;
:func:`apply_config` installs one on a Lammps instance or Ensemble;
:func:`snapshot_config` reads the active cell back as the search baseline.
Every other mode (sort interval, the QEq knobs) stays user-settable
and is never searched; the scatter deconfliction follows the execution
space (:class:`~repro.kokkos.scatter_view.ScatterView`).
"""

from __future__ import annotations

#: Dimension names (the keys of a tune-config dict).
NEIGH = "neigh"
NEWTON = "newton"


def ranks_of(target) -> list:
    """The per-rank Lammps instances of a Lammps or Ensemble target."""
    return list(target.ranks) if hasattr(target, "ranks") else [target]


def list_cells(root) -> tuple[tuple[str, str], ...]:
    """``(neigh, newton)`` cells the active pair style supports.

    Kokkos-suffixed styles expose the full section-4.1 product through
    ``set_options`` minus the invalid full+newton-on cell.  Plain styles are
    probed by flipping ``newton_pair`` through ``neighbor_request()``: styles
    with a fixed request (e.g. SNAP/ReaxFF full lists) collapse to one cell.
    """
    pair = root.pair
    if hasattr(pair, "neigh_mode"):
        return (("half", "on"), ("half", "off"), ("full", "off"))
    saved = root.newton_pair
    try:
        root.newton_pair = True
        cell_on = pair.neighbor_request()
        root.newton_pair = False
        cell_off = pair.neighbor_request()
    finally:
        root.newton_pair = saved
    cells = []
    for style, newton in (cell_on, cell_off):
        cell = (style, "on" if newton else "off")
        if cell not in cells:
            cells.append(cell)
    return tuple(cells)


def enumerate_configs(target) -> list[dict]:
    """Candidate cells: one per supported ``(neigh, newton)`` list cell."""
    return [
        {NEIGH: neigh, NEWTON: newton}
        for neigh, newton in list_cells(ranks_of(target)[0])
    ]


def snapshot_config(target) -> dict:
    """The currently-active cell."""
    style, newton = ranks_of(target)[0].pair.neighbor_request()
    return {NEIGH: style, NEWTON: "on" if newton else "off"}


def apply_config(target, config: dict) -> None:
    """Install a config on every rank.

    The neighbor list is *not* rebuilt here — callers rebuild when
    ``(neigh, newton)`` changed.
    """
    newton = config[NEWTON] == "on"
    for lmp in ranks_of(target):
        if hasattr(lmp.pair, "neigh_mode"):
            lmp.pair.set_options(neigh=config[NEIGH], newton=newton)
            # keep `package_kokkos` consistent so the pair.init() in the
            # next run setup does not silently undo the tuned choice
            lmp.package_kokkos["neigh"] = config[NEIGH]
            lmp.package_kokkos["newton"] = newton
        lmp.newton_pair = newton


def short_label(config: dict) -> str:
    """Compact human label for a config (the thermo ``tune`` column)."""
    return f"{config[NEIGH]}+{config[NEWTON]}"
