"""The autotuner's configuration space over the mode registry.

Every global or per-rank switch the codebase exposes is described here as a
*dimension* of a config dict (string-valued, JSON-friendly):

* ``scatter``  — ScatterView contribution mode (``atomic``/``segmented``),
  the global override in :mod:`repro.kokkos.segment`.
* ``neigh`` + ``newton`` — list style and Newton's-third-law handling, the
  ``package kokkos neigh/newton`` axes of the paper's section 4.1 study.
  These are a *joint* dimension because full lists require newton off.
* ``sort``     — spatial atom-sort interval (``atom_modify sort``).
* ``overlap``  — halo-exchange/compute overlap (ensembles only).
* ``graph``    — kernel-graph capture/fuse/replay of the force step
  (``on``/``off``), the global override in :mod:`repro.graph.plan`.

:func:`enumerate_pair_configs` / :func:`enumerate_neighbor_configs` produce
the candidate cells the tuner measures for each kernel;
:func:`apply_config` installs any (partial) config on a Lammps instance or
Ensemble; :func:`snapshot_config` reads the currently-active cell back so
the search can treat it as the baseline that a challenger must beat by more
than the noise band.
"""

from __future__ import annotations

from repro.graph.plan import OFF as GRAPH_OFF
from repro.graph.plan import ON as GRAPH_ON
from repro.graph.plan import graph_mode, set_graph_mode
from repro.kokkos.segment import (
    ATOMIC,
    SEGMENTED,
    forced_scatter_mode,
    scatter_mode,
    set_scatter_mode,
)

#: Dimension names (the keys of a tune-config dict).
SCATTER = "scatter"
NEIGH = "neigh"
NEWTON = "newton"
SORT = "sort"
OVERLAP = "overlap"
GRAPH = "graph"
ALL_KEYS = (SCATTER, NEIGH, NEWTON, SORT, OVERLAP, GRAPH)

#: QEq solver dimensions — present only when the workload's pair style is
#: ReaxFF (it exposes ``set_qeq_options``); other styles never see them.
QEQ_PRECOND = "qeq_precond"
QEQ_EXTRAP = "qeq_extrap"
QEQ_TOL = "qeq_tol"
QEQ_KEYS = (QEQ_PRECOND, QEQ_EXTRAP, QEQ_TOL)


def qeq_capable(root) -> bool:
    """Whether the active pair style carries the QEq solver knobs."""
    return hasattr(root.pair, "set_qeq_options")

#: Kernels the tuner measures independently.
PAIR_KERNEL = "pair_force"
NEIGHBOR_KERNEL = "neighbor_build"
KERNELS = (PAIR_KERNEL, NEIGHBOR_KERNEL)

_ABBREV = {ATOMIC: "at", SEGMENTED: "sg"}


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


def enumerate_pair_configs(target) -> list[dict]:
    """Candidate cells for the pair-force kernel (scatter x lists x overlap)."""
    ranks = ranks_of(target)
    root = ranks[0]
    overlaps: tuple[str | None, ...] = (None,)
    if len(ranks) > 1 and getattr(root.pair, "supports_overlap", False):
        overlaps = ("off", "on")
    # QEq knobs multiply the product only for ReaxFF workloads: every
    # preconditioner crossed with cold start vs the order-2 extrapolation
    # that pays off on hns (EXPERIMENTS.md "Mode verdicts").  Tolerance is
    # snapshot-only (it changes accuracy, not just speed) but keys every
    # candidate so a stored plan never applies across tolerances.
    qeq_cells: tuple[dict, ...] = ({},)
    if qeq_capable(root):
        from repro.reaxff.qeq import EXTRAP_NONE, PRECONDS

        tol = str(root.pair.qeq_tol)
        qeq_cells = tuple(
            {QEQ_PRECOND: precond, QEQ_EXTRAP: extrap, QEQ_TOL: tol}
            for precond in PRECONDS
            for extrap in (EXTRAP_NONE, "2")
        )
    configs = []
    for neigh, newton in list_cells(root):
        for scatter in (ATOMIC, SEGMENTED):
            for graph in (GRAPH_OFF, GRAPH_ON):
                for overlap in overlaps:
                    for qeq in qeq_cells:
                        cfg = {
                            SCATTER: scatter,
                            NEIGH: neigh,
                            NEWTON: newton,
                            GRAPH: graph,
                            **qeq,
                        }
                        if overlap is not None:
                            cfg[OVERLAP] = overlap
                        configs.append(cfg)
    return configs


def enumerate_neighbor_configs(target) -> list[dict]:
    """Candidate cells for the neighbor-build kernel (the sort interval)."""
    root = ranks_of(target)[0]
    sorts = []
    for value in (str(max(root.sort_every, 0)), "1", "0"):
        if value not in sorts:
            sorts.append(value)
    return [{SORT: sort} for sort in sorts]


def snapshot_config(target, keys=None) -> dict:
    """The currently-active value of each requested dimension.

    With ``keys=None`` the snapshot covers every dimension the target
    exposes: ``ALL_KEYS`` plus the QEq dimensions when the pair style is
    ReaxFF.
    """
    root = ranks_of(target)[0]
    style, newton = root.pair.neighbor_request()
    full = {
        SCATTER: forced_scatter_mode()
        or scatter_mode(getattr(root.pair, "execution_space", None)),
        NEIGH: style,
        NEWTON: "on" if newton else "off",
        SORT: str(max(root.sort_every, 0)),
        OVERLAP: "on" if getattr(root, "overlap_comm", False) else "off",
        GRAPH: graph_mode(),
    }
    capable = qeq_capable(root)
    if capable:
        full[QEQ_PRECOND] = root.pair.qeq_precond
        full[QEQ_EXTRAP] = root.pair.qeq_extrap
        full[QEQ_TOL] = str(root.pair.qeq_tol)
    if keys is None:
        keys = ALL_KEYS + QEQ_KEYS if capable else ALL_KEYS
    return {key: full[key] for key in keys}


def apply_config(target, config: dict) -> None:
    """Install a (partial) mode config globally and on every rank.

    Only the dimensions present in ``config`` are touched, so a pair-kernel
    winner and a neighbor-kernel winner compose without clobbering each
    other.  The neighbor list is *not* rebuilt here — callers rebuild when
    the list-shaping dimensions (neigh/newton/sort) changed.
    """
    if SCATTER in config:
        set_scatter_mode(config[SCATTER])
    if GRAPH in config:
        set_graph_mode(config[GRAPH])
    for lmp in ranks_of(target):
        pair = lmp.pair
        if NEIGH in config or NEWTON in config:
            newton = config[NEWTON] == "on" if NEWTON in config else None
            if hasattr(pair, "neigh_mode"):
                pair.set_options(neigh=config.get(NEIGH), newton=newton)
                # keep `package kokkos` consistent so the pair.init() in the
                # next run setup does not silently undo the tuned choice
                if NEIGH in config:
                    lmp.package_kokkos["neigh"] = config[NEIGH]
                if newton is not None:
                    lmp.package_kokkos["newton"] = newton
            if newton is not None:
                lmp.newton_pair = newton
        if SORT in config:
            lmp.sort_every = int(config[SORT])
        if OVERLAP in config:
            lmp.overlap_comm = config[OVERLAP] == "on"
        if hasattr(pair, "set_qeq_options") and any(
            key in config for key in QEQ_KEYS
        ):
            pair.set_qeq_options(
                precond=config.get(QEQ_PRECOND),
                extrap=config.get(QEQ_EXTRAP),
                tol=config.get(QEQ_TOL),
            )


def short_label(config: dict) -> str:
    """Compact human label for a config (the thermo ``tune`` column)."""
    parts = []
    if SCATTER in config:
        parts.append(_ABBREV.get(config[SCATTER], config[SCATTER]))
    if NEIGH in config:
        cell = config[NEIGH]
        if NEWTON in config:
            cell += "+" + config[NEWTON]
        parts.append(cell)
    if SORT in config:
        parts.append("s" + config[SORT])
    if config.get(OVERLAP) == "on":
        parts.append("ov")
    if config.get(GRAPH) == GRAPH_ON:
        parts.append("gr")
    if config.get(QEQ_PRECOND, "none") != "none":
        parts.append("p" + config[QEQ_PRECOND][:1])
    if config.get(QEQ_EXTRAP, "none") != "none":
        parts.append("x" + config[QEQ_EXTRAP])
    return "/".join(parts) or "-"
