"""Appendix B: exascale integer-overflow preparedness.

The paper's two refactors, exercised at (synthetic) exascale-class sizes:

1. the QEq sparse-matrix *row offsets* are int64 while column indices and
   per-row lengths stay int32 — the offsets are the only structure whose
   values exceed 2^31 on large local domains;
2. neighbor structures use 2-D tables / 64-bit row offsets so no flat-index
   arithmetic overflows.

The benchmark measures the offset-scan at a per-rank size whose slot count
exceeds the 32-bit range, which would silently corrupt a 32-bit CSR.
"""

from __future__ import annotations

import numpy as np
from conftest import emit


def over_allocated_offsets(natoms: int, maxneigh: int) -> np.ndarray:
    """The appendix-B scan: int64 row offsets over full neighbor counts."""
    numneigh = np.full(natoms, maxneigh, dtype=np.int64)
    offsets = np.zeros(natoms + 1, dtype=np.int64)
    np.cumsum(numneigh, out=offsets[1:])
    return offsets


def test_appb_row_offsets_exceed_int32(benchmark):
    # 6M local atoms x 400 slots/row = 2.4e9 slots > 2^31 - 1
    natoms, maxneigh = 6_000_000, 400
    offsets = benchmark(over_allocated_offsets, natoms, maxneigh)
    total_slots = int(offsets[-1])
    emit(
        f"Appendix B: {natoms:,} local atoms x {maxneigh} slots/row -> "
        f"{total_slots:,} slots (int32 max {np.iinfo(np.int32).max:,})"
    )
    assert total_slots > np.iinfo(np.int32).max
    assert offsets.dtype == np.int64
    # the quantities that stay 32-bit really fit: columns are bounded by the
    # local+ghost atom count, lengths by maxneigh
    assert natoms * 2 < np.iinfo(np.int32).max
    assert maxneigh < np.iinfo(np.int32).max


def test_appb_engine_dtypes():
    """The engine's production structures follow the appendix-B split."""
    from repro.core import Lammps
    from repro.workloads.hns import setup_hns

    lmp = Lammps(device=None)
    setup_hns(lmp, 2, 2, 2, pair_style="reaxff cutoff 5.0")
    lmp.command("neighbor 0.5 bin")
    lmp.command("run 0")

    # neighbor list: 64-bit row offsets, 32-bit neighbor indices
    assert lmp.neigh_list.first.dtype == np.int64
    assert lmp.neigh_list.neighbors.dtype == np.int32
    # atom tags are bigint from the start
    assert lmp.atom.tag.dtype == np.int64

    from repro.core.neighbor import build_neighbor_list
    from repro.reaxff.qeq import build_qeq_matrix

    species = lmp.pair.type_map[lmp.atom.type[: lmp.atom.nall]]
    matrix = build_qeq_matrix(
        lmp.atom.x[: lmp.atom.nall],
        species,
        lmp.neigh_list,
        lmp.pair.params,
        lmp.update.units.qqr2e,
    )
    assert matrix.offsets.dtype == np.int64  # the appendix-B promotion
    assert matrix.cols.dtype == np.int32  # bounded by the matrix rank
    assert matrix.nnz.dtype == np.int32  # bounded by maxneigh
