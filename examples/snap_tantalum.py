#!/usr/bin/env python
"""Machine-learning MD of bcc tantalum with SNAP (paper section 4.3).

Runs the SNAP benchmark crystal, then opens the hood on the four-kernel
evaluation pipeline:

1. per-atom bispectrum descriptors (the features a production SNAP is
   trained on) and their rotation invariance;
2. an explicit finite-difference check that the ComputeYi adjoint +
   ComputeFusedDeidrj contraction produce exact forces;
3. the Table 2 tuning knobs: the same physics at different simulated cost.

Run:  python examples/snap_tantalum.py
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.transform import Rotation

import repro.kokkos as kk
import repro.snap  # noqa: F401  (registers the pair styles)
from repro.core import Lammps
from repro.parallel.driver import drain
from repro.snap.bispectrum import compute_bispectrum
from repro.snap.compute_ui import compute_ui
from repro.workloads.tantalum import setup_tantalum

TWOJMAX = 6


def main() -> None:
    lmp = Lammps(device="H100", suffix="kk", quiet=False)
    setup_tantalum(lmp, cells=3, twojmax=TWOJMAX)
    print(f"bcc Ta, {lmp.natoms_total} atoms, 2J_max = {TWOJMAX} "
          f"({lmp.pair.index.nbispectrum} bispectrum components)\n")
    lmp.command("run 10")

    # --- descriptors -------------------------------------------------------
    atom = lmp.atom
    nlist = lmp.neigh_list
    i, j = nlist.ij_pairs()
    x = atom.x[: atom.nall]
    rij = x[j] - x[i]
    mask = np.einsum("ij,ij->i", rij, rij) < lmp.pair.rcut**2
    U = compute_ui(rij[mask], i[mask], atom.nlocal, lmp.pair.rcut, TWOJMAX)
    B = compute_bispectrum(U, TWOJMAX)
    print("Per-atom bispectrum descriptors (first atom, first 6 components):")
    print(" ", np.array2string(B[0, :6], precision=4))

    # rotation invariance: rotate the whole neighborhood of atom 0
    sel = i[mask] == 0
    R = Rotation.random(random_state=42).as_matrix()
    U_rot = compute_ui(
        rij[mask][sel] @ R.T, np.zeros(int(sel.sum()), dtype=int), 1,
        lmp.pair.rcut, TWOJMAX,
    )
    U_raw = compute_ui(
        rij[mask][sel], np.zeros(int(sel.sum()), dtype=int), 1,
        lmp.pair.rcut, TWOJMAX,
    )
    diff = np.abs(
        compute_bispectrum(U_rot, TWOJMAX) - compute_bispectrum(U_raw, TWOJMAX)
    ).max()
    print(f"rotation-invariance residual: {diff:.2e}\n")
    assert diff < 1e-9

    # --- force correctness -------------------------------------------------
    drain(lmp.verlet.run_gen(0))
    f0 = atom.f[0].copy()
    eps = 1e-5
    fd = np.zeros(3)
    for d in range(3):
        atom.x[0, d] += eps
        drain(lmp.verlet.run_gen(0))
        ep = lmp.pair.eng_vdwl
        atom.x[0, d] -= 2 * eps
        drain(lmp.verlet.run_gen(0))
        em = lmp.pair.eng_vdwl
        atom.x[0, d] += eps
        fd[d] = -(ep - em) / (2 * eps)
    drain(lmp.verlet.run_gen(0))
    print("Force on atom 0:  analytic", np.round(f0, 6))
    print("                  finite-d", np.round(fd, 6))
    assert np.abs(fd - f0).max() < 1e-5

    # --- tuning knobs (Table 2) --------------------------------------------
    print("\nWork-batching knobs: identical physics, different simulated cost")
    results = {}
    for label, knobs in [
        ("baseline (batch 1, unfused)", dict(ui_batch=1, yi_batch=1, fuse_deidrj=False)),
        ("tuned    (batch 4, fused)  ", dict(ui_batch=4, yi_batch=4, fuse_deidrj=True)),
    ]:
        trial = Lammps(device="H100", suffix="kk")
        setup_tantalum(trial, cells=3, twojmax=TWOJMAX)
        trial.pair.set_options(**knobs)
        kk.device_context().timeline.reset()
        trial.command("run 5")
        sim_t = kk.device_context().timeline.total()
        results[label] = (trial.thermo.history[-1]["etotal"], sim_t)
        print(f"  {label}: etotal {results[label][0]:+.6f} eV, "
              f"simulated device time {sim_t * 1e3:.3f} ms")
    (e_a, t_a), (e_b, t_b) = results.values()
    assert abs(e_a - e_b) < 1e-10, "tuning must not change physics"
    print(f"  -> tuned configuration is {t_a / t_b:.2f}x faster on the model")


if __name__ == "__main__":
    main()
