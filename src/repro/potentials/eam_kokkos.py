"""Kokkos EAM: ``pair_style eam/fs/kk`` (the figure 1 case study).

Three device kernels — density accumulation, embedding, force — with the
embedding-derivative forward communication routed through the *host* views:
the DualView sync protocol moves ``fp`` device -> host, the LAMMPS
communication classes exchange it (figure 1's dashed "uses" arrows), and a
second sync moves it back.  This is the host-side communication choice
section 3.3 describes; it is also the configuration that makes DualView's
staleness tracking earn its keep.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

import repro.kokkos as kk
from repro.core.styles import register_pair
from repro.kokkos.core import Host
from repro.kokkos.scatter_view import ScatterView
from repro.potentials.eam import PairEAM, eam_force, eam_geometry


@register_pair("eam/fs/kk")
class PairEAMKokkos(PairEAM):
    """Device-resident EAM with host-staged fp communication."""

    kokkos_style = True

    def neighbor_request(self) -> tuple[str, bool]:
        return "full", False  # the LAMMPS-KOKKOS GPU default: no write conflicts

    # ------------------------------------------------------------- kernels
    def _density_kernel(self, x, rho_view) -> dict:
        """Cut geometry + ScatterView density accumulation.

        The functor is the computation; the profile is resolved after it
        ran, from the stored pairs and atomics it measured.
        """
        atom = self.lmp.atom
        nlist = self.lmp.neigh_list
        out: dict = {}

        def density_kernel(idx: np.ndarray) -> None:
            geo = eam_geometry(self, x)
            sv = ScatterView(rho_view)
            sv.access().add(geo["i_n"], self.dens(geo["r_n"], geo["rc_n"]))
            sv.contribute()
            out.update(geo, sv=sv)

        def profile() -> kk.KernelProfile:
            stored, sv = len(out["i0"]), out["sv"]
            return kk.KernelProfile(
                name="PairEAMKernelDensity",
                flops=8.0 * stored,
                bytes_streamed=4.0 * stored + 32.0 * atom.nlocal,
                bytes_reusable=24.0 * stored,
                l1_working_set_kb=12.0 * max(nlist.mean_neighbors, 1.0),
                l2_working_set_mb=24.0 * atom.nlocal / 1e6,
                atomic_ops=float(sv.atomic_adds),
                duplicated_bytes=float(sv.duplicated_bytes),
                parallel_items=float(atom.nlocal),
            )

        kk.parallel_for(
            "PairEAMKernelDensity",
            kk.RangePolicy(self.execution_space, 0, atom.nlocal),
            density_kernel,
            profile=profile,
        )
        return out

    def _embed_kernel(self, rho_view, fp_view, types) -> None:
        atom = self.lmp.atom

        def embed_kernel(idx: np.ndarray) -> None:
            rho_l = rho_view.data[idx]
            A = self.embed_A[types[idx]]
            self.eng_vdwl += float(self.embed(rho_l, A).sum())
            fp_view.data[idx] = self.dembed(rho_l, A)

        kk.parallel_for(
            "PairEAMKernelEmbed",
            kk.RangePolicy(self.execution_space, 0, atom.nlocal),
            embed_kernel,
            profile=kk.KernelProfile(
                name="PairEAMKernelEmbed",
                flops=10.0 * atom.nlocal,
                bytes_streamed=24.0 * atom.nlocal,
                parallel_items=float(atom.nlocal),
            ),
        )

    def _force_kernel(self, geo: dict, fp_view, f_view, eflag, vflag) -> None:
        atom = self.lmp.atom
        nlist = self.lmp.neigh_list
        space = self.execution_space
        stored = nlist.total_pairs
        kk.parallel_for(
            "PairEAMKernelForce",
            kk.RangePolicy(space, 0, atom.nlocal),
            lambda idx: eam_force(geo, fp_view.data, f_view.data, eflag or vflag),
            profile=kk.KernelProfile(
                name="PairEAMKernelForce",
                flops=20.0 * stored,
                bytes_streamed=4.0 * stored + 48.0 * atom.nlocal,
                bytes_reusable=32.0 * stored,
                l1_working_set_kb=14.0 * max(nlist.mean_neighbors, 1.0),
                l2_working_set_mb=32.0 * atom.nlocal / 1e6,
                parallel_items=float(atom.nlocal),
            ),
        )
        self.lmp.atom_kk.modified(space, ("f",))

    def _sync_views(self):
        atom = self.lmp.atom
        atom_kk = self.lmp.atom_kk
        space = self.execution_space
        atom_kk.sync(space, ("x", "type", "f", "rho", "fp"))
        x = atom_kk.view("x", space).data[: atom.nall]
        types = atom_kk.view("type", space).data
        rho_view = atom_kk.view("rho", space)
        fp_view = atom_kk.view("fp", space)
        f_view = atom_kk.view("f", space)
        # Scratch fields are zeroed where they will be written — keeping the
        # modify/sync ledger consistent (no host-side writes to device data).
        rho_view.data[: atom.nall] = 0.0
        fp_view.data[: atom.nall] = 0.0
        atom_kk.modified(space, ("rho", "fp"))
        return x, types, rho_view, fp_view, f_view

    def _fp_comm_gen(self) -> Iterator[None]:
        """Host-staged forward communication of fp (figure 1)."""
        lmp = self.lmp
        atom_kk = lmp.atom_kk
        atom_kk.sync(Host, ("fp",))
        yield from lmp.comm_brick.forward_comm_field(lmp.atom, "fp")
        atom_kk.modified(Host, ("fp",))
        atom_kk.sync(self.execution_space, ("fp",))

    # ------------------------------------------------------------- compute
    def compute_gen(self, eflag: bool = True, vflag: bool = True) -> Iterator[None]:
        lmp = self.lmp
        nlist = lmp.neigh_list
        self.reset_tallies(eflag or vflag)
        # a rank without pairs still joins the fp exchange below
        if nlist is None:
            return

        x, types, rho_view, fp_view, f_view = self._sync_views()
        geo = self._density_kernel(x, rho_view)
        self._embed_kernel(rho_view, fp_view, types)
        lmp.atom_kk.modified(self.execution_space, ("rho", "fp"))
        yield from self._fp_comm_gen()
        self._force_kernel(geo, fp_view, f_view, eflag, vflag)
