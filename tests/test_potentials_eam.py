"""EAM: many-body forces, mid-compute communication, Kokkos variant."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import fd_force_check, gather_by_tag
from repro.core import Ensemble, Lammps
from repro.core.errors import InputError, LammpsError
from repro.core.neighbor import build_neighbor_list
from repro.parallel.driver import drain

EAM_SCRIPT = """\
units metal
lattice fcc 3.52
region box block 0 {cells} 0 {cells} 0 {cells}
create_box 1 box
create_atoms 1 box
mass 1 58.7
velocity all create 600 12345
pair_style {pair_style} 4.5
pair_coeff * * 2.0 0.3
neighbor 1.0 bin
fix 1 all nve
thermo 10
"""


def make_eam(device=None, cells=3, pair_style="eam/fs", nranks=1, suffix=None):
    script = EAM_SCRIPT.format(cells=cells, pair_style=pair_style)
    if nranks > 1:
        ens = Ensemble(nranks, device=device, suffix=suffix)
        ens.commands_string(script)
        return ens
    lmp = Lammps(device=device, suffix=suffix)
    lmp.commands_string(script)
    return lmp


class TestEAMPhysics:
    def test_forces_are_energy_gradient(self):
        lmp = make_eam()
        lmp.command("run 3")
        assert fd_force_check(lmp, [0, 13, 40]) < 1e-6

    def test_many_body_not_pairwise(self):
        """Removing an atom changes the force between the OTHERS — the
        signature of a many-body potential."""
        def forces(keep_all: bool):
            lmp = Lammps(device=None)
            lmp.commands_string("units metal\nregion b block 0 20 0 20 0 20\ncreate_box 1 b")
            pts = [[10, 10, 10], [12.5, 10, 10], [11.25, 12.0, 10]]
            if not keep_all:
                pts = pts[:2]
            lmp.create_atoms_from_arrays(np.array(pts, float), np.ones(len(pts), int))
            lmp.commands_string(
                "mass 1 58.7\npair_style eam/fs 4.5\npair_coeff * * 2.0 0.3\nfix 1 all nve"
            )
            lmp.command("run 0")
            return lmp.atom.f[0].copy()

        f_trimer = forces(True)
        f_dimer = forces(False)
        # pure pair potential would predict f_trimer = f_dimer + f(pair 0-2);
        # EAM's embedding makes even the 0-1 contribution density-dependent.
        lmp = Lammps(device=None)
        assert not np.allclose(f_trimer[1], f_dimer[1], atol=1e-10)

    def test_embedding_lowers_energy(self):
        lmp = make_eam(cells=2)
        lmp.command("run 0")
        # F(rho) = -A sqrt(rho) < 0: cohesion beyond pair repulsion
        assert lmp.pair.eng_vdwl < 0

    def test_nve_conservation(self):
        lmp = make_eam(cells=3)
        lmp.command("thermo 50")
        lmp.command("run 50")
        h = lmp.thermo.history
        assert abs(h[-1]["etotal"] - h[0]["etotal"]) / abs(h[0]["etotal"]) < 1e-5

    def test_fp_communicated_to_ghosts(self):
        lmp = make_eam(cells=2)
        lmp.command("run 0")
        atom = lmp.atom
        # every ghost's fp matches its owner's (forward comm did its job)
        for g in range(atom.nlocal, atom.nall):
            owner = np.flatnonzero(atom.tag[: atom.nlocal] == atom.tag[g])[0]
            assert atom.fp[g] == pytest.approx(atom.fp[owner], abs=1e-14)


class TestEAMParallel:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_decomposition_equivalence(self, nranks):
        single = make_eam(cells=3)
        single.command("run 10")
        multi = make_eam(cells=3, nranks=nranks)
        multi.command("run 10")
        np.testing.assert_allclose(
            gather_by_tag(multi, "f"), gather_by_tag(single, "f"), atol=1e-8
        )


class TestEAMHalfList:
    """Host ``eam/fs`` binds only the half list with newton on it requested
    (its match against the one-sided oracle is in ``test_pairwise_oracle``)."""

    def test_a_full_list_is_refused(self):
        """A full list through the half-list scatter would double-count every
        bond silently; binding it raises before any force changes."""
        lmp = make_eam(cells=2)
        lmp.command("run 0")
        atom = lmp.atom
        lmp.neigh_list = build_neighbor_list(
            atom.x[: atom.nall], atom.nlocal, lmp.neigh_list.cutoff, style="full"
        )
        f0 = atom.f.copy()
        with pytest.raises(LammpsError, match="eam/fs requested a half neighbor list"):
            drain(lmp.pair.compute_gen())
        assert np.array_equal(atom.f, f0)


EMPTY_RANK_SCRIPT = """\
units metal
lattice fcc 3.52
region box block 0 6 0 6 0 6
create_box 1 box
region left block 0 2 0 2 0 2
create_atoms 1 region left
mass 1 58.7
velocity all create 600 12345
pair_style {pair_style} 4.5
pair_coeff * * 2.0 0.3
neighbor 1.0 bin
fix 1 all nve
"""


@pytest.mark.parametrize("pair_style", ["eam/fs", "eam/fs/kk"])
def test_a_rank_without_atoms_joins_the_exchanges(pair_style):
    """A rank with no pairs still runs the collective rho/fp exchanges, so
    the other rank is not left waiting; forces match one rank by tag."""
    kw = dict(device="H100", suffix="kk") if pair_style.endswith("/kk") else {}
    script = EMPTY_RANK_SCRIPT.format(pair_style=pair_style.removesuffix("/kk"))

    def run(nranks):
        sim = Ensemble(nranks, **kw) if nranks > 1 else Lammps(**kw)
        sim.commands_string(script + "run 0")
        return sim

    single, multi = run(1), run(2)
    assert sorted(lmp.atom.nlocal for lmp in multi.ranks) == [0, 32]
    np.testing.assert_allclose(
        gather_by_tag(multi, "f"), gather_by_tag(single, "f"), rtol=0, atol=1e-12
    )


class TestEAMKokkos:
    def test_kk_matches_plain(self):
        plain = make_eam(cells=3)
        plain.command("run 10")
        kkr = make_eam(device="H100", cells=3, suffix="kk")
        assert type(kkr.pair).__name__ == "PairEAMKokkos"
        kkr.command("run 10")
        np.testing.assert_allclose(
            gather_by_tag(kkr, "f"), gather_by_tag(plain, "f"), atol=1e-9
        )

    def test_three_kernels_charged(self):
        import repro.kokkos as kk

        kkr = make_eam(device="H100", cells=2, suffix="kk")
        kkr.command("run 1")
        tl = kk.device_context().timeline
        for name in ("PairEAMKernelDensity", "PairEAMKernelEmbed", "PairEAMKernelForce"):
            assert tl.kernel_total(name) > 0, name

    def test_modeled_totals_stay_on_the_full_list(self):
        """``eam/fs/kk`` keeps the full list with newton off while the host
        style runs half + newton on: its charges are pinned bit for bit
        (108 atoms, ``run 3`` on H100, recorded on the full-list host)."""
        import repro.kokkos as kk

        kkr = make_eam(device="H100", cells=3, suffix="kk")
        kkr.command("run 3")
        assert (kkr.neigh_list.style, kkr.neigh_list.newton) == ("full", False)
        tl = kk.device_context().timeline
        assert [
            tl.kernel_total(k)
            for k in ("PairEAMKernelDensity", "PairEAMKernelEmbed", "PairEAMKernelForce")
        ] == [5.001094361212121e-05, 1.462458181818182e-05, 6.240862668224721e-05]


class TestEAMValidation:
    def test_bad_coefficients(self):
        lmp = Lammps(device=None)
        lmp.commands_string(
            "units metal\nregion b block 0 10 0 10 0 10\ncreate_box 1 b\n"
            "pair_style eam/fs 4.5"
        )
        with pytest.raises(InputError, match="non-negative"):
            lmp.command("pair_coeff * * -1.0 0.3")
        with pytest.raises(InputError):
            lmp.command("pair_coeff * * 2.0")

    def test_missing_cutoff(self):
        lmp = Lammps(device=None)
        lmp.commands_string("units metal\nregion b block 0 9 0 9 0 9\ncreate_box 1 b")
        with pytest.raises(InputError, match="cutoff"):
            lmp.command("pair_style eam/fs")


RESORT_SCRIPT = """\
units metal
lattice fcc 3.52
region box block 0 4 0 4 0 4
create_box 1 box
create_atoms 1 box
mass 1 58.7
velocity all create 3000 48611
pair_style eam/fs 4.5
pair_coeff * * 2.0 0.3
neighbor 0.3 bin
neigh_modify every 1 delay 0 check yes
fix 1 all nve
thermo 20
"""


class TestEAMKokkosResort:
    """Regression: a mid-run re-sort permutes host copies of every per-atom
    field, including rho/fp that the kk kernels left newer on the device."""

    @pytest.mark.parametrize("nranks", [1, 2])
    def test_hot_kk_run_survives_resorts(self, nranks):
        def run(device, suffix):
            if nranks > 1:
                sim = Ensemble(nranks, device=device, suffix=suffix)
            else:
                sim = Lammps(device=device, suffix=suffix)
            sim.commands_string(RESORT_SCRIPT)
            sim.commands_string("run 60")
            ranks = sim.ranks if nranks > 1 else [sim]
            assert all(r.neighbor.builds > 2 for r in ranks)  # re-sorted mid-run
            return gather_by_tag(sim, "x")

        np.testing.assert_allclose(
            run("H100", "kk"), run(None, None), rtol=0, atol=1e-9
        )
