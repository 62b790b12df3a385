"""ReaxFF pair style end-to-end: forces, QEq solution, dynamics, parallel."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import fd_force_check, gather_by_tag
from repro.core import Ensemble, Lammps
from repro.core.errors import InputError
from repro.workloads.hns import setup_hns


def make_hns(device=None, nranks=1, pair_style="reaxff cutoff 5.0", cells=(2, 2, 2), suffix=None):
    target = Ensemble(nranks, device=device, suffix=suffix) if nranks > 1 else Lammps(
        device=device, suffix=suffix
    )
    setup_hns(target, *cells, pair_style=pair_style)
    target.commands_string("neighbor 0.5 bin")
    return target


class TestForces:
    def test_fd_total_forces(self):
        """Forces are exact derivatives of the full energy — including the
        bond-order chains, dihedral gradients, taper, and the QEq envelope."""
        lmp = make_hns()
        lmp.command("run 2")  # move off the constructed geometry
        assert fd_force_check(lmp, [0, 13, 29], eps=1e-5) < 1e-5

    def test_forces_sum_to_zero(self):
        lmp = make_hns()
        lmp.command("run 0")
        total = lmp.atom.f[: lmp.atom.nlocal].sum(axis=0)
        assert np.abs(total).max() < 1e-8


class TestQEq:
    def test_charges_neutral(self):
        lmp = make_hns()
        lmp.command("run 0")
        assert abs(lmp.atom.q[: lmp.atom.nlocal].sum()) < 1e-10

    def test_charge_signs_follow_electronegativity(self):
        lmp = make_hns()
        lmp.command("run 0")
        species = lmp.pair.type_map[lmp.atom.type[: lmp.atom.nlocal]]
        q = lmp.atom.q[: lmp.atom.nlocal]
        # O (species 4) has the highest chi -> most negative average charge
        assert q[species == 4].mean() < q[species == 2].mean()  # O below H

    def test_charges_bounded(self):
        lmp = make_hns()
        lmp.command("run 0")
        assert np.abs(lmp.atom.q[: lmp.atom.nlocal]).max() < 2.0

    def test_qeq_minimizes_electrostatic_energy(self):
        """Perturbing the converged charges (neutrally) raises the energy."""
        lmp = make_hns()
        lmp.command("run 0")
        from repro.core.neighbor import build_neighbor_list
        from repro.reaxff.qeq import build_qeq_matrix

        atom, pair = lmp.atom, lmp.pair
        species = pair.type_map[atom.type[: atom.nall]]
        m = build_qeq_matrix(
            atom.x[: atom.nall], species, lmp.neigh_list, pair.params,
            lmp.update.units.qqr2e,
        )
        n = atom.nlocal
        chi = pair.params.chi[species[:n]]

        def electro(q_local):
            qa = atom.q[: atom.nall].copy()
            qa[:n] = q_local
            # single rank: ghosts mirror owners
            for g in range(n, atom.nall):
                qa[g] = q_local[np.flatnonzero(atom.tag[:n] == atom.tag[g])[0]]
            pair_term = 0.5 * float(q_local @ (m.spmv(qa) - m.diag * q_local))
            self_term = float((chi * q_local + 0.5 * m.diag * q_local**2).sum())
            return pair_term + self_term

        q0 = atom.q[:n].copy()
        e0 = electro(q0)
        rng = np.random.default_rng(0)
        dq = rng.normal(size=n)
        dq -= dq.mean()  # stay neutral
        for scale in (1e-3, 1e-2):
            assert electro(q0 + scale * dq) > e0

    def test_qeq_iterations_recorded(self):
        lmp = make_hns()
        lmp.command("run 0")
        assert lmp.pair.last_stats["qeq_iterations"] > 1


class TestDynamics:
    def test_nve_conservation(self):
        lmp = make_hns()
        lmp.command("thermo 30")
        lmp.command("run 30")
        h = lmp.thermo.history
        drift = abs(h[-1]["etotal"] - h[0]["etotal"]) / abs(h[0]["etotal"])
        assert drift < 2e-4

    def test_bonds_persist_in_crystal(self):
        lmp = make_hns()
        lmp.command("run 10")
        stats = lmp.pair.last_stats
        # the molecular network stays bonded at 300 K
        assert stats["nbonds"] > lmp.atom.nlocal  # > 1 bond per atom (directed)
        assert stats["quads"] > 0


class TestBondSearchCut:
    @pytest.mark.parametrize("nranks", [1, 2])
    def test_narrow_search_gives_the_rcut_bond_table(self, monkeypatch, nranks):
        """Every step of a run crossing rebuilds, the bond table from the
        ``bond_search_cut + skin`` list equals, array for array and entry for
        entry, the one from a list built at ``rcut_bond + skin`` on the same
        grid.  The run is hot enough (3000 K, 0.25 fs) that pairs cross the
        bond-order reach between rebuilds: a search list without the skin
        fails here."""
        import repro.reaxff.pair_reaxff as pr
        from repro.core.neighbor import build_neighbor_list

        target = make_hns(nranks=nranks)
        target.commands_string("velocity all create 3000.0 4928\ntimestep 0.25")
        ranks = target.ranks if nranks > 1 else [target]
        build = pr.build_bond_list
        wide: dict = {}
        checked = []

        def both_tables(x, species, nlist, params):
            narrow = build(x, species, nlist, params)
            (lmp,) = [r for r in ranks if r.pair._bond_nlist is nlist]
            if wide.get(id(lmp), (None,))[0] is not lmp.neigh_list:
                wide[id(lmp)] = (lmp.neigh_list, build_neighbor_list(
                    x, len(x), params.rcut_bond + lmp.neighbor.skin,
                    style="full", grid=lmp.bin_grid,
                ))
            ref = build(x, species, wide[id(lmp)][1], params)
            for name in ("first", "i", "j", "bo", "dbo", "dx", "r"):
                assert np.array_equal(getattr(narrow, name), getattr(ref, name)), name
            assert narrow.candidates < ref.candidates
            checked.append(ref)
            return narrow

        monkeypatch.setattr(pr, "build_bond_list", both_tables)
        target.command("run 30")
        rebuilds = ranks[0].neighbor.builds
        assert rebuilds >= 3 and len(checked) == 31 * nranks


def plain_nonbonded_geometry(lmp) -> dict:
    """The nonbonded geometry in plain forms: ``x[i] - x[j]``, a boolean
    ``rsq < rc^2`` mask, and per-pair species constants from the types."""
    from repro.reaxff.nonbonded import shielded_kernel, taper

    atom, params = lmp.atom, lmp.pair.params
    x = atom.x[: atom.nall]
    types = lmp.pair.type_map[atom.type[: atom.nall]]
    i, j = lmp.neigh_list.ij_pairs()
    dx = x[i] - x[j]
    rsq = np.einsum("ij,ij->i", dx, dx)
    mask = rsq < params.rcut_nonb**2
    i, j, dx, r = i[mask], j[mask], dx[mask], np.sqrt(rsq[mask])
    ti, tj = types[i], types[j]
    t, dt = taper(r, params.rcut_nonb)
    g, dg = shielded_kernel(r, params.gamma_ij(ti, tj))
    return dict(
        i=i, j=j, dx=dx, r=r, t=t, dt=dt, g=g, dg=dg,
        vdw_d=params.vdw_d_ij(ti, tj), vdw_r=params.vdw_r_ij(ti, tj),
    )


class TestNonbondedGeometry:
    @pytest.mark.parametrize("nranks", [1, 2])
    def test_prologue_geometry_is_the_plain_formula(self, nranks):
        """Every :class:`NonbondedGeometry` field of the shared-prologue path
        equals the plain formula bit for bit, before and after a neighbor
        rebuild: the species constants memoized per list come from the new
        list, not the old one."""
        from dataclasses import fields

        from repro.reaxff.nonbonded import NonbondedGeometry, nonbonded_geometry

        target = make_hns(nranks=nranks)
        ranks = target.ranks if nranks > 1 else [target]
        lists = []
        for steps in (0, 12):  # every 10: step 10 rebuilds
            target.command(f"run {steps}")
            for lmp in ranks:
                atom, pair = lmp.atom, lmp.pair
                got = nonbonded_geometry(
                    atom.x[: atom.nall], pair.type_map[atom.type[: atom.nall]],
                    lmp.neigh_list, pair.params,
                )
                want = plain_nonbonded_geometry(lmp)
                assert [f.name for f in fields(NonbondedGeometry)] == list(want)
                for name, value in want.items():
                    assert np.array_equal(getattr(got, name), value), name
                lists.append(lmp.neigh_list)
        assert all(a is not b for a, b in zip(lists[:nranks], lists[nranks:]))


class TestCoincidentAtoms:
    def test_zero_separation_fails_loudly(self):
        """Two atoms on one site would put ``0/0`` into the bond and
        nonbonded forces; the step fails naming the step and both tags."""
        from repro.core.errors import LammpsError
        from repro.workloads.hns import HNS_POSTAMBLE, HNS_PREAMBLE, hns_configuration

        x, types, hi = hns_configuration(2, 2, 2)
        x[1] = x[0]
        lmp = Lammps()
        lmp.commands_string(HNS_PREAMBLE)
        lmp.commands_string(f"region box block 0 {hi[0]} 0 {hi[1]} 0 {hi[2]}\ncreate_box 4 box")
        lmp.create_atoms_from_arrays(x, types)
        lmp.commands_string(HNS_POSTAMBLE.format(pair_style="reaxff cutoff 5.0"))
        with pytest.raises(LammpsError, match=r"pair \(1, 2\) has zero separation on timestep 0"):
            lmp.command("run 0")


class TestParallelAndKokkos:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_decomposition_equivalence(self, nranks):
        single = make_hns()
        single.command("run 5")
        multi = make_hns(nranks=nranks)
        multi.command("run 5")
        np.testing.assert_allclose(
            gather_by_tag(multi, "x"), gather_by_tag(single, "x"), atol=1e-7
        )
        np.testing.assert_allclose(
            gather_by_tag(multi, "q"), gather_by_tag(single, "q"), atol=1e-7
        )

    def test_kokkos_matches_plain(self):
        plain = make_hns()
        plain.command("run 5")
        kkr = make_hns(device="H100", pair_style="reaxff/kk cutoff 5.0")
        kkr.command("run 5")
        np.testing.assert_allclose(
            gather_by_tag(kkr, "f"), gather_by_tag(plain, "f"), atol=1e-9
        )

    def test_kokkos_kernels_charged(self):
        import repro.kokkos as kk

        kkr = make_hns(device="H100", pair_style="reaxff/kk cutoff 5.0")
        kkr.command("run 1")
        tl = kk.device_context().timeline
        for name in (
            "ReaxBondOrderNeighborList",
            "ReaxQEqMatrixBuild",
            "ReaxQEqSparseMatVec",
            "ReaxNonbondedForce",
            "ReaxTorsionForce",
        ):
            assert tl.kernel_total(name) > 0, name


class TestValidation:
    def test_pair_coeff_required(self):
        lmp = Lammps(device=None)
        lmp.commands_string(
            "units real\nregion b block 0 12 0 12 0 12\ncreate_box 4 b\n"
            "pair_style reaxff"
        )
        with pytest.raises(InputError, match="chno"):
            lmp.command("pair_coeff 1 1 1.0 1.0")

    def test_element_count_must_match_types(self):
        lmp = Lammps(device=None)
        lmp.commands_string(
            "units real\nregion b block 0 12 0 12 0 12\ncreate_box 4 b\n"
            "pair_style reaxff"
        )
        with pytest.raises(InputError, match="4 element labels"):
            lmp.command("pair_coeff * * chno C H")

    def test_unknown_element(self):
        lmp = Lammps(device=None)
        lmp.commands_string(
            "units real\nregion b block 0 12 0 12 0 12\ncreate_box 1 b\n"
            "pair_style reaxff"
        )
        with pytest.raises(InputError, match="unknown element"):
            lmp.command("pair_coeff * * chno Xe")

    def test_unknown_style_option(self):
        lmp = Lammps(device=None)
        lmp.commands_string("units real\nregion b block 0 12 0 12 0 12\ncreate_box 4 b")
        with pytest.raises(InputError, match="unknown option"):
            lmp.command("pair_style reaxff turbo on")
