"""Domain (box/PBC/regions/lattices) and atom storage."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atom import AtomVec
from repro.core.domain import BlockRegion, Domain, Lattice
from repro.core.errors import DomainError, LammpsError


class TestDomain:
    def box(self):
        d = Domain()
        d.set_box((0, 0, 0), (10, 8, 6))
        return d

    def test_lengths_volume(self):
        d = self.box()
        assert list(d.lengths) == [10, 8, 6]
        assert d.volume == 480

    def test_degenerate_box_rejected(self):
        with pytest.raises(DomainError, match="degenerate"):
            Domain().set_box((0, 0, 0), (1, -1, 1))

    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_wrap_idempotent_and_in_box(self, seed):
        d = self.box()
        rng = np.random.default_rng(seed)
        x = rng.uniform(-30, 30, size=(20, 3))
        w = d.wrap(x)
        assert np.all(w >= d.boxlo) and np.all(w < d.boxhi)
        np.testing.assert_allclose(d.wrap(w), w, atol=1e-12)
        # wrapping preserves position modulo box lengths
        np.testing.assert_allclose(
            np.mod(w - x, d.lengths), np.zeros_like(x), atol=1e-9
        )

    def test_wrap_respects_non_periodic_dims(self):
        d = Domain()
        d.set_box((0, 0, 0), (10, 10, 10), periodic=(True, False, True))
        w = d.wrap(np.array([[12.0, 12.0, 12.0]]))
        assert w[0, 0] == pytest.approx(2.0)
        assert w[0, 1] == pytest.approx(12.0)  # untouched


class TestRegions:
    def test_inside(self):
        r = BlockRegion.create((0, 0, 0), (2, 2, 2))
        inside = r.inside(np.array([[1, 1, 1], [3, 1, 1], [2, 1, 1]]))
        assert list(inside) == [True, False, False]  # upper face exclusive

    def test_degenerate_region(self):
        with pytest.raises(DomainError):
            BlockRegion.create((0, 0, 0), (0, 1, 1))


class TestLattice:
    def test_fcc_atom_count(self):
        lat = Lattice.create("fcc", 4.0, lj_units=False)
        region = BlockRegion.create((0, 0, 0), (3 * 4.0, 3 * 4.0, 3 * 4.0))
        sites = lat.positions_in_region(region)
        assert len(sites) == 4 * 27  # 4 basis atoms per cell

    def test_bcc_atom_count(self):
        lat = Lattice.create("bcc", 3.316, lj_units=False)
        region = BlockRegion.create((0, 0, 0), (2 * 3.316, 2 * 3.316, 2 * 3.316))
        assert len(lat.positions_in_region(region)) == 2 * 8

    def test_lj_density_convention(self):
        lat = Lattice.create("fcc", 0.8442, lj_units=True)
        # a = (4 / rho)^(1/3)
        assert lat.a == pytest.approx((4 / 0.8442) ** (1 / 3))

    def test_unknown_style(self):
        with pytest.raises(DomainError, match="unknown lattice"):
            Lattice.create("hcp9", 1.0, lj_units=False)

    def test_min_site_spacing(self):
        lat = Lattice.create("fcc", 1.0, lj_units=False)
        sites = lat.positions_in_region(BlockRegion.create((0, 0, 0), (2, 2, 2)))
        from scipy.spatial.distance import pdist

        assert pdist(sites).min() == pytest.approx(np.sqrt(0.5))


class TestAtomVec:
    def test_add_local_assigns_tags(self):
        atom = AtomVec(ntypes=2)
        atom.add_local(np.zeros((3, 3)), types=1)
        assert list(atom.tag[:3]) == [1, 2, 3]
        assert atom.nlocal == 3

    def test_type_range_checked(self):
        atom = AtomVec(ntypes=1)
        with pytest.raises(LammpsError, match="types must be"):
            atom.add_local(np.zeros((2, 3)), types=np.array([1, 5]))

    def test_grow_preserves_data(self):
        atom = AtomVec()
        atom.add_local(np.ones((2, 3)))
        gen = atom.generation
        atom.grow(1000)
        assert atom.generation > gen
        assert np.all(atom.x[:2] == 1.0)

    def test_cannot_add_local_with_ghosts(self):
        atom = AtomVec()
        atom.add_local(np.zeros((1, 3)))
        atom.add_ghosts({"x": np.ones((1, 3)), "tag": np.array([9]),
                         "type": np.array([1]), "q": np.zeros(1)})
        with pytest.raises(LammpsError, match="ghosts exist"):
            atom.add_local(np.zeros((1, 3)))

    def test_ghost_bookkeeping(self):
        atom = AtomVec()
        atom.add_local(np.zeros((2, 3)))
        atom.add_ghosts({"x": np.ones((3, 3)), "tag": np.arange(3),
                         "type": np.ones(3, dtype=np.int32), "q": np.zeros(3)})
        assert atom.nall == 5
        atom.clear_ghosts()
        assert atom.nall == 2

    def test_bigint_tags(self):
        assert AtomVec().tag.dtype == np.int64  # appendix B
