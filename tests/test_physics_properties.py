"""Property-based physics invariants across all pair styles.

Hypothesis drives random configurations through every potential and checks
the invariants any correct force implementation must satisfy: Newton's
third law (total force zero), translation invariance, permutation
consistency, and exactness of forces as energy gradients.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_force_check
from repro.core import Lammps
from repro.parallel.driver import drain

#: (units, pair_style setup lines, box edge, min distance between atoms)
STYLES = {
    "lj/cut": ("lj", "pair_style lj/cut 2.5\npair_coeff 1 1 1.0 1.0", 7.0, 0.85),
    "eam/fs": ("metal", "pair_style eam/fs 4.5\npair_coeff * * 2.0 0.3", 12.0, 1.8),
    "snap": (
        "metal",
        "pair_style snap 4 4.0\npair_coeff 1 1 0.5 1.0",
        11.0,
        1.9,
    ),
}


def build(style: str, x: np.ndarray) -> Lammps:
    units, setup, box, _ = STYLES[style]
    lmp = Lammps(device=None)
    lmp.commands_string(
        f"units {units}\nregion b block 0 {box} 0 {box} 0 {box}\ncreate_box 1 b"
    )
    lmp.create_atoms_from_arrays(x, np.ones(len(x), dtype=int))
    lmp.commands_string(f"mass 1 50.0\n{setup}\nneighbor 0.5 bin\nfix 1 all nve")
    drain(lmp.verlet.run_gen(0))
    return lmp


def random_points(seed: int, style: str, n: int = 14) -> np.ndarray:
    """Poisson-ish points: random with minimum separation enforced."""
    _, _, box, dmin = STYLES[style]
    rng = np.random.default_rng(seed)
    pts: list[np.ndarray] = []
    attempts = 0
    while len(pts) < n and attempts < 4000:
        cand = rng.uniform(0, box, 3)
        attempts += 1
        ok = True
        for p in pts:
            d = cand - p
            d -= box * np.round(d / box)
            if np.linalg.norm(d) < dmin:
                ok = False
                break
        if ok:
            pts.append(cand)
    return np.asarray(pts)


@pytest.mark.parametrize("style", sorted(STYLES))
class TestForceInvariants:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_total_force_zero(self, style, seed):
        x = random_points(seed, style)
        lmp = build(style, x)
        total = lmp.atom.f[: lmp.atom.nlocal].sum(axis=0)
        scale = max(np.abs(lmp.atom.f[: lmp.atom.nlocal]).max(), 1.0)
        assert np.abs(total).max() < 1e-9 * scale

    @given(seed=st.integers(0, 10_000), shift=st.floats(-3.0, 3.0))
    @settings(max_examples=6, deadline=None)
    def test_translation_invariance(self, style, seed, shift):
        x = random_points(seed, style)
        a = build(style, x)
        b = build(style, x + shift)
        ea = a.pair.eng_vdwl + a.pair.eng_coul
        eb = b.pair.eng_vdwl + b.pair.eng_coul
        assert eb == pytest.approx(ea, rel=1e-9, abs=1e-9)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=4, deadline=None)
    def test_permutation_invariance(self, style, seed):
        x = random_points(seed, style)
        a = build(style, x)
        b = build(style, x[::-1])
        ea = a.pair.eng_vdwl + a.pair.eng_coul
        eb = b.pair.eng_vdwl + b.pair.eng_coul
        assert eb == pytest.approx(ea, rel=1e-9, abs=1e-9)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=3, deadline=None)
    def test_forces_are_gradients(self, style, seed):
        x = random_points(seed, style)
        lmp = build(style, x)
        assert fd_force_check(lmp, [0, len(x) // 2], eps=1e-6) < 5e-5
