"""The pair footprint contract: constants once per type pair, scratch by capacity.

A two-body style's per-type-pair tables (the squared cutoff, LJ's
``lj1..lj4``, EAM's pair strength and cutoff) bind as one 0-d value when
the table holds one value over the atom types present, and as a vector per
stored pair only otherwise (``Pair.bind_pairs``,
``Pair.pair_constants``).  The 0-d form must be the per-pair form
bit for bit, and a table with distinct values must still bind per pair and
keep the per-pair formula's bits.  The scratch ``Arena`` regrows with
headroom, so a slowly rising cut count re-allocates O(log n) times.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.graph.pairwise import Arena, pairwise

from conftest import make_melt
from test_pairwise_oracle import build
from test_potentials_eam import make_eam

LJ_TABLES = ("cutsq0", "lj1p", "lj2p", "lj3p", "lj4p")


def per_pair_floats(env: dict) -> list[str]:
    """Names of ``env``'s float arrays with one entry per stored pair."""
    n = len(env["i0"])
    return sorted(
        k for k, v in env.items()
        if isinstance(v, np.ndarray) and v.dtype.kind == "f" and v.shape[-1] == n
    )


def ready(lmp):
    lmp.thermo.quiet = True
    lmp.run(0)
    return lmp


# ------------------------------------------------------------ one type: 0-d
@pytest.mark.parametrize("suffix", [None, "kk"])
def test_one_type_lj_binds_no_per_pair_constant(suffix):
    lmp = ready(make_melt(device="H100" if suffix else None, suffix=suffix))
    env = lmp.pair.bind_pairs(lmp.neigh_list)
    assert per_pair_floats(env) == []
    assert all(np.ndim(env[k]) == 0 for k in LJ_TABLES)
    assert env["cutsq0"] == lmp.pair.cut[1, 1] ** 2


@pytest.mark.parametrize("suffix", [None, "kk"])
def test_one_type_eam_binds_no_per_pair_constant(suffix):
    lmp = ready(make_eam(device="H100" if suffix else None, suffix=suffix))
    env = lmp.pair.bind_pairs(lmp.neigh_list)
    assert per_pair_floats(env) == []
    assert all(np.ndim(env[k]) == 0 for k in ("cutsq0", "cp0", "rc0"))


@pytest.mark.parametrize("suffix", [None, "kk"])
def test_one_value_tables_are_their_per_pair_vectors_bit_for_bit(suffix):
    """The pass over 0-d constants against the same pass over the vectors
    the parent bound (each 0-d value repeated per stored pair)."""
    lmp = ready(make_melt(device="H100" if suffix else None, suffix=suffix))
    pair, atom = lmp.pair, lmp.atom
    scalar = pair.bind_pairs(lmp.neigh_list)
    n = len(scalar["i0"])
    vector = dict(scalar, **{k: np.full(n, scalar[k]) for k in LJ_TABLES})
    out = []
    for env in (scalar, vector):
        env["force_fn"], env["energy_fn"] = pair.eval_setup()
        env.update(x=atom.x[: atom.nall], f=np.zeros_like(atom.f))
        pair.reset_tallies()
        pairwise(env, True)
        out.append((env["f"].tobytes(), pair.eng_vdwl, pair.virial.tobytes()))
    assert out[0] == out[1]


# --------------------------------------------------- distinct values: per pair
def test_two_type_lj_binds_per_pair_vectors_with_the_formula_bits():
    """Distinct ``lj1..lj4`` per type pair bind per stored pair (the global
    cutoff stays 0-d), and the pass keeps the plain per-pair formula's bits."""
    lmp = build("lj/cut")
    pair, atom = lmp.pair, lmp.atom
    bound = pair.bind_pairs(lmp.neigh_list)
    assert per_pair_floats(bound) == ["lj1p", "lj2p", "lj3p", "lj4p"]
    assert np.ndim(bound["cutsq0"]) == 0
    pair.compute(True, True)
    env = pair.pair_kernel()
    ti, tj = atom.type[env["i_n"]], atom.type[env["j_n"]]
    r2 = 1.0 / env["rsq_n"]
    r6 = r2 * r2 * r2
    fpair = r6 * (pair.lj1[ti, tj] * r6 - pair.lj2[ti, tj]) * r2
    evdwl = r6 * (pair.lj3[ti, tj] * r6 - pair.lj4[ti, tj])
    assert fpair.tobytes() == env["fpair_n"].tobytes()
    assert evdwl.tobytes() == env["evdwl_n"].tobytes()


# ----------------------------------------------------------------- the arena
def test_arena_regrows_o_log_n_times_under_a_creeping_size():
    arena = Arena()
    lo, hi = 1_000, 20_000
    prev, regrowths = arena.take("x", lo), 0
    for n in range(lo + 1, hi + 1):
        buf = arena.take("x", n)
        regrowths += not np.may_share_memory(buf, prev)
        prev = buf
    # 1/8 headroom per regrowth: ceil(log(hi / lo) / log(9 / 8)) = 26
    assert regrowths <= math.ceil(math.log(hi / lo) / math.log(9 / 8))

