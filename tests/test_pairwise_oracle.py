"""The pairwise pass against an oracle that is not one of its executors.

Every cutoff-masked two-body style runs through one Stage list
(:mod:`repro.graph.pairwise`) driven by three executors.  Agreement between
executors proves nothing if they share a mistake, so this module keeps the
simple formula path the executors replaced: a plain-NumPy oracle — brute
force pairs, textbook LJ / EAM-FS, no caches, no
``out=``, no stages.

One parametrised differential test: every two-body style x {eager host,
eager kk (half/full x newton), replica R=3}.  Passes that accumulate in the
same order (a second step over the same list, which reuses the memoized env
and Stage objects, and stacked replicas vs solo) agree **bitwise**; every
cell agrees with eager host and with the oracle to 1e-12.  Host
``eam/fs``, on a half list with newton on, is held against the one-sided
EAM oracle at 1, 2 and 4 ranks.  The tests at
the end hold the once-per-list index bound and the arena contract.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import Lammps
from repro.core.neighbor import brute_force_pairs
from repro.graph.pairwise import ARENA, Arena, index_bounds, run_stages
from repro.parallel.driver import drain
from repro.potentials.eam import eam_geometry
from repro.replica import ReplicaBatch

from conftest import gather_by_tag, make_melt
from test_potentials_eam import make_eam


# ---------------------------------------------------------------- the systems
#: style key -> (units, lattice, pair commands); each has a /kk variant
STYLES = {
    "lj/cut": (
        "lj", "fcc 0.8442",
        "pair_style lj/cut 2.5\npair_coeff 1 1 1.0 1.0\npair_coeff 2 2 0.8 1.1\n"
        "pair_coeff 1 2 0.8944271909999159 1.05",
    ),
    "eam/fs": (
        "metal", "fcc 3.52",
        "pair_style eam/fs 4.5\npair_coeff 1 1 2.0 0.3\npair_coeff 2 2 1.5 0.2\n"
        "pair_coeff 1 2 2.0 0.25",
    ),
}
#: list flavours of the section 4.1 study; full+newton is invalid
LIST_CELLS = (("half", True), ("half", False), ("full", False))


def build(style: str, *, kk: bool = False, cells: int = 3) -> Lammps:
    """A jiggled two-type fcc crystal under ``style``, set up by ``run 0``.

    Every executor's instance is built from the same bytes, so after the
    identical ``run 0`` prologue (sort, borders, list build) they hold the
    same configuration bit for bit.
    """
    units, lattice, pair_cmds = STYLES[style]
    lmp = Lammps(device="H100" if kk else None, suffix="kk" if kk else None)
    lmp.commands_string(
        f"units {units}\nlattice {lattice}\n"
        f"region box block 0 {cells} 0 {cells} 0 {cells}\ncreate_box 2 box\n"
        "create_atoms 1 box\nmass * 1.0\n"
    )
    atom = lmp.atom
    n = atom.nlocal
    spacing = lmp.domain.lengths[0] / cells
    rng = np.random.default_rng(7)
    atom.x[:n] += rng.uniform(-0.04, 0.04, (n, 3)) * spacing
    atom.type[:n:2] = 2
    lmp.commands_string(
        f"{pair_cmds}\nneighbor 0.3 bin\nfix 1 all nve\nthermo 1"
    )
    lmp.thermo.quiet = True
    lmp.run(0)
    return lmp


# ----------------------------------------------------------------- the oracle
def textbook_pair(style: str, lmp, r, ti, tj):
    """``(E, -dE/dr)`` per pair from the defining formulas, read off the
    style's *input* coefficients (never its kernel tables)."""
    p = lmp.pair
    if style == "lj/cut":
        eps, sig = p.epsilon[ti, tj], p.sigma[ti, tj]
        sr6 = (sig / r) ** 6
        inside = r < p.cut[ti, tj]
        e = np.where(inside, 4.0 * eps * (sr6 * sr6 - sr6), 0.0)
        return e, np.where(inside, 24.0 * eps * (2.0 * sr6 * sr6 - sr6) / r, 0.0)
    raise AssertionError(style)


VIRIAL_AXES = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def full_pairs(lmp):
    """``(i, j, dx, r)`` of the brute-force full pair set: every owned ``i``
    against every owned or ghost ``j`` within the style's cutoff."""
    atom = lmp.atom
    x = atom.x[: atom.nall].copy()
    found = brute_force_pairs(x, atom.nlocal, lmp.pair.max_cutoff())
    pairs = np.array(sorted(found), dtype=int).reshape(-1, 2)
    i, j = pairs[:, 0], pairs[:, 1]
    dx = x[i] - x[j]
    return i, j, dx, np.sqrt((dx * dx).sum(axis=1))


def eam_oracle(ranks):
    """``(rho, forces, E_vdwl, virial[6])`` of textbook EAM-FS over one or
    more ranks' owned + ghost coordinates: ``rho`` and ``forces`` indexed by
    ``tag - 1``, energy and virial summed over ranks.  Every bond is seen
    from both ends, so the density is one-sided and needs no reverse; a
    ghost carries its owner's embedding derivative, looked up by tag."""
    p = ranks[0].pair
    rc = p.cut_global
    natoms = ranks[0].natoms_total
    rho, A = np.zeros(natoms), np.zeros(natoms)
    bonds = []
    for lmp in ranks:
        atom = lmp.atom
        tag, types = atom.tag[: atom.nall] - 1, atom.type[: atom.nall]
        i, j, dx, r = full_pairs(lmp)
        np.add.at(rho, tag[i], (rc - r) ** 2)
        A[tag[: atom.nlocal]] = p.embed_A[types[: atom.nlocal]]
        bonds.append((tag[i], tag[j], dx, r, p.pair_c[types[i], types[j]]))
    dF = -0.5 * A / np.sqrt(rho)
    f, virial = np.zeros((natoms, 3)), np.zeros(6)
    e_vdwl = float((-A * np.sqrt(rho)).sum())
    for ti, tj, dx, r, c in bonds:
        dEdr = -2.0 * c * (rc - r) + (dF[ti] + dF[tj]) * (-2.0 * (rc - r))
        fvec = (-dEdr / r)[:, None] * dx
        np.add.at(f, ti, fvec)
        e_vdwl += 0.5 * float((c * (rc - r) ** 2).sum())
        virial += [0.5 * float((dx[:, a] * fvec[:, b]).sum()) for a, b in VIRIAL_AXES]
    return rho, f, e_vdwl, virial


def oracle(style: str, lmp):
    """``(forces on owned atoms, E_vdwl, E_coul, virial[6])`` from brute-force
    pairs over the owned + ghost coordinates."""
    atom = lmp.atom
    if style == "eam/fs":
        _, f, e_vdwl, virial = eam_oracle([lmp])
        return f[atom.tag[: atom.nlocal] - 1], e_vdwl, 0.0, virial
    types = atom.type[: atom.nall]
    i, j, dx, r = full_pairs(lmp)
    e, fr = textbook_pair(style, lmp, r, types[i], types[j])
    fvec = (fr / r)[:, None] * dx
    f = np.zeros((atom.nlocal, 3))
    np.add.at(f, i, fvec)
    # every pair appears from both ends in the brute-force (full) set
    virial = np.array([0.5 * float((dx[:, a] * fvec[:, b]).sum()) for a, b in VIRIAL_AXES])
    return f, 0.5 * float(e.sum()), 0.0, virial


# --------------------------------------------------------------- the executors
def evaluate(lmp):
    """Zero the forces, run the pair style, fold ghost forces home."""
    atom, pair = lmp.atom, lmp.pair
    atom.f[: atom.nall] = 0.0
    lmp.mark_host_writes("f")
    if hasattr(pair, "compute_gen"):  # EAM communicates mid-compute
        drain(pair.compute_gen(True, True))
    else:
        pair.compute(True, True)
    lmp.sync_host_fields("f")
    if pair.needs_reverse_comm:
        drain(lmp.comm_brick.reverse_comm(atom, "f"))
    return (
        atom.f[: atom.nlocal].copy(), float(pair.eng_vdwl), float(pair.eng_coul),
        np.array(pair.virial),
    )


def assert_bitwise(got, ref, label):
    for name, a, b in zip(("forces", "evdwl", "ecoul", "virial"), got, ref):
        assert np.array_equal(a, b), f"{label}: {name} differ from eager"


def assert_oracle(got, ref, label):
    for name, a, b in zip(("forces", "evdwl", "ecoul", "virial"), got, ref):
        scale = max(float(np.abs(b).max()), 1.0)
        np.testing.assert_allclose(
            a, b, rtol=1e-12, atol=1e-12 * scale, err_msg=f"{label}: {name}"
        )


@pytest.mark.parametrize("style", sorted(STYLES))
def test_every_executor_matches_eager_host_and_the_oracle(style):
    host = build(style)
    ref = evaluate(host)
    assert_oracle(ref, oracle(style, host), f"{style} eager host")

    # a second step runs the same memoized env and Stage objects
    assert_bitwise(evaluate(host), ref, f"{style} second step")

    if style != "eam/fs":
        kkr = build(style, kk=True)
        for neigh, newton in LIST_CELLS:
            kkr.pair.set_options(neigh=neigh, newton=newton)
            kkr.newton_pair = newton
            drain(kkr.rebuild_gen())
            label = f"{style}/kk {neigh} newton={newton}"
            # another list flavour / scatter path sums in another order:
            # host agreement is to round-off, a second step's is bitwise
            eager = evaluate(kkr)
            assert_oracle(eager, ref, label)
            assert_bitwise(evaluate(kkr), eager, label + " second step")
    else:  # eam/fs/kk: full list only, three charged kernels; its
        # ScatterView density sums in another order than the host's sorted
        # segments, so host agreement is to round-off
        kkr = build(style, kk=True)
        eager = evaluate(kkr)
        assert_oracle(eager, ref, f"{style}/kk")
        assert_bitwise(evaluate(kkr), eager, f"{style}/kk second step")


@pytest.mark.parametrize("style", ["lj/cut"])
def test_replica_executor_matches_eager_host(style):
    """R=3 stacked copies step exactly like the solo eager-host run."""
    solo = build(style)
    solo.run(2)
    batch = ReplicaBatch()
    members = [build(style) for _ in range(3)]
    for m in members:
        batch.add_replica(m)
    batch.step(2)
    batch.finish()
    rows = [(r.step, r.values) for r in solo.thermo.history]
    for k, m in enumerate(members):
        n = m.atom.nlocal
        for field in ("x", "v", "f"):
            assert np.array_equal(
                getattr(m.atom, field)[:n], getattr(solo.atom, field)[:n]
            ), f"{style} replica {k}: {field}"
        assert [(r.step, r.values) for r in m.thermo.history] == rows


@pytest.mark.parametrize("cells,nranks", [(2, 1), (3, 1), (3, 2), (3, 4)])
def test_eam_half_list_matches_the_oracle(cells, nranks):
    """Host ``eam/fs`` on a half list with newton on (two-sided density, rho
    reverse, f reverse) equals the one-sided oracle on a hot snapshot, in
    owned rho, forces, energy and virial, at any rank count."""
    # cells=2: the 5.5 A list cutoff exceeds L/2, so two atoms meet through
    # several periodic images
    sim = make_eam(cells=cells, nranks=nranks)
    sim.commands_string("velocity all create 3000 4928\nrun 15")
    ranks = sim.ranks if nranks > 1 else [sim]
    assert all((r.neigh_list.style, r.neigh_list.newton) == ("half", True) for r in ranks)
    rho, f, e_vdwl, virial = eam_oracle(ranks)
    np.testing.assert_allclose(gather_by_tag(sim, "rho"), rho, rtol=1e-12)
    got = (
        gather_by_tag(sim, "f"), sum(r.pair.eng_vdwl for r in ranks), 0.0,
        sum(np.array(r.pair.virial) for r in ranks),
    )
    assert_oracle(got, (f, e_vdwl, 0.0, virial), f"eam/fs half cells={cells} np={nranks}")


# --------------------------------------------------------------- index bounds
# The pair indices are range-checked once per list (``index_bounds``) and
# the per-step gathers skip NumPy's per-element check; these hold that the
# hoisted check still refuses every list that does not fit ``x``.
def _bound_case(path: str):
    """``(atom, env, f, run)`` for one executor whose env is already bound:
    ``run()`` drives that executor's prologue over ``env``; ``f`` is the
    force array its pass would write."""
    if path == "replica":
        batch = ReplicaBatch()
        for m in [build("lj/cut") for _ in range(2)]:
            batch.add_replica(m)
        batch.step(1)
        env, atom = batch._env, batch.atom

        def run():
            env["x"] = atom.x[: atom.nall]  # what each stacked force call binds
            run_stages(batch._pair_stages, env)

        return atom, env, atom.f, run
    lmp = build("eam/fs" if path == "eam geometry" else "lj/cut", kk=path == "kk")
    atom, pair = lmp.atom, lmp.pair
    if path == "eam geometry":
        base, _ = lmp.neigh_list.pair_cache().memo(("eam", id(pair)), None)
        return atom, base, atom.f, lambda: eam_geometry(pair, atom.x[: atom.nall])
    env = pair.pair_kernel()[0]
    return atom, env, env["f"], lambda: pair.compute(True, True)


BOUND_PATHS = ("eager host", "kk", "replica", "eam geometry")


@pytest.mark.parametrize("path", BOUND_PATHS)
def test_dropped_ghosts_raise_before_forces_change(path):
    atom, env, f, run = _bound_case(path)
    assert "ij_bounds" in env  # bound by the build's own force call
    f0 = f.copy()
    atom.clear_ghosts()  # x shrinks to nlocal rows; j0 still names ghosts
    with pytest.raises(IndexError, match=r"pair indices span \[0, \d+\] but x has"):
        run()
    assert np.array_equal(f, f0)


@pytest.mark.parametrize("path", BOUND_PATHS)
def test_negative_pair_index_raises_before_forces_change(path):
    atom, env, f, run = _bound_case(path)
    f0 = f.copy()
    j0 = env["j0"].copy()
    j0[len(j0) // 2] = -1  # a new object: the bound is recomputed
    env["j0"] = j0
    with pytest.raises(IndexError, match=r"pair indices span \[-1, "):
        run()
    assert np.array_equal(f, f0)


def test_rebound_env_recomputes_the_bound():
    lmp = build("lj/cut")
    env = lmp.pair.pair_kernel()[0]
    nall = lmp.atom.nall
    lo, hi = index_bounds(env)
    assert (lo, hi) == (0, int(max(env["i0"].max(), env["j0"].max())))
    # same env, new index objects: the old (in-range) bound is not reused
    j0 = env["j0"].copy()
    j0[0] = nall
    env["j0"] = j0
    with pytest.raises(IndexError, match=f"x has {nall} rows"):
        lmp.pair.compute(True, True)
    # a rebuilt list binds a fresh env whose bound is its own list's
    drain(lmp.rebuild_gen())
    lmp.pair.compute(True, True)
    env2 = lmp.pair.pair_kernel()[0]
    assert env2 is not env
    i0, j0 = env2["i0"], env2["j0"]
    assert env2["ij_bounds"][0] is i0 and env2["ij_bounds"][1] is j0
    assert index_bounds(env2) == (0, int(max(i0.max(), j0.max())))


# ------------------------------------------------------------------ workspace
#: arena budget: 2 gathered coordinate rows + rsq + mask (stored pairs) and
#: rsq/i/j/4 LJ temporaries (cut pairs, capacity = stored); fvec reuses xi
ARENA_BYTES_PER_STORED_PAIR = 160


def test_arena_bytes_per_stored_pair_within_budget():
    lmp = make_melt(cells=4)
    lmp.run(1)
    stored = lmp.neigh_list.total_pairs
    assert 0 < ARENA.nbytes <= ARENA_BYTES_PER_STORED_PAIR * stored


def test_rebuilds_do_not_double_hold_the_workspace():
    """tracemalloc peak across three more epochs <= 1.1x one epoch's."""
    tracemalloc.start()  # before anything is built: every holder is traced
    try:
        lmp = make_melt(cells=4)
        lmp.run(0)

        def epoch():
            drain(lmp.rebuild_gen())
            for _ in range(3):
                lmp.atom.f[: lmp.atom.nall] = 0.0
                lmp.pair.compute(True, True)

        epoch()  # warm: list, pair cache and arena exist once
        tracemalloc.reset_peak()
        epoch()
        _, one = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(3):
            epoch()
        _, three = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert three <= 1.1 * one


def test_arena_retake_is_shaped_as_asked():
    """One name re-taken at another width, length or the ``(3, n)`` row
    form comes back in that shape, C-contiguous (np.take's ``out=``
    gathers in place only into a C-contiguous buffer)."""
    arena = Arena()
    for shape in ((10, 3), (5,), (4, 2), (3, 7)):
        buf = arena.take("x", *shape)
        assert buf.shape == shape and buf.flags.c_contiguous
    assert arena.take("x", 6, dtype=bool).dtype == bool


def test_pass_keeps_component_rows():
    """LayoutLeft from gather to scatter: ``dx0``, ``dx_n`` and ``fvec_n``
    are contiguous ``(3, n)`` rows, and ``rsq0`` is ``(d0² + d2²) + d1²``
    exactly: the order in which NumPy 2.4's ``np.einsum("ij,ij->i")`` sums
    a C-ordered ``(n, 3)`` row, pinned so the layout moves no bit."""
    lmp = build("lj/cut")
    env, stages, _ = lmp.pair.pair_kernel()
    env.update(x=lmp.atom.x[: lmp.atom.nall], f=lmp.atom.f)
    run_stages(stages[:4], env)  # the prologue
    d = env["dx0"]
    assert d.shape == (3, len(env["i0"])) and d.flags.c_contiguous
    rsq = (d[0] * d[0] + d[2] * d[2]) + d[1] * d[1]
    assert env["rsq0"].tobytes() == rsq.tobytes()
    run_stages(stages[4:], env)
    for key in ("dx_n", "fvec_n"):
        assert env[key].shape == (3, env["idx"].size) and env[key].flags.c_contiguous
    assert np.array_equal(env["fvec_n"], env["dx_n"] * env["fpair_n"])


def test_four_rank_ensemble_shares_one_arena():
    ens = make_melt(cells=4, nranks=4)
    ens.commands_string("run 1")
    per_rank = [r.neigh_list.total_pairs for r in ens.ranks]
    # sized by the largest rank, not by the sum over ranks
    assert ARENA.nbytes <= ARENA_BYTES_PER_STORED_PAIR * max(per_rank)
    assert max(per_rank) < sum(per_rank)
