"""QEq solver acceleration: fusion, preconditioning, history extrapolation.

Covers the rebuilt charge solve end to end: the enforced appendix-B
overflow guards in the matrix build, bitwise dual-RHS-vs-two-single-RHS
equivalence across rank counts and row-product bodies, preconditioned
convergence at identical tolerance, the permutation/migration safety of the
charge-history ring (custom per-atom fields), the packed two-vector forward
exchange, golden iteration counts on HNS, and 1-vs-N-rank decomposition
invariance of the fully accelerated configuration.

To rebless the golden iteration counts after an intentional solver change:

    PYTHONPATH=src python -m pytest tests/test_reaxff_qeq.py --update-golden
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import SCATTERS, gather_by_tag
from repro.core import Ensemble, Lammps
from repro.core.comm_md import CommBrick
from repro.core.errors import InputError, LammpsError, OverflowGuardError
from repro.reaxff.qeq import (
    HISTORY_DEPTH,
    build_qeq_matrix,
    fused_cg_gen,
    make_preconditioner,
)
from repro.workloads.hns import HNS_POSTAMBLE, hns_configuration, setup_hns

GOLDEN_DIR = Path(__file__).parent / "golden"


def make_hns(nranks=1, precond="none", extrap="none", cells=(1, 2, 2), tol=None):
    target = Ensemble(nranks) if nranks > 1 else Lammps()
    setup_hns(target, *cells, pair_style="reaxff cutoff 5.0")
    target.commands_string("neighbor 0.5 bin")
    for lmp in target.ranks if hasattr(target, "ranks") else [target]:
        lmp.pair.set_qeq_options(precond=precond, extrap=extrap, tol=tol)
    return target


# ------------------------------------------------------- overflow guards
class _StubCache:
    def memo(self, key, build):
        return build()


class _StubNList:
    def __init__(self, numneigh, neighbors):
        self.nlocal = len(numneigh)
        self.numneigh = np.asarray(numneigh)
        self.neighbors = np.asarray(neighbors)

    def pair_cache(self):
        return _StubCache()


class TestOverflowGuards:
    def test_oversized_row_raises_before_allocating(self):
        """A single row longer than int32 must raise, not allocate slots."""
        nlist = _StubNList([np.int64(2**31 + 5)], np.zeros(0, dtype=np.int64))
        with pytest.raises(OverflowGuardError, match="int32"):
            build_qeq_matrix(np.zeros((1, 3)), np.zeros(1, int), nlist, None, 1.0)

    def test_oversized_column_index_raises(self):
        nlist = _StubNList([1], np.array([2**31 + 10], dtype=np.int64))
        with pytest.raises(OverflowGuardError, match="column index"):
            build_qeq_matrix(np.zeros((1, 3)), np.zeros(1, int), nlist, None, 1.0)

    def test_offsets_are_int64_cols_nnz_int32(self):
        """The appendix-B width split on a real build."""
        lmp = make_hns()
        lmp.run(0)
        atom, pair = lmp.atom, lmp.pair
        species = pair.type_map[atom.type[: atom.nall]]
        m = build_qeq_matrix(
            atom.x[: atom.nall], species, lmp.neigh_list, pair.params,
            lmp.update.units.qqr2e,
        )
        assert m.offsets.dtype == np.int64
        assert m.cols.dtype == np.int32
        assert m.nnz.dtype == np.int32


# --------------------------------------------------------- spmv fusion
def rank_matrices(nranks=1):
    """``(matrix, lmp)`` per rank of an HNS system after setup."""
    target = make_hns(nranks)
    target.run(0)
    out = []
    for lmp in target.ranks if nranks > 1 else [target]:
        atom, pair = lmp.atom, lmp.pair
        species = pair.type_map[atom.type[: atom.nall]]
        m = build_qeq_matrix(
            atom.x[: atom.nall], species, lmp.neigh_list, pair.params,
            lmp.update.units.qqr2e,
        )
        out.append((m, lmp))
    return out


def _add_at_row_product(self, vec_all):
    """Reference row product: an unbuffered ``np.add.at`` scatter of the
    nonzeros, the body the CSR ``reduceat`` replaced."""
    out = self.diag * vec_all[: self.nlocal]
    np.add.at(out, self._rows_flat, self._vals_flat * vec_all[self._cols_flat])
    return out


class TestFusedSpmv:
    @pytest.mark.parametrize("scatter", SCATTERS)
    def test_fused_bitwise_equals_double_traversal(self, scatter):
        """The dual-RHS product must reproduce two single-RHS products
        exactly, with and without ghost columns, whatever the row-product
        body (the CSR reduction or the ``np.add.at`` reference) — so its
        body may change without shifting goldens."""
        rng = np.random.default_rng(7)
        for nranks in (1, 2):
            for m, lmp in rank_matrices(nranks):
                nall = lmp.atom.nall
                assert nall > m.nlocal  # ghost columns present
                u, v = rng.normal(size=(2, nall))
                csr = m.spmv(u)
                with pytest.MonkeyPatch.context() as mp:
                    if scatter == "atomic":
                        mp.setattr(type(m), "_row_product", _add_at_row_product)
                    both = m.spmv2(np.column_stack((u, v)))
                    assert np.array_equal(both[:, 0], m.spmv(u))
                    assert np.array_equal(both[:, 1], m.spmv(v))
                    # the CSR reduction agrees with the scatter it replaced
                    np.testing.assert_allclose(both[:, 0], csr, rtol=1e-12, atol=1e-12)

    def test_spmv2_matches_two_spmv_calls_bitwise(self):
        ((m, lmp),) = rank_matrices()
        vec2 = np.random.default_rng(7).normal(size=(lmp.atom.nall, 2))
        fused = m.spmv2(vec2)
        assert np.array_equal(fused[:, 0], m.spmv(vec2[:, 0]))
        assert np.array_equal(fused[:, 1], m.spmv(vec2[:, 1]))

    def test_traversal_bytes_mode_accounting(self):
        """The charged stream is ONE pass over values + columns per dual-RHS
        product, whatever the NumPy body does."""
        ((m, lmp),) = rank_matrices()
        stats = lmp.pair.last_stats
        assert m.traversal_bytes() == m._vals_flat.nbytes + m._cols_flat.nbytes
        assert stats["qeq_spmv_bytes_per_iteration"] == m.traversal_bytes()
        assert stats["qeq_spmv_bytes"] == m.traversal_bytes() * stats["qeq_iterations"]


# ------------------------------------------------------ preconditioning
class TestPreconditioning:
    def test_preconditioned_charges_match_at_identical_tolerance(self):
        cold = make_hns()
        cold.run(3)
        q_cold = gather_by_tag(cold, "q")
        lmp = make_hns(precond="jacobi")
        lmp.run(3)
        np.testing.assert_allclose(gather_by_tag(lmp, "q"), q_cold, atol=1e-6)
        assert sum(lmp.pair.qeq_iters_history) <= sum(cold.pair.qeq_iters_history)

    def test_unknown_precond_rejected_at_setter(self):
        lmp = make_hns()
        with pytest.raises(InputError, match="jacobi"):
            lmp.pair.set_qeq_options(precond="jacobbi")

    def test_unknown_precond_rejected_by_factory(self):
        with pytest.raises(LammpsError, match="did you mean"):
            make_preconditioner("jacobbi", None)

    def test_unknown_extrap_rejected_at_setter(self):
        lmp = make_hns()
        with pytest.raises(InputError, match="qeq_extrap"):
            lmp.pair.set_qeq_options(extrap="5")

    def test_pair_style_args_parse_qeq_knobs(self):
        lmp = Lammps()
        setup_hns(
            lmp, 1, 2, 2,
            pair_style="reaxff cutoff 5.0 qeq_precond jacobi qeq_extrap 2 "
            "qeq_tol 1e-10",
        )
        assert lmp.pair.qeq_precond == "jacobi"
        assert lmp.pair.qeq_extrap == "2"
        assert lmp.pair.qeq_tol == 1e-10

    @pytest.mark.parametrize("key", ["qeq_precond", "qeq_extrap", "qeq_tol", "cutoff"])
    def test_trailing_keyword_without_value_raises(self, key):
        """A trailing keyword names itself instead of running a default."""
        with pytest.raises(InputError, match=f"{key}.*needs a value"):
            setup_hns(Lammps(), 1, 2, 2, pair_style=f"reaxff cutoff 5.0 {key}")

    @pytest.mark.parametrize("key", ["qeq_tol", "cutoff"])
    @pytest.mark.parametrize("value", ["0", "-1e-8", "nan", "inf", "abc"])
    def test_tolerance_and_cutoff_must_be_finite_and_positive(self, key, value):
        """A tolerance or cutoff that cannot work fails at ``pair_style``,
        naming the keyword: ``0`` never converges, ``-1e-8`` would run as
        ``1e-8`` (only ``tol**2`` is used), ``nan`` ends in a degenerate
        neutrality projection or a bin-grid ``ValueError``."""
        with pytest.raises(InputError, match=f"{key} must be"):
            setup_hns(Lammps(), 1, 2, 2, pair_style=f"reaxff cutoff 5.0 {key} {value}")


# ------------------------------------------------ history extrapolation
class TestChargeHistory:
    def test_extrapolation_reduces_warm_iterations(self):
        """The acceptance criterion: >= 1.5x fewer iterations once warm."""
        cold = make_hns()
        cold.run(8)
        warm = make_hns(precond="jacobi", extrap="2")
        warm.run(8)
        # skip the first order+1 solves while the ring fills
        mean_cold = np.mean(cold.pair.qeq_iters_history[3:])
        mean_warm = np.mean(warm.pair.qeq_iters_history[3:])
        assert mean_cold / mean_warm >= 1.5

    def test_seeded_charges_match_cold_charges(self):
        cold = make_hns()
        cold.run(8)
        warm = make_hns(precond="jacobi", extrap="2")
        warm.run(8)
        np.testing.assert_allclose(
            gather_by_tag(warm, "q"), gather_by_tag(cold, "q"), atol=1e-6
        )

    def test_history_rides_atom_sort(self):
        """The ring must permute with the atoms: seeds are a per-atom
        property, invariant (by tag) under a spatial reorder."""
        lmp = make_hns(extrap="2")
        lmp.run(4)
        atom = lmp.atom
        hist = lmp.pair._qeq_history
        n = atom.nlocal
        tags0 = atom.tag[:n].copy()
        s0, t0 = hist.seed(2)
        atom.clear_ghosts()
        perm = np.random.default_rng(3).permutation(n)
        atom.reorder_local(perm)
        s1, t1 = hist.seed(2)
        order0, order1 = np.argsort(tags0), np.argsort(atom.tag[:n])
        assert np.array_equal(s0[order0], s1[order1])
        assert np.array_equal(t0[order0], t1[order1])

    def test_ring_depth_and_counts(self):
        lmp = make_hns(extrap="2")
        lmp.run(1)  # setup solve + 1 step = 2 pushes
        cnt = lmp.atom.custom["qeq_hist_n"]
        assert cnt[: lmp.atom.nlocal, 0].max() == 2
        lmp.run(10)
        assert cnt[: lmp.atom.nlocal, 0].max() == HISTORY_DEPTH  # saturates

    def test_custom_fields_migrate_with_atoms(self):
        """A registered custom field follows its atom through exchange."""
        ens = make_hns(nranks=2, cells=(2, 2, 2))
        for lmp in ens.ranks:
            marker = lmp.atom.add_custom("marker", 1)
            marker[: lmp.atom.nlocal, 0] = lmp.atom.tag[: lmp.atom.nlocal]
        ens.command("run 12")  # crosses the every-10 rebuild -> exchange
        for lmp in ens.ranks:
            atom = lmp.atom
            marker = atom.custom["marker"]
            assert np.array_equal(
                marker[: atom.nlocal, 0], atom.tag[: atom.nlocal].astype(float)
            )

    def test_seeding_engages_after_first_solve(self):
        lmp = make_hns(extrap="2")
        lmp.run(0)
        assert lmp.pair.last_stats["qeq_seeded"] is False  # nothing to seed
        lmp.run(1)
        assert lmp.pair.last_stats["qeq_seeded"] is True


# ------------------------------------------------------- comm accounting
def _spy_halos(monkeypatch) -> Counter:
    """Count ``forward_comm_fields``/``forward_comm_field`` calls, all ranks."""
    calls = Counter()
    for name in ("forward_comm_fields", "forward_comm_field"):

        def spy(self, *args, _orig=getattr(CommBrick, name), _name=name):
            calls[_name] += 1
            return _orig(self, *args)

        monkeypatch.setattr(CommBrick, name, spy)
    return calls


class TestPackedForwardComm:
    def test_one_rank_solve_exchanges_nothing(self, monkeypatch):
        """On one rank every ghost is a replayed copy of its owner, so the
        matrix reads ghost columns through their owners and the CG stages
        and exchanges nothing; only the converged ``q`` is forwarded."""
        calls = _spy_halos(monkeypatch)
        lmp = make_hns(extrap="2")
        lmp.command("run 2")
        assert len(lmp.pair.qeq_iters_history) == 3
        assert calls["forward_comm_fields"] == 0
        assert calls["forward_comm_field"] == 3

    def test_both_vectors_ride_one_exchange_per_iteration(self, monkeypatch):
        """QEq comm rounds per CG iteration: exactly one packed exchange
        (``forward_comm_fields``), not two single-field exchanges."""
        calls = _spy_halos(monkeypatch)
        ens = make_hns(nranks=2, cells=(2, 2, 2))
        ens.command("run 2")
        nranks = 2
        iters = sum(ens.ranks[0].pair.qeq_iters_history)
        nsolves = len(ens.ranks[0].pair.qeq_iters_history)
        assert calls["forward_comm_fields"] == nranks * iters
        # the only per-solve single-field broadcast left is the converged q
        assert calls["forward_comm_field"] == nranks * nsolves

    def test_seeded_solve_pays_one_extra_exchange(self, monkeypatch):
        calls = _spy_halos(monkeypatch)
        ens = make_hns(nranks=2, cells=(2, 2, 2), extrap="2")
        ens.command("run 2")
        pair = ens.ranks[0].pair
        iters = sum(pair.qeq_iters_history)
        seeded = pair._qeq_solves - 1  # all but the cold first solve
        assert calls["forward_comm_fields"] == 2 * (iters + seeded)

    def test_a_rank_without_ghosts_still_exchanges(self, monkeypatch):
        """On N ranks a rank whose ghost shell is empty (``nall == nlocal``)
        is not folded: its peers post to it and read from it on every swap,
        so it exchanges as they do.  Two fixed-boundary blocks of molecules,
        one near the x split and one far from it: rank 0 receives no
        ghosts, rank 1 receives rank 0's."""
        calls = _spy_halos(monkeypatch)
        x, types, hi = hns_configuration(1, 2, 2)
        ens = Ensemble(2)
        ens.commands_string(
            f"units real\natom_style charge\nregion box block 0 40 0 {hi[1]} 0 {hi[2]}\n"
            "create_box 4 box\nboundary f f f"
        )
        for lmp in ens.ranks:
            lmp.create_atoms_from_arrays(
                np.concatenate((x + [12.7, 0, 0], x + [33.0, 0, 0])), np.tile(types, 2)
            )
        ens.commands_string(HNS_POSTAMBLE.format(pair_style="reaxff cutoff 5.0"))
        ens.command("run 2")
        (a0, a1) = (lmp.atom for lmp in ens.ranks)
        assert a0.nall == a0.nlocal > 0 and a1.nall > a1.nlocal > 0
        pair = ens.ranks[0].pair
        iters = sum(pair.qeq_iters_history)
        seeded = pair._qeq_solves - 1
        assert calls["forward_comm_fields"] == 2 * (iters + seeded)

    @pytest.mark.parametrize("precond,seeded", [("none", False), ("jacobi", True)])
    def test_folded_solve_equals_staged_exchange_bitwise(self, monkeypatch, precond, seeded):
        """The same matrix and seed solved both ways: ghost columns read
        through their owners, and ghost copies staged through ``rho``/``fp``
        and replayed.  ``s``, ``t`` and the iteration count are identical."""
        calls = _spy_halos(monkeypatch)
        results = []
        for fold in (True, False):
            lmp = make_hns()
            lmp.run(0)
            atom, pair = lmp.atom, lmp.pair
            species = pair.type_map[atom.type[: atom.nall]]
            m = build_qeq_matrix(
                atom.x[: atom.nall], species, lmp.neigh_list, pair.params,
                lmp.update.units.qqr2e,
                lmp.comm_brick.replay.owners if fold else None,
            )
            assert m.folded is fold
            n = m.nlocal
            x0 = (atom.q[:n].copy(), np.full(n, 0.01)) if seeded else None
            sol: dict = {}
            for _ in fused_cg_gen(
                lmp, m, -pair.params.chi[species[:n]], -np.ones(n), out=sol,
                precond=make_preconditioner(precond, m), x0=x0,
            ):
                pass
            results.append(sol)
            # the staged solve exchanges once per traversal, the folded never
            assert calls["forward_comm_fields"] == (0 if fold else sol["spmv_traversals"])
        folded, staged = results
        assert folded["iterations"] == staged["iterations"] > 0
        assert np.array_equal(folded["s"], staged["s"])
        assert np.array_equal(folded["t"], staged["t"])

    def test_qeq_metric_families_recorded(self):
        """The solver's own records hold its accounting: one history entry
        per solve, and a seeded solve's stream bytes include the extra
        seed-residual traversal."""
        lmp = make_hns(precond="jacobi", extrap="2")
        lmp.run(2)
        pair, stats = lmp.pair, lmp.pair.last_stats
        assert pair._qeq_solves == len(pair.qeq_iters_history) == 3
        assert stats["qeq_seeded"] is True
        assert stats["qeq_iterations"] == pair.qeq_iters_history[-1] > 0
        assert stats["qeq_spmv_bytes"] == (
            (stats["qeq_iterations"] + 1) * stats["qeq_spmv_bytes_per_iteration"]
        )


# ---------------------------------------------------------------- golden
class TestGoldenIterations:
    def test_hns_iteration_counts_match_golden(self, update_golden):
        """The iterations-to-tolerance trajectory of the fully accelerated
        configuration is pinned: any solver change that shifts convergence
        shows up here immediately."""
        lmp = make_hns(precond="jacobi", extrap="2")
        lmp.run(10)
        history = list(lmp.pair.qeq_iters_history)
        path = GOLDEN_DIR / "hns-qeq-iterations.json"
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            payload = {
                "workload": "hns",
                "qeq_precond": "jacobi",
                "qeq_extrap": "2",
                "iterations": history,
            }
            path.write_text(json.dumps(payload, indent=2) + "\n")
            pytest.skip(f"rewrote {path.name}")
        golden = json.loads(path.read_text())
        assert history == golden["iterations"]


# ---------------------------------------------------------------- frozen
def state_digest(target) -> str:
    """SHA-256 of tag-sorted ``x/v/f/q`` plus every thermo row."""
    h = hashlib.sha256()
    for field in ("x", "v", "f", "q"):
        h.update(np.ascontiguousarray(gather_by_tag(target, field)).tobytes())
    root = target.ranks[0] if hasattr(target, "ranks") else target
    for rec in root.thermo.history:
        h.update(np.array([rec.step, *rec.values.values()], dtype=float).tobytes())
    return h.hexdigest()


class TestDefaultPathFrozen:
    """The default solver (``jacobi``, ``qeq_extrap 2``) bit for bit.

    ``tests/golden/hns.json`` pins only the ``none/none`` cold start, at
    rel 1e-9.  These digests of ``run 20`` (thermo every 10 steps) were
    recorded before the one-rank solve read ghost columns through their
    owners: the 1-rank digest holds that fold bitwise, the 2-rank digest
    holds the staged-exchange path unmoved.  The solver's bits follow the
    BLAS dot kernel of its per-atom ``@`` products (recorded with NumPy
    2.4's OpenBLAS on x86-64): on a machine whose kernel sums differently,
    re-record them from a run of the commit that introduced them.  The
    kinetic-energy and virial sums (the thermo rows, ``velocity create``'s
    scale) are ``fixed_dot``'s, which no BLAS reaches."""

    FROZEN = {
        1: "e4e501e6895765bc65be89ebbf80906ca872bca08570342609512ee472864eeb",
        2: "cb2b050475c262b38a9c24f12baa74326353c1cd9d453311d123a292e192205c",
    }

    @pytest.mark.parametrize("nranks", sorted(FROZEN))
    def test_default_solver_state_digest(self, nranks):
        target = Ensemble(nranks, device=None) if nranks > 1 else Lammps(device=None)
        setup_hns(target, 1, 2, 2, pair_style="reaxff cutoff 5.0")
        target.command("run 20")
        assert state_digest(target) == self.FROZEN[nranks]


# ------------------------------------------------------------ distributed
class TestDistributed:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_accelerated_solver_decomposition_invariant(self, nranks):
        """jacobi + extrap-2 across a migration-crossing run: 1 vs N ranks
        agree on positions and charges (iteration counts may differ — the
        seed residual history is decomposition-dependent only through
        round-off)."""
        single = make_hns(precond="jacobi", extrap="2", cells=(2, 2, 2))
        single.command("run 12")
        multi = make_hns(
            nranks=nranks, precond="jacobi", extrap="2", cells=(2, 2, 2)
        )
        multi.command("run 12")
        np.testing.assert_allclose(
            gather_by_tag(multi, "x"), gather_by_tag(single, "x"), atol=1e-7
        )
        np.testing.assert_allclose(
            gather_by_tag(multi, "q"), gather_by_tag(single, "q"), atol=1e-7
        )

    def test_ranks_stay_in_lockstep(self):
        """Every rank must make the identical seed/iterate decisions — the
        collective gate on the solve counter."""
        multi = make_hns(nranks=2, precond="jacobi", extrap="2", cells=(2, 2, 2))
        multi.command("run 12")
        histories = [r.pair.qeq_iters_history for r in multi.ranks]
        assert histories[0] == histories[1]
        assert all(r.pair._qeq_solves == 13 for r in multi.ranks)
