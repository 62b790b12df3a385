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

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import SCATTERS, gather_by_tag
from repro.core import Ensemble, Lammps
from repro.core.comm_md import CommBrick
from repro.core.errors import InputError, LammpsError, OverflowGuardError
from repro.reaxff.qeq import HISTORY_DEPTH, build_qeq_matrix, make_preconditioner
from repro.workloads.hns import setup_hns

GOLDEN_DIR = Path(__file__).parent / "golden"


def make_hns(nranks=1, precond="none", extrap="none", cells=(1, 2, 2), tol=None):
    target = Ensemble(nranks) if nranks > 1 else Lammps()
    setup_hns(target, *cells, pair_style="reaxff cutoff 5.0")
    target.commands_string("neighbor 0.5 bin")
    for lmp in target.ranks if hasattr(target, "ranks") else [target]:
        lmp.pair.set_qeq_options(precond=precond, extrap=extrap, tol=tol)
    return target


# ------------------------------------------------------- overflow guards
class _StubNList:
    def __init__(self, numneigh, neighbors):
        self.nlocal = len(numneigh)
        self.numneigh = np.asarray(numneigh)
        self.neighbors = np.asarray(neighbors)


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
