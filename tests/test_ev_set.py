"""``ev_set``: energy/virial are tallied only on steps that consume them.

The contract (DESIGN section 3): ``Verlet.ev_set`` is true on thermo-output
steps and on the last step of a ``run``; forces never depend on it, and the
numbers on the steps that do tally are bit-identical to an every-step run.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_melt
from test_potentials_eam import make_eam
from test_snap_pair import make_ta
import repro
from repro.core.errors import LammpsError
from repro.core.integrate import Verlet
from repro.potentials.pair import Pair


@pytest.fixture
def tally_log(monkeypatch):
    """``(rank, step)`` of every ``Pair.tally_pairs`` call."""
    calls = []
    original = Pair.tally_pairs

    def spy(self, *args, **kwargs):
        calls.append((self.lmp.comm_rank, self.lmp.update.ntimestep))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Pair, "tally_pairs", spy)
    return calls


def make_target(name: str):
    """A melt variant (``host``, ``kk``, ``np4``) or an EAM style
    (``eam/fs``, ``eam/fs/kk``) printing every 50 steps."""
    if name.startswith("eam"):
        lmp = make_eam(device="H100" if name.endswith("/kk") else None, pair_style=name)
        lmp.command("thermo 50")
        return lmp
    kwargs = {"kk": {"device": "H100", "suffix": "kk"}, "np4": {"nranks": 4}}.get(name, {})
    return make_melt(thermo=50, **kwargs)


class TestTallyCadence:
    """``run 100`` with ``thermo 50``: 101 force calls, 3 of them tally."""

    @pytest.mark.parametrize("name", ["host", "kk", "np4", "eam/fs", "eam/fs/kk"])
    def test_one_tally_per_printed_row(self, tally_log, name):
        target = make_target(name)
        target.command("run 100")
        nranks = 4 if name == "np4" else 1
        rows = target.ranks[0].thermo.history if nranks > 1 else target.thermo.history
        assert [r.step for r in rows] == [0, 50, 100]
        assert sorted(tally_log) == sorted(
            (rank, step) for rank in range(nranks) for step in (0, 50, 100)
        )


class TestSNAP:
    """``pair snap`` honours eflag: its energy (taken from the adjoint)
    is tallied on tallied steps only, and an untallied step cannot be read."""

    def _ta(self):
        lmp = make_ta(twojmax=2)
        lmp.command("thermo 5")
        return lmp

    def test_tallied_energy_is_the_bispectrum_energy(self, monkeypatch):
        """Tallied steps take ``E = Re(Y . U) / 3`` from the adjoint: it
        equals the bispectrum form ``B(U) . beta`` of the same step's ``U``."""
        import repro.snap.pair_snap as ps
        from repro.snap.bispectrum import compute_bispectrum

        lmp = self._ta()
        pair = lmp.pair
        totals, energies = {}, {}
        compute_yi, compute = ps.compute_yi, pair.compute

        def yi_spy(U, beta, twojmax):
            totals[lmp.update.ntimestep] = U
            return compute_yi(U, beta, twojmax)

        def compute_spy(eflag=True, vflag=True):
            compute(eflag=eflag, vflag=vflag)
            if eflag:
                energies[lmp.update.ntimestep] = pair.eng_vdwl

        monkeypatch.setattr(ps, "compute_yi", yi_spy)
        monkeypatch.setattr(pair, "compute", compute_spy)
        lmp.command("run 10")
        assert sorted(energies) == [0, 5, 10]
        for step, energy in energies.items():
            want = float((compute_bispectrum(totals[step], 2) @ pair.beta).sum())
            assert energy == pytest.approx(want, rel=1e-12)
        sparse = [r.values for r in lmp.thermo.history]
        monkeypatch.setattr(Verlet, "ev_set", lambda self, step, last: True)
        dense = self._ta()
        dense.command("run 10")
        assert [r.values for r in dense.thermo.history] == sparse
        assert np.array_equal(dense.atom.x, lmp.atom.x)

    def test_reading_an_untallied_step_raises(self):
        lmp = self._ta()
        steps = lmp.verlet.run_gen(4)
        while lmp.update.ntimestep < 2:
            next(steps)
        with pytest.raises(LammpsError, match="not tallied on timestep 2"):
            lmp.internal_compute("pe").local_partials()
        steps.close()


class TestTalliedValues:
    @pytest.mark.parametrize("name", ["host", "eam/fs", "eam/fs/kk"])
    def test_energy_equals_every_step_tally_bitwise(self, monkeypatch, name):
        sparse = make_target(name)
        sparse.command("run 7")
        monkeypatch.setattr(Verlet, "ev_set", lambda self, step, last: True)
        dense = make_target(name)
        dense.command("run 7")
        assert sparse.pair.eng_vdwl == dense.pair.eng_vdwl
        assert np.array_equal(sparse.pair.virial, dense.pair.virial)
        assert np.array_equal(sparse.atom.x, dense.atom.x)
        assert [r.values for r in sparse.thermo.history] == [
            r.values for r in dense.thermo.history
        ]

    @pytest.mark.parametrize("cid", ["pe", "pressure"])
    def test_reading_an_untallied_step_raises(self, cid):
        lmp = make_melt(thermo=50)
        steps = lmp.verlet.run_gen(5)
        while lmp.update.ntimestep < 3:  # stop mid-run, inside step 3
            next(steps)
        assert lmp.pair.tallied_step == 0
        with pytest.raises(LammpsError, match="not tallied on timestep 3"):
            lmp.internal_compute(cid).local_partials()
        steps.close()

    def test_reading_after_the_run_is_allowed(self):
        lmp = make_melt(thermo=50)
        lmp.command("run 7")  # step 7 prints no row, but it ends the run
        assert lmp.pair.tallied_step == 7
        pe = lmp.internal_compute("pe").local_partials()[0]
        assert pe == lmp.pair.eng_vdwl + lmp.pair.eng_coul


class TestReaxFF:
    """``pair reaxff`` honours eflag/vflag: an untallied step skips the
    nonbonded sums, the bonded virials and the EEM self energy, and the
    steps that do tally print the rows an every-step tally prints."""

    def _hns(self, thermo):
        from repro.core import Lammps
        from repro.workloads.hns import setup_hns

        lmp = Lammps(device=None)
        setup_hns(lmp, 1, 2, 2, pair_style="reaxff cutoff 5.0")
        lmp.command(f"thermo {thermo}")
        return lmp

    def test_reading_an_untallied_step_raises(self):
        lmp = self._hns(5)
        steps = lmp.verlet.run_gen(4)
        # stop inside step 2's compute: at a QEq reduction, after the matrix
        while not (lmp.update.ntimestep == 2 and "qeq_nnz" in lmp.pair.last_stats):
            next(steps)
        assert lmp.pair.tallied_step == 0
        with pytest.raises(LammpsError, match="not tallied on timestep 2"):
            lmp.internal_compute("pe").local_partials()
        steps.close()

    def test_shared_rows_equal_every_step_rows_bitwise(self):
        sparse = self._hns(5)
        sparse.command("run 10")
        dense = self._hns(1)
        dense.command("run 10")
        shared = {r.step: r.values for r in dense.thermo.history if r.step % 5 == 0}
        assert {r.step: r.values for r in sparse.thermo.history} == shared
        assert np.array_equal(sparse.atom.x, dense.atom.x)
        assert np.array_equal(sparse.atom.q, dense.atom.q)


class TestTallyOrder:
    #: one half-list newton-off tally of 20 000 random pairs, printed in full
    CODE = (
        "import types\n"
        "import numpy as np\n"
        "from repro.potentials.pair import Pair\n"
        "rng = np.random.default_rng(5)\n"
        "n = 20000\n"
        "dx, f = rng.normal(size=(3, n)).T, rng.normal(size=(3, n)).T\n"
        "t = types.SimpleNamespace(eng_vdwl=0.0, virial=np.zeros(6))\n"
        "Pair.tally_pairs(t, rng.normal(size=n), dx, f, rng.random(n) < 0.5,\n"
        "                 full_list=False, newton=False)\n"
        "print(repr(t.eng_vdwl), [repr(v) for v in t.virial])\n"
    )

    def test_tally_bits_do_not_follow_the_blas_thread_count(self):
        """Every tally sum is one fixed-order loop (``fixed_dot``), so the
        host BLAS's thread count, which splits a long ``np.dot``, leaves
        the bits alone."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", self.CODE], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            out.append(done.stdout)
        assert out[0] == out[1]
