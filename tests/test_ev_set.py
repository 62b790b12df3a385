"""``ev_set``: energy/virial are tallied only on steps that consume them.

The contract (DESIGN section 3): ``Verlet.ev_set`` is true on thermo-output
steps and on the last step of a ``run``; forces never depend on it, and the
numbers on the steps that do tally are bit-identical to an every-step run.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_melt
from test_snap_pair import make_ta
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


class TestTallyCadence:
    """``run 100`` with ``thermo 50``: 101 force calls, 3 of them tally."""

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"device": "H100", "suffix": "kk"}, {"nranks": 4}],
        ids=["host", "kk", "np4"],
    )
    def test_one_tally_per_printed_row(self, tally_log, kwargs):
        target = make_melt(thermo=50, **kwargs)
        target.command("run 100")
        nranks = kwargs.get("nranks", 1)
        rows = target.ranks[0].thermo.history if nranks > 1 else target.thermo.history
        assert [r.step for r in rows] == [0, 50, 100]
        assert sorted(tally_log) == sorted(
            (rank, step) for rank in range(nranks) for step in (0, 50, 100)
        )


class TestSNAP:
    """``pair snap`` honours eflag: the bispectrum (its energy pass) runs
    on tallied steps only, and an untallied step cannot be read."""

    def _ta(self):
        lmp = make_ta(twojmax=2)
        lmp.command("thermo 5")
        return lmp

    def test_bispectrum_runs_on_tallied_steps_only(self, monkeypatch):
        import repro.snap.pair_snap as ps

        steps = []
        lmp = self._ta()
        original = ps.compute_bispectrum

        def spy(U, twojmax):
            steps.append(lmp.update.ntimestep)
            return original(U, twojmax)

        monkeypatch.setattr(ps, "compute_bispectrum", spy)
        lmp.command("run 10")
        assert steps == [0, 5, 10]
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
    def test_energy_equals_every_step_tally_bitwise(self, monkeypatch):
        sparse = make_melt(thermo=50)
        sparse.command("run 7")
        monkeypatch.setattr(Verlet, "ev_set", lambda self, step, last: True)
        dense = make_melt(thermo=50)
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
