"""The KokkosP-style observability subsystem (:mod:`repro.tools`).

Covers the event registry contract (near-zero cost detached, per-rank
clocks), the reconciliation guarantee — the space-time-stack's
per-category totals match the thermo timing breakdown and the hardware
ledgers on the same run — and the CLI/input-script attachment surface.
"""

from __future__ import annotations

import pytest

import repro.kokkos as kk
from repro.__main__ import main
from repro.kokkos.core import device_context
from repro.tools import create_tool, create_tools, tool_names
from repro.tools import registry as kp
from repro.tools.space_time_stack import SpaceTimeStack

from conftest import make_melt

#: the timer categories, all of which the melt workload exercises
ACTIVE_CATEGORIES = ("Pair", "Neigh", "Comm", "Modify", "Output")


@pytest.fixture(autouse=True)
def clean_chain():
    """Every test starts and ends with no tools attached and fresh clocks."""
    kp.TOOLS.clear()
    kp.CHAIN.reset()
    yield
    kp.TOOLS.clear()
    kp.CHAIN.reset()


class TestRegistry:
    def test_disabled_dispatch_is_noop(self):
        assert kp.begin_kernel("parallel_for", "k", "Host") is None
        kp.end_kernel(None, None, 0.0)  # must not raise
        kp.fence("f")
        kp.push_region("r")
        kp.pop_region()
        assert kp.CHAIN.region_stacks == {}

    def test_kernel_event_advances_rank_clock(self):
        class Recorder(kp.Tool):
            def __init__(self):
                self.ends = []

            def end_parallel_for(self, ev):
                self.ends.append(ev)

        rec = Recorder()
        with kp.attached(rec):
            kid = kp.begin_kernel("parallel_for", "k", "Device")
            kp.end_kernel(kid, None, 2.5e-6)
        (ev,) = rec.ends
        assert ev.sim_seconds == 2.5e-6
        assert kp.CHAIN.sim_now(ev.rank) == pytest.approx(2.5e-6)
        assert ev.sim_end_us == pytest.approx(2.5)

    def test_per_rank_clocks_are_independent(self):
        with kp.attached(kp.Tool()):
            kp.set_rank(0)
            kp.profile_event("a", sim_seconds=1.0e-6)
            kp.set_rank(3)
            kp.profile_event("b", sim_seconds=5.0e-6)
        assert kp.CHAIN.sim_now(0) == pytest.approx(1.0e-6)
        assert kp.CHAIN.sim_now(3) == pytest.approx(5.0e-6)

    def test_region_stack_per_rank(self):
        with kp.attached(kp.Tool()):
            kp.set_rank(1)
            kp.push_region("Pair")
            kp.set_rank(2)
            kp.push_region("Comm")
            assert kp.CHAIN.stack(1) == ["Pair"]
            assert kp.CHAIN.stack(2) == ["Comm"]

    def test_finalize_all_detaches_and_reports(self):
        class Reporter(kp.Tool):
            def finalize(self):
                return "report!"

        kp.attach(Reporter())
        reports = kp.finalize_all()
        assert reports == ["report!"]
        assert not kp.TOOLS

    def test_catalog_and_factory(self):
        names = tool_names()
        assert names == ["chrome-trace", "space-time-stack"]
        with pytest.raises(ValueError):
            create_tool("no-such-tool", ".")

    def test_create_tools_parses_comma_list(self, tmp_path):
        tools = create_tools("space-time-stack,chrome_trace", str(tmp_path))
        assert len(tools) == 2
        # ``all`` expands to every catalogued tool, in catalog order
        assert [t.name for t in create_tools("all", str(tmp_path))] == tool_names()
        assert not kp.TOOLS  # building tools attaches none of them


class TestReconciliation:
    """STS category totals == thermo breakdown == ledger deltas."""

    def _run_with_sts(self, nsteps=20):
        lmp = make_melt(device="H100", suffix="kk", cells=3)
        ctx = device_context()
        sts = SpaceTimeStack()
        with kp.attached(sts):
            sim0 = ctx.timeline.total() + lmp.world.ledger.total()
            lmp.run(nsteps)
            delta = ctx.timeline.total() + lmp.world.ledger.total() - sim0
        return lmp, sts, delta

    def test_categories_match_thermo_breakdown(self):
        lmp, sts, _ = self._run_with_sts()
        breakdown = lmp.last_run_stats["breakdown"]
        totals = sts.category_totals()
        assert totals, "space-time-stack saw no top-level regions"
        for cat in ACTIVE_CATEGORIES:
            assert totals.get(cat, 0.0) == pytest.approx(
                breakdown[cat], rel=1e-9, abs=1e-15
            ), f"category {cat} diverged"

    def test_categories_account_for_all_charged_time(self):
        lmp, sts, delta = self._run_with_sts()
        assert delta > 0
        # every modeled charge in the run loop happens inside a phase, so
        # the per-category totals must add up to the ledger movement
        assert sum(sts.category_totals().values()) == pytest.approx(
            delta, rel=1e-9
        )
        assert sum(lmp.last_run_stats["breakdown"].values()) == pytest.approx(
            delta, rel=1e-9
        )

    def test_pair_dominates_melt(self):
        _, sts, _ = self._run_with_sts()
        totals = sts.category_totals()
        assert totals["Pair"] == max(totals.values())

    def test_pair_kernel_wall_is_the_pair_region_wall(self):
        """The dispatch functor *is* the computation (DESIGN.md section 3):
        the pair kernel's wall span holds the force pass, it does not wrap
        a no-op charged after the work ran outside it."""
        lmp = make_melt(device="H100", suffix="kk", cells=6)
        sts = SpaceTimeStack()
        with kp.attached(sts):
            lmp.run(10)
        pair = sts.roots[0].children[("Pair", "region")]
        kernel = pair.children[("PairComputeLJCut", "kernel")]
        assert kernel.wall_seconds >= 0.8 * pair.wall_seconds

    def test_finalize_report_mentions_kernels(self):
        _, sts, _ = self._run_with_sts(nsteps=5)
        report = sts.finalize()
        assert "PairComputeLJCut" in report
        assert "Pair" in report


class TestCLIAndInputScript:
    def test_cli_tools_flag(self, tmp_path, melt_script, capsys):
        rc = main(
            [
                "-in", melt_script, "-k", "on", "-sf", "kk", "--quiet",
                "--tools", "space-time-stack,chrome-trace",
                "--tool-out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "trace.json").exists()
        assert "space-time-stack" in capsys.readouterr().out
        assert not kp.TOOLS  # CLI finalizes and detaches

    def test_cli_rejects_unknown_tool(self, melt_script):
        with pytest.raises(SystemExit):
            main(["-in", melt_script, "--tools", "definitely-not-a-tool"])

    def test_input_script_tools_command(self, tmp_path, melt_script, capsys):
        from repro.core import Lammps

        lmp = Lammps(device="H100", suffix="kk")
        lmp.command(f"tools space-time-stack out {tmp_path}")
        assert len(kp.TOOLS) == 1
        lmp.file(melt_script)
        lmp.command("tools off")
        assert not kp.TOOLS
        assert "space-time-stack" in capsys.readouterr().out

    def test_input_script_unknown_tool_raises(self):
        from repro.core import Lammps
        from repro.core.errors import InputError

        lmp = Lammps(device=None)
        with pytest.raises(InputError):
            lmp.command("tools not-a-tool")


class TestDualViewHazard:
    def test_modify_both_spaces_names_view(self):
        from repro.kokkos.dual_view import DualView, DualViewModifyError

        kk.initialize("H100")
        dv = DualView(8, label="forces")
        dv.modify_device()
        with pytest.raises(DualViewModifyError, match="forces"):
            dv.modify_host()
        # the remedy is in the message
        with pytest.raises(DualViewModifyError, match="sync first"):
            dv.modify_host()
        dv.sync_host()
        dv.modify_host()  # after sync the write is legal

