"""Measured-performance metrics core (:mod:`repro.tools.metrics`).

Covers the metric families and exporters, the ``SINKS`` falsy-guard
contract (zero recording when nothing is attached), the named wiring sites
(step timer, comm ledger, halo exchanges, DualView syncs), and the
reconciliation guarantee: the MetricsTool's per-kernel wall-clock totals
cover exactly the kernel set the space-time-stack sees, with dispatch
counts matching exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.tools import metrics
from repro.tools import registry as kp
from repro.tools.metrics import MetricsRegistry, MetricsTool
from repro.tools.space_time_stack import SpaceTimeStack

from conftest import make_melt


@pytest.fixture(autouse=True)
def clean_chain():
    """No tools, no sinks, fresh clocks around every test."""
    kp.TOOLS.clear()
    kp.CHAIN.reset()
    metrics.SINKS.clear()
    yield
    kp.TOOLS.clear()
    kp.CHAIN.reset()
    metrics.SINKS.clear()


# ------------------------------------------------------------------ families
class TestFamilies:
    def test_counter_labels(self):
        r = MetricsRegistry()
        c = r.counter("x_total")
        c.inc(mode="a")
        c.inc(2.0, mode="a")
        c.inc(mode="b")
        assert c.get(mode="a") == 3.0
        assert c.get(mode="b") == 1.0
        assert c.get(mode="missing") == 0.0

    def test_gauge_last_write_wins(self):
        r = MetricsRegistry()
        g = r.gauge("cur")
        g.set(5.0, space="Host")
        g.set(2.0, space="Host")
        assert g.get(space="Host") == 2.0

    def test_histogram_buckets_and_overflow(self):
        r = MetricsRegistry()
        h = r.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 50.0):
            h.observe(v, k="a")
        s = h.series(k="a")
        assert s.bucket_counts == [1, 2, 1]  # last slot is +Inf
        assert s.count == 4
        assert s.vmin == 0.05 and s.vmax == 50.0

    def test_name_collision_across_kinds_raises(self):
        r = MetricsRegistry()
        r.counter("thing")
        with pytest.raises(TypeError):
            r.gauge("thing")

    def test_prometheus_export_format(self):
        r = MetricsRegistry()
        r.counter("a_total", "things").inc(3.0, mode="x")
        r.histogram("h_seconds", buckets=(1.0,)).observe(0.5, k="y")
        text = r.to_prometheus()
        assert "# HELP a_total things" in text
        assert "# TYPE a_total counter" in text
        assert 'a_total{mode="x"} 3.0' in text
        assert '# TYPE h_seconds histogram' in text
        assert 'h_seconds_bucket{k="y",le="1.0"} 1' in text
        assert 'h_seconds_bucket{k="y",le="+Inf"} 1' in text
        assert 'h_seconds_sum{k="y"} 0.5' in text
        assert 'h_seconds_count{k="y"} 1' in text

    def test_jsonl_export_round_trips(self):
        r = MetricsRegistry()
        r.counter("a_total").inc(mode="x")
        r.histogram("h_seconds").observe(0.01, k="y")
        rows = [json.loads(line) for line in r.to_jsonl().splitlines()]
        by_name = {row["name"]: row for row in rows}
        assert by_name["a_total"]["value"] == 1.0
        assert by_name["h_seconds"]["count"] == 1
        assert by_name["h_seconds"]["labels"] == {"k": "y"}


# ------------------------------------------------------------------ emission
class TestEmissionGuard:
    def test_noop_without_sinks(self):
        # must not raise and must not create anything anywhere
        metrics.inc("free_total")
        metrics.set_gauge("free_gauge", 1.0)
        metrics.observe("free_seconds", 0.1)
        assert not metrics.SINKS

    def test_emission_reaches_all_sinks(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        metrics.attach_sink(a)
        metrics.attach_sink(b)
        metrics.inc("x_total", 2.0, mode="m")
        metrics.detach_sink(b)
        metrics.inc("x_total", 1.0, mode="m")
        assert a.families["x_total"].get(mode="m") == 3.0
        assert b.families["x_total"].get(mode="m") == 2.0
        metrics.detach_sink(a)

    def test_run_records_nothing_with_no_sink(self):
        lmp = make_melt(device="H100", suffix="kk", cells=3)
        lmp.run(3)
        assert not metrics.SINKS  # nothing attached, nothing leaked


# ----------------------------------------------------------------- wiring
class TestRuntimeWiring:
    def _run_with_sink(self, nranks=1, nsteps=5):
        sink = metrics.attach_sink(MetricsRegistry())
        target = make_melt(device="H100", suffix="kk", cells=3, nranks=nranks)
        target.run(nsteps)
        metrics.detach_sink(sink)
        return sink

    def test_step_timer_and_rebuild_counters(self):
        sink = self._run_with_sink(nsteps=5)
        steps = sink.families["steps_total"]
        assert steps.get(rank="0") == 5
        hist = sink.families["step_wall_seconds"].series(rank="0")
        assert hist.count == 5
        assert hist.total > 0

    def test_comm_ledger_counters(self):
        sink = self._run_with_sink(nranks=2, nsteps=5)
        msgs = sink.families["comm_messages_total"]
        assert sum(msgs.values.values()) > 0
        secs = sink.families["comm_sim_seconds_total"]
        assert sum(secs.values.values()) > 0

    def test_halo_exchange_counters(self):
        sink = self._run_with_sink(nranks=2, nsteps=5)
        halo = sink.families["halo_exchanges_total"]
        assert halo.get(kind="forward") > 0
        assert halo.get(kind="borders") > 0
        assert halo.get(kind="exchange") > 0

    def test_dualview_sync_counters(self):
        import repro.kokkos as kk
        from repro.kokkos.dual_view import DualView

        kk.initialize("H100")
        sink = metrics.attach_sink(MetricsRegistry())
        dv = DualView(64, label="wired")
        dv.modify_host()
        dv.sync_device()
        dv.sync_device()  # second sync is a no-op: already in sync
        metrics.detach_sink(sink)
        syncs = sink.families["dualview_sync_total"]
        assert sum(syncs.values.values()) >= 1
        skipped = sink.families["dualview_sync_skipped_total"]
        assert sum(skipped.values.values()) >= 1


# ------------------------------------------------------------------ the tool
class TestMetricsTool:
    def test_reconciles_with_space_time_stack(self):
        """Same kernel names as the STS tree; dispatch counts match exactly."""
        sts = SpaceTimeStack()
        tool = MetricsTool()
        with kp.attached(sts), kp.attached(tool):
            lmp = make_melt(device="H100", suffix="kk", cells=3)
            lmp.run(10)
        totals = tool.kernel_totals()
        metrics.detach_sink(tool.registry)

        sts_kernels: dict[str, int] = {}

        def walk(node):
            if node.kind == "kernel":
                sts_kernels[node.name] = (
                    sts_kernels.get(node.name, 0) + node.count
                )
            for child in node.children.values():
                walk(child)

        for root in sts.roots.values():
            walk(root)
        assert sts_kernels, "space-time-stack saw no kernels"
        assert set(totals) == set(sts_kernels)
        for name, count in sts_kernels.items():
            assert totals[name]["count"] == count, f"{name} count diverged"
            assert totals[name]["wall_seconds"] >= 0.0

    def test_finalize_writes_exports_and_profiles(self, tmp_path):
        tool = MetricsTool(str(tmp_path))
        with kp.attached(tool):
            lmp = make_melt(device="H100", suffix="kk", cells=3)
            lmp.run(3)
            report = tool.finalize()
        assert not metrics.SINKS  # finalize detaches the sink
        assert "metrics" in report
        prom = (tmp_path / "metrics.prom").read_text()
        assert "kernel_dispatch_total" in prom
        assert "step_wall_seconds" in prom
        jsonl = (tmp_path / "metrics.jsonl").read_text()
        assert any(
            json.loads(line)["name"] == "kernel_wall_seconds"
            for line in jsonl.splitlines()
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "metrics.jsonl", "metrics.prom",
        ]  # no profiles.json

    def test_memory_gauge_tracks_allocations(self):
        tool = MetricsTool()
        with kp.attached(tool):
            kp.allocate_data("Device", "v", 1000)
            kp.allocate_data("Device", "w", 500)
            kp.deallocate_data("Device", "v", 1000)
        metrics.detach_sink(tool.registry)
        assert tool.mem_current.get(space="Device") == 500.0


# ------------------------------------------------------------- CLI / script
SCRIPT = """\
units lj
lattice fcc 0.8442
region box block 0 3 0 3 0 3
create_box 1 box
create_atoms 1 box
mass 1 1.0
velocity all create 1.44 87287
pair_style lj/cut 2.5
pair_coeff 1 1 1.0 1.0
fix 1 all nve
run 5
"""


class TestCLIAndInputScript:
    def test_cli_metrics_out(self, tmp_path, capsys):
        from repro.__main__ import main

        script = tmp_path / "melt.in"
        script.write_text(SCRIPT)
        out = tmp_path / "m"
        rc = main(
            ["-in", str(script), "-k", "on", "-sf", "kk", "--quiet",
             "--metrics-out", str(out)]
        )
        assert rc == 0
        assert (out / "metrics.prom").exists()
        assert (out / "metrics.jsonl").exists()
        assert not (out / "profiles.json").exists()
        assert "metrics" in capsys.readouterr().out
        assert not metrics.SINKS and not kp.TOOLS

    def test_input_script_metrics_command(self, tmp_path, capsys):
        from repro.core import Lammps

        lmp = Lammps(device="H100", suffix="kk", quiet=True)
        lmp.command(f"metrics on out {tmp_path}")
        assert len(kp.TOOLS) == 1 and len(metrics.SINKS) == 1
        lmp.commands_string(SCRIPT)
        lmp.command("metrics off")
        assert not kp.TOOLS and not metrics.SINKS
        assert "metrics" in capsys.readouterr().out
        assert (tmp_path / "metrics.prom").exists()
        assert not (tmp_path / "profiles.json").exists()

    def test_input_script_metrics_bad_option(self):
        from repro.core import Lammps
        from repro.core.errors import InputError

        lmp = Lammps(device=None, quiet=True)
        with pytest.raises(InputError):
            lmp.command("metrics sideways")
        with pytest.raises(InputError):
            lmp.command("metrics on bogus x")
        with pytest.raises(InputError, match="unknown option 'workload'"):
            lmp.command("metrics on workload melt")

    def test_tools_all_includes_metrics(self, tmp_path):
        from repro.tools import create_tools

        tools = create_tools("all", str(tmp_path))
        assert any(isinstance(t, MetricsTool) for t in tools)
        for t in tools:  # clean up the sink MetricsTool.__init__ attached
            if isinstance(t, MetricsTool):
                metrics.detach_sink(t.registry)

    def test_unknown_tool_error_lists_registered(self):
        from repro.tools import create_tool, tool_names

        with pytest.raises(ValueError) as err:
            create_tool("metrix")
        msg = str(err.value)
        for name in tool_names():
            assert name in msg
        assert "did you mean" in msg
