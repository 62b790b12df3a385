"""Measured-performance metrics core (:mod:`repro.tools.metrics`).

Covers the metric families and exporters, the one-channel contract (the
tool records only the KokkosP events it is attached to, building one
attaches nothing, and no runtime module emits anywhere but the registry),
the runtime facts it must carry (every comm-ledger record, every DualView
transfer), and the reconciliation guarantee: the MetricsTool's per-kernel
wall-clock totals cover exactly the kernel set the space-time-stack sees,
with dispatch counts matching exactly.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import repro.kokkos as kk
from repro.__main__ import main
from repro.core import Lammps
from repro.core.errors import InputError
from repro.kokkos.dual_view import DualView
from repro.tools import registry as kp
from repro.tools.metrics import MetricsRegistry, MetricsTool
from repro.tools.space_time_stack import SpaceTimeStack

from conftest import make_melt

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture(autouse=True)
def clean_chain():
    """No tools, fresh clocks around every test."""
    kp.TOOLS.clear()
    kp.CHAIN.reset()
    yield
    kp.TOOLS.clear()
    kp.CHAIN.reset()


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
def _second_channel(path: Path, rel: str) -> list[int]:
    """Lines opening an emission path beside the registry: a module-level
    ``SINKS``, or (outside ``tools/``) an import of the metrics module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [node.lineno for node in tree.body
           if isinstance(node, (ast.Assign, ast.AnnAssign))
           and any(getattr(t, "id", None) == "SINKS"
                   for t in getattr(node, "targets", None) or [node.target])]
    if not rel.startswith("tools/"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(f"{n}.".startswith("repro.tools.metrics.") for n in names):
                bad.append(node.lineno)
    return sorted(bad)


class TestEmissionGuard:
    def test_run_records_nothing_with_no_sink(self):
        """A MetricsTool records only while attached: building one attaches
        nothing, and a run beside an unattached tool leaves it empty."""
        tool = MetricsTool()
        assert not kp.TOOLS
        make_melt(device="H100", suffix="kk", cells=3).run(3)
        assert not any(fam.values for fam in tool.registry.families.values())

    def test_registry_is_the_only_emission_channel(self):
        rels = [p.relative_to(SRC).as_posix() for p in sorted(SRC.rglob("*.py"))]
        bad = {rel: _second_channel(SRC / rel, rel) for rel in rels}
        # a module-level SINKS or a runtime import of repro.tools.metrics
        # opens a path beside the registry: emit a registry event instead
        assert not {rel: lines for rel, lines in bad.items() if lines}

    def test_the_guard_sees_what_it_forbids(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text("\n".join([
            "import repro.tools.metrics", "from repro.tools import registry, metrics",
            "from repro.tools.metrics import MetricsTool",
            "from repro.tools import registry", "SINKS = []", "SINKS: list = []",
            "def f():", "    import repro.tools.metrics as m", "    SINKS = []",
        ]))
        assert _second_channel(probe, "core/probe.py") == [1, 2, 3, 5, 6, 8]
        assert _second_channel(probe, "tools/probe.py") == [5, 6]


# ----------------------------------------------------------------- wiring
class TestRuntimeWiring:
    def _run(self, nranks):
        tool = MetricsTool()
        with kp.attached(tool):
            target = make_melt(device="H100", suffix="kk", cells=3, nranks=nranks)
            target.run(5)
        return tool, target.world.ledger

    def test_comm_ledger_counters(self):
        """Every CommLedger record reaches the tool as one charged
        ``comm:<category>`` instant carrying its seconds and bytes."""
        def comm(counter):
            return sum(n for k, n in counter.values.items() if dict(k)["name"].startswith("comm:"))

        tool, ledger = self._run(nranks=1)
        assert comm(tool.instants) == ledger.messages > 0
        # Two ranks: every rank past the first that reads an allreduce adds
        # a zero-cost comm:allreduce sync marker to its own track, so the
        # charged quantities are what match the ledger exactly.
        tool, ledger = self._run(nranks=2)
        assert comm(tool.instant_bytes) == ledger.bytes_moved > 0
        for category, seconds in ledger.entries.items():
            assert tool.instant_seconds.get(name=f"comm:{category}") == seconds

    def test_dualview_sync_counters(self):
        kk.initialize("H100")
        tool = MetricsTool()
        with kp.attached(tool):
            dv = DualView(64, label="wired")
            dv.modify_host()
            dv.sync_device()
            dv.sync_device()  # second sync is a no-op: already in sync
        key = (("label", "wired_d"), ("route", "Host->Device"))
        assert tool.copies.values == {key: 1.0} and tool.copy_bytes.values == {key: 64 * 8}


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
        assert "metrics" in report
        prom = (tmp_path / "metrics.prom").read_text()
        assert "kernel_dispatch_total" in prom
        assert 'deep_copy_total{label="' in prom
        assert 'profile_event_bytes_total{name="comm:' in prom
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
        assert tool.mem_current.get(space="Device") == 500.0


# ------------------------------------------------------------- CLI / script
class TestCLIAndInputScript:
    def test_cli_tools_metrics(self, tmp_path, melt_script, capsys):
        out = tmp_path / "m"
        rc = main(["-in", melt_script, "-k", "on", "-sf", "kk", "--quiet",
                   "--tools", "metrics", "--tool-out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == ["metrics.jsonl", "metrics.prom"]
        assert "metrics" in capsys.readouterr().out
        assert not kp.TOOLS

    def test_per_tool_out_flags_are_rejected(self, tmp_path, melt_script, capsys):
        """``--tools NAME --tool-out DIR`` is the one way to pick an output
        directory; no tool has a flag of its own."""
        flag = f"--{MetricsTool.name}-out"
        with pytest.raises(SystemExit) as exc:
            main(["-in", melt_script, flag, str(tmp_path / "d")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_input_script_metrics_command(self, tmp_path, melt_script, capsys):
        out = tmp_path / "m"
        lmp = Lammps(device="H100", suffix="kk", quiet=True)
        lmp.command(f"tools metrics out {out}")
        assert [type(t) for t in kp.TOOLS] == [MetricsTool]
        lmp.file(melt_script)
        lmp.command("tools off")
        assert not kp.TOOLS
        assert "metrics" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == ["metrics.jsonl", "metrics.prom"]

    def test_input_script_metrics_bad_option(self):
        """The metrics-only command is gone; ``tools metrics`` replaces it."""
        lmp = Lammps(device=None, quiet=True)
        for line in ("metrics on", "metrics off", "metrics on out d"):
            with pytest.raises(InputError, match="unknown command 'metrics'"):
                lmp.command(line)

    def test_rejected_tool_list_leaves_nothing_behind(self, tmp_path):
        """Every name is checked before any tool is built: a list with one
        bad name attaches nothing and makes no output directory."""
        lmp = Lammps(device=None, quiet=True)
        out = tmp_path / "never"
        with pytest.raises(InputError, match="bogus"):
            lmp.command(f"tools metrics,bogus out {out}")
        assert kp.TOOLS == []
        assert not out.exists()

    def test_tools_all_includes_metrics(self, tmp_path):
        from repro.tools import create_tools

        tools = create_tools("all", str(tmp_path))
        assert any(isinstance(t, MetricsTool) for t in tools)
        assert not kp.TOOLS  # building tools attaches none of them

    def test_unknown_tool_error_lists_registered(self):
        from repro.tools import create_tool, tool_names

        with pytest.raises(ValueError) as err:
            create_tool("metrix")
        msg = str(err.value)
        for name in tool_names():
            assert name in msg
        assert "did you mean" in msg
