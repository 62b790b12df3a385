"""The runtime facts the KokkosP tools carry, and the one-channel contract.

No runtime module emits anywhere but the registry (no module-level
``SINKS``, no runtime import of a tool module), a tool records only the
events it is attached to, and the facts the program's own ledgers hold
reach the two catalogued tools intact: every comm-ledger record (count,
bytes and seconds) and every DualView transfer.  The Prometheus/JSONL
``metrics`` tool that once exported these is retired; the space-time-stack
and the chrome trace carry every number it held.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.kokkos as kk
from repro.__main__ import main
from repro.core import Lammps
from repro.core.errors import InputError
from repro.kokkos.dual_view import DualView
from repro.tools import TOOL_CATALOG, tool_names
from repro.tools import registry as kp
from repro.tools.chrome_trace import ChromeTrace
from repro.tools.space_time_stack import SpaceTimeStack

from conftest import make_melt

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
#: the catalogued tools' implementation modules
TOOL_MODULES = tuple(module for module, _, _ in TOOL_CATALOG.values())


@pytest.fixture(autouse=True)
def clean_chain():
    """No tools, fresh clocks around every test."""
    kp.TOOLS.clear()
    kp.CHAIN.reset()
    yield
    kp.TOOLS.clear()
    kp.CHAIN.reset()


# ------------------------------------------------------------------ emission
def _second_channel(path: Path, rel: str) -> list[int]:
    """Lines opening an emission path beside the registry: a module-level
    ``SINKS``, or (outside ``tools/``) an import of a tool module."""
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
            if any(f"{n}.".startswith(f"{m}.") for n in names for m in TOOL_MODULES):
                bad.append(node.lineno)
    return sorted(bad)


class TestEmissionGuard:
    def test_run_records_nothing_with_no_sink(self):
        """A tool records only while attached: building one attaches
        nothing, and a run beside unattached tools leaves them empty."""
        sts, trace = SpaceTimeStack(), ChromeTrace()
        assert not kp.TOOLS
        make_melt(device="H100", suffix="kk", cells=3).run(3)
        assert sts.roots == {}
        assert [e["ph"] for e in trace.events] == ["M"]  # the process name only

    def test_registry_is_the_only_emission_channel(self):
        rels = [p.relative_to(SRC).as_posix() for p in sorted(SRC.rglob("*.py"))]
        bad = {rel: _second_channel(SRC / rel, rel) for rel in rels}
        # a module-level SINKS or a runtime import of a tool module opens a
        # path beside the registry: emit a registry event instead
        assert not {rel: lines for rel, lines in bad.items() if lines}

    def test_the_guard_sees_what_it_forbids(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text("\n".join([
            "import repro.tools.chrome_trace", "from repro.tools import registry, space_time_stack",
            "from repro.tools.chrome_trace import ChromeTrace",
            "from repro.tools import registry", "SINKS = []", "SINKS: list = []",
            "def f():", "    import repro.tools.space_time_stack as m", "    SINKS = []",
        ]))
        assert _second_channel(probe, "core/probe.py") == [1, 2, 3, 5, 6, 8]
        assert _second_channel(probe, "tools/probe.py") == [5, 6]


# ----------------------------------------------------------------- wiring
class TestRuntimeWiring:
    def _run(self, nranks):
        sts, trace = SpaceTimeStack(), ChromeTrace()
        with kp.attached(sts, trace):
            target = make_melt(device="H100", suffix="kk", cells=3, nranks=nranks)
            target.run(5)
        comm = [e for e in trace.events
                if e.get("cat") == "instant" and e["name"].startswith("comm:")]
        return sts, comm, target.world.ledger

    def test_comm_ledger_counters(self):
        """Every CommLedger record reaches the tools as one charged
        ``comm:<category>`` instant carrying its seconds and bytes."""
        _, comm, ledger = self._run(nranks=1)
        assert len(comm) == ledger.messages > 0
        # Two ranks: every rank past the first that reads an allreduce adds
        # a zero-cost comm:allreduce sync marker to its own track, so the
        # charged quantities are what match the ledger exactly.
        sts, comm, ledger = self._run(nranks=2)
        assert sum(e["args"].get("bytes", 0) for e in comm) == ledger.bytes_moved > 0
        seconds: dict[str, float] = {}

        def walk(node):
            if node.kind == "event" and node.name.startswith("comm:"):
                seconds[node.name] = seconds.get(node.name, 0.0) + node.sim_seconds
            for child in node.children.values():
                walk(child)

        for root in sts.roots.values():
            walk(root)
        for category, total in ledger.entries.items():
            assert seconds[f"comm:{category}"] == pytest.approx(total, rel=1e-12)

    def test_dualview_sync_counters(self):
        kk.initialize("H100")
        trace = ChromeTrace()
        with kp.attached(trace):
            dv = DualView(np.zeros(64), label="wired")
            dv.modify(kk.Host)
            dv.sync(kk.Device)
            dv.sync(kk.Device)  # second sync is a no-op: already in sync
        copies = [(e["name"], e["args"]["dst"], e["args"]["bytes"]) for e in trace.events
                  if e.get("cat") == "deep_copy" and e["ph"] == "i"]
        assert copies == [("deep_copy Host->Device", "Device:wired_d", 64 * 8)]


# ------------------------------------------------------------- CLI / script
class TestCLIAndInputScript:
    def test_per_tool_out_flags_are_rejected(self, tmp_path, melt_script, capsys):
        """``--tools NAME --tool-out DIR`` is the one way to pick an output
        directory; no tool has a flag of its own."""
        for name in tool_names():
            flag = f"--{name}-out"
            with pytest.raises(SystemExit) as exc:
                main(["-in", melt_script, flag, str(tmp_path / "d")])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_input_script_metrics_bad_option(self):
        """The metrics-only command is gone, and so is the tool."""
        lmp = Lammps(device=None, quiet=True)
        for line in ("metrics on", "metrics off", "metrics on out d"):
            with pytest.raises(InputError, match="unknown command 'metrics'"):
                lmp.command(line)

    def test_rejected_tool_list_leaves_nothing_behind(self, tmp_path, melt_script, capsys):
        """Every name is checked before any tool is built: a list with one
        bad name attaches nothing and makes no output directory."""
        out = tmp_path / "never"
        with pytest.raises(SystemExit):
            main(["-in", melt_script, "--tools", "chrome-trace,bogus", "--tool-out", str(out)])
        assert "bogus" in capsys.readouterr().err
        assert kp.TOOLS == []
        assert not out.exists()

    def test_unknown_tool_error_lists_registered(self):
        from repro.tools import create_tool

        with pytest.raises(ValueError) as err:
            create_tool("chrome-trac")
        msg = str(err.value)
        for name in tool_names():
            assert name in msg
        assert "did you mean 'chrome-trace'" in msg
