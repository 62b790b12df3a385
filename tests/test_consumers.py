"""Every registered unit names a consumer; a retired unit fails loudly.

DESIGN.md section 3.2 keeps one row per registered pair/fix/compute style,
input command and kokkos-tools tool, naming what runs it (a ``bench_e2e``
workload, a probe, a figure benchmark, a CI step) or why it stays.  The
guard below holds those rows equal to the registries, so a unit cannot land
without naming its consumer.  The units retired for having none leave an
error where a script names them, never a silent fallback.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import re

import pytest

from conftest import make_melt
from repro.core.errors import InputError, StyleError
from repro.core.input import Input
from repro.core.styles import COMPUTE_STYLES, FIX_STYLES, PAIR_STYLES
from repro.tools import TOOL_CATALOG, create_tools
from repro.tools import registry as kp

DESIGN = os.path.join(os.path.dirname(__file__), os.pardir, "DESIGN.md")

#: (kind, what a script says) of every retired unit
RETIRED = [
    ("pair", "lj/cut/coul/cut 2.5"),
    ("pair", "lj/cut/coul/cut/kk 2.5"),
    ("pair", "lj/cut/coul/long 2.5"),
    ("pair", "mliap"),
    ("pair", "eam"),
    ("pair", "morse 2.5"),
    ("pair", "morse/kk 2.5"),
    ("pair", "table 4000 2.5"),
    ("fix", "nve/limit 0.1"),
    ("fix", "langevin 1.0 1.0 0.5 1"),
    ("fix", "setforce 0.0 0.0 0.0"),
    ("fix", "momentum 1"),
    ("fix", "nvt temp 1.0 1.0 0.1"),
    ("fix", "temp/rescale 1 1.0 1.0 0.1 1.0"),
    ("fix", "addforce 0.0 0.0 1.0"),
    ("fix", "viscous 0.1"),
    ("fix", "spring/self 10.0"),
    ("compute", "msd"),
    ("compute", "rdf 50"),
    ("compute", "com"),
    ("command", "kspace_style ewald 1e-4"),
    ("command", "min_style fire"),
    ("command", "minimize 0.0 1e-6 100"),
    ("command", "write_data out.data"),
    ("command", "dump d1 all custom 1 out.dump id"),
    ("command", "undump d1"),
    ("command", "set type 1 charge 0.5"),
    ("command", "package kokkos neigh full newton off"),
    ("command", "package autotune on plan none"),
    ("command", "tools space-time-stack out ."),
    ("command", "atom_modify sort 0 0.0"),
    ("command", "group ones type 1"),
    ("command", "pair_modify shift yes"),
    ("command", "thermo_style custom temp pe"),
    ("command", "dimension 3"),
    ("command", "newton off"),
    ("command", "suffix kk"),
    ("command", "reset_timestep 0"),
    ("command", "print hello"),
    ("command", "unfix 1"),
    ("command", "compute c1 all pe"),
    ("command", "log log.lammps"),
    ("command", "echo both"),
    ("tool", "kernel-logger"),
    ("tool", "memory-events"),
    ("tool", "roofline"),
    ("tool", "metrics"),
]


@pytest.mark.parametrize("kind,line", RETIRED, ids=[line.split()[0] for _, line in RETIRED])
def test_retired_unit_fails_loudly(kind, line):
    name = line.split()[0]
    if kind == "tool":
        with pytest.raises(ValueError, match=f"unknown tool '{name}'.*expected one of"):
            create_tools(name)
        return
    lmp = make_melt(cells=2)
    if kind == "command":
        with pytest.raises(InputError, match=f"unknown command '{name}'"):
            lmp.command(line)
        return
    with pytest.raises(StyleError, match=f"unknown {kind} style '{name}'"):
        if kind == "compute":  # the compute command is retired too
            lmp.internal_compute(name)
        else:
            lmp.command(f"{dict(pair='pair_style', fix='fix 2 all')[kind]} {line}")


#: command-line flags of retired units (the trace analyzer)
RETIRED_FLAGS = [["--analyze-trace", "trace.json"], ["--analyze-out", "a.json"], ["--top", "5"]]


@pytest.mark.parametrize("argv", RETIRED_FLAGS, ids=[a[0] for a in RETIRED_FLAGS])
def test_retired_flag_fails_loudly(argv, capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err


def design_rows() -> set[tuple[str, str]]:
    """``(kind, name)`` of every registered-unit row of DESIGN's table."""
    with open(DESIGN) as fh:
        text = fh.read()
    row = re.compile(r"^\| (pair|fix|compute|command|tool) \| `([^`]+)` \|", re.M)
    return set(row.findall(text))


def test_design_table_names_every_registered_unit():
    registered = (
        {("pair", n) for n in PAIR_STYLES}
        | {("fix", n) for n in FIX_STYLES}
        | {("compute", n) for n in COMPUTE_STYLES}
        | {("command", a[len("cmd_"):]) for a in dir(Input) if a.startswith("cmd_")}
        | {("tool", n) for n in TOOL_CATALOG}
    )
    rows = design_rows()
    assert not registered - rows, f"registered without a DESIGN row: {sorted(registered - rows)}"
    assert not rows - registered, f"DESIGN rows for no registered unit: {sorted(rows - registered)}"


def emitted_callbacks() -> set[str]:
    """Every callback name ``tools.registry`` dispatches: a string literal, or
    a value of the module-level dict the dispatch indexes."""
    tree = ast.parse(inspect.getsource(kp))
    names: set[str] = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "dispatch"
                and node.args):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant):
            names.add(arg.value)
        elif isinstance(arg, ast.Subscript) and isinstance(arg.value, ast.Name):
            names.update(getattr(kp, arg.value.id).values())
        else:
            raise AssertionError(f"unrecognised emission form: {ast.dump(arg)}")
    return names


def test_every_emitted_event_has_a_consumer():
    """An emission site no catalogued tool overrides is an orphan: delete
    it with its last consumer, as the allocation events went with the
    metrics tool."""
    emitted = emitted_callbacks()
    assert {"end_parallel_for", "end_deep_copy", "push_region", "profile_event"} <= emitted
    tools = [getattr(importlib.import_module(module), cls) for module, cls, _ in TOOL_CATALOG.values()]
    orphans = {name for name in emitted
               if not any(getattr(t, name) is not getattr(kp.Tool, name) for t in tools)}
    assert not orphans, f"emitted with no consumer: {sorted(orphans)}"
