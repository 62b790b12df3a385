"""Command-line entry point: the ``lmp`` executable analogue.

Mirrors the LAMMPS binary's common flags::

    python -m repro -in melt.in                      # host run
    python -m repro -in melt.in -k on -sf kk         # simulated H100, /kk styles
    python -m repro -in melt.in -k on gpu MI300A -sf kk
    python -m repro -in melt.in -np 4                # 4 simulated MPI ranks
    python -m repro -in melt.in -r 16                # 16 batched replicas
    python -m repro -in melt.in -var cells 6 -var temp 1.2
    python -m repro -in melt.in --tools space-time-stack,chrome-trace --tool-out out/
    python -m repro -in melt.in --tools metrics --tool-out out/  # Prometheus + JSONL
    python -m repro -in melt.in --autotune           # pick list/newton/scatter at run start
    python -m repro --analyze-trace out/trace.json   # offline trace analytics

``-var`` values are injected as equal-style variables (usable as ``${name}``
in the script), ``-k on [gpu <name>]`` selects the simulated device, ``-sf``
sets the global accelerator suffix, ``-np`` runs the script across simulated
MPI ranks in lockstep, and ``--tools`` attaches KokkosP-style observability
tools (:mod:`repro.tools`) for the duration of the run.

The one offline mode (no input script): ``--analyze-trace`` runs the trace
analyzer (:mod:`repro.tools.analyze`) over a recorded chrome trace.
Wall-clock benchmarking is not a CLI job: ``python3 bench_e2e/run.py`` drives
this entry point from outside.
"""

from __future__ import annotations

import argparse
import os
import sys

import repro.kspace  # noqa: F401  (register all packages' styles)
import repro.potentials  # noqa: F401
import repro.reaxff  # noqa: F401
import repro.snap  # noqa: F401
from repro.core import Ensemble, Lammps, ReplicaSet
from repro.tools import create_tools, tool_names
from repro.tools import registry as kp


def workload_key(script: str) -> str:
    """The tuned-plan key of an input script.

    Both LAMMPS naming conventions map to the bare workload name —
    ``in.melt``, ``melt.in`` and ``melt.lmp`` are all ``melt`` — and any
    other file name is its own key.
    """
    name = os.path.basename(script)
    if name.startswith("in.") and len(name) > 3:
        return name[3:]
    stem, ext = os.path.splitext(name)
    return stem if stem and ext in (".in", ".lmp") else name


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="LAMMPS-KOKKOS reproduction: run an input script on "
        "simulated exascale hardware.",
    )
    p.add_argument("-in", "--input", dest="script",
                   help="input script file")
    p.add_argument("--tools", default=None, metavar="NAME[,NAME...]",
                   help="attach observability tools for the run: "
                   + ", ".join(tool_names()))
    p.add_argument("--tool-out", default=".", metavar="DIR",
                   help="directory for tool output files (default: cwd)")
    p.add_argument("--analyze-trace", default=None, metavar="TRACE.json",
                   help="analyze a recorded chrome trace instead of running "
                   "a script (critical path, imbalance, top kernels)")
    p.add_argument("--analyze-out", default=None, metavar="FILE",
                   help="also write the trace analysis as JSON to FILE")
    p.add_argument("--top", type=int, default=10,
                   help="top-N kernels in the trace analysis (default 10)")
    p.add_argument("--autotune", nargs="?", const="model", default=None,
                   choices=("model",), metavar="MEASURE",
                   help="before the first run, pick list x newton x scatter "
                   "by the hardware cost model's charged seconds (the one "
                   "measure, 'model'); winners persist to --tune-plan")
    p.add_argument("--tune-plan", default="tuned_plan.json", metavar="FILE",
                   help="tuned-plan file keyed (workload, arch); "
                   "'none' disables persistence (default: tuned_plan.json)")
    p.add_argument("-k", "--kokkos", nargs="*", default=None, metavar="ARG",
                   help="'on [gpu <name>]' enables the simulated device "
                   "(default H100); 'off' forces a pure-host build")
    p.add_argument("-sf", "--suffix", default=None,
                   help="global accelerator suffix (kk, kk/host, gpu)")
    p.add_argument("-np", "--nranks", type=int, default=1,
                   help="simulated MPI ranks (default 1)")
    p.add_argument("-r", "--replicas", type=int, default=1, metavar="R",
                   help="run the script as R batched replicas through one "
                   "set of vectorized kernels (single-rank workloads only; "
                   "each replica sees an equal-style 'replica' index "
                   "variable)")
    p.add_argument("-var", nargs=2, action="append", default=[],
                   metavar=("NAME", "VALUE"),
                   help="define an equal-style variable (repeatable)")
    p.add_argument("-log", "--quiet", action="store_true",
                   help="suppress thermo output")
    return p


def resolve_device(kokkos_args: list[str] | None) -> str | None:
    if kokkos_args is None:
        return None
    if not kokkos_args or kokkos_args[0] == "off":
        return None
    if kokkos_args[0] != "on":
        raise SystemExit(f"-k expects 'on' or 'off', got {kokkos_args[0]!r}")
    if len(kokkos_args) >= 3 and kokkos_args[1] == "gpu":
        return kokkos_args[2]
    return "H100"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.analyze_trace is not None:
        import json

        from repro.tools.analyze import analyze_file, format_report

        analysis = analyze_file(args.analyze_trace, top=args.top)
        if args.analyze_out:
            with open(args.analyze_out, "w") as fh:
                json.dump(analysis, fh, indent=2)
                fh.write("\n")
        if not args.quiet:
            print(format_report(analysis))
        return 0
    if args.script is None:
        parser.error("an input script (-in FILE) or --analyze-trace is required")
    device = resolve_device(args.kokkos)

    tools = []
    if args.tools:
        try:
            tools = create_tools(args.tools, args.tool_out)
        except ValueError as err:
            parser.error(str(err))
        for tool in tools:
            kp.attach(tool)

    try:
        if args.replicas > 1:
            if args.nranks > 1:
                parser.error("--replicas batches single-rank workloads; "
                             "it cannot be combined with -np")
            if args.autotune is not None:
                parser.error("--replicas cannot be combined with --autotune; "
                             "tune the solo workload first")
            target = ReplicaSet(
                args.replicas, device=device, suffix=args.suffix,
                quiet=args.quiet,
            )
        elif args.nranks > 1:
            target = Ensemble(
                args.nranks, device=device, suffix=args.suffix, quiet=args.quiet
            )
        else:
            target = Lammps(device=device, suffix=args.suffix, quiet=args.quiet)

        if args.autotune is not None:
            from repro.tune import Autotuner

            target.autotuner = Autotuner(
                plan_path=None if args.tune_plan == "none" else args.tune_plan,
                workload=workload_key(args.script),
                quiet=args.quiet,
            )

        for name, value in args.var:
            target.commands_string(f"variable {name} equal {value}")

        with open(args.script) as fh:
            target.commands_string(fh.read())
    finally:
        if tools:
            for report in kp.finalize_all():
                print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
