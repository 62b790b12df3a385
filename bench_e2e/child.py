"""One measured run: a fresh process that is ``python -m repro`` plus stamps.

Run as ``python -m bench_e2e.child [--trace FILE] -- <repro argv>``.  The
clock starts before ``import repro``; the public ``Lammps.run`` /
``Ensemble.run`` / ``ReplicaSet.run`` get a two-timestamp shim; then
``repro.__main__.main(argv)`` runs the generated script, so argparse, script
parsing, style resolution and ``run`` are the real CLI path.  The last line
of stdout is ``@bench_e2e <json>`` with the stamps; everything before it is
what a user would see.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

RESULT_TAG = "@bench_e2e "


def peak_rss_mb() -> float:
    """High-water resident set of this process image, from ``VmHWM``.

    Not ``ru_maxrss``: Linux seeds that with the parent's RSS at fork time,
    so a harness that has grown (it loads trace files) would show up as the
    peak of every lean child it starts afterwards.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def owned_atoms(target) -> int:
    """Atoms currently owned across the ranks/replicas behind ``target``."""
    members = getattr(target, "ranks", None) or getattr(target, "replicas", None)
    return sum(lmp.atom.nlocal for lmp in (members or [target]))


def install_run_shim(classes, runs: list, span=None) -> None:
    """Stamp entry and exit of every public ``run`` call.

    ``span`` (traced runs) opens the root span the layer spans hang from and
    returns a closer that is handed the run's target for counter snapshots.
    """
    for cls in classes:
        original = cls.run

        def run(self, nsteps, _original=original):
            close = span(self) if span is not None else None
            enter = time.perf_counter()
            try:
                return _original(self, nsteps)
            finally:
                leave = time.perf_counter()
                record = {
                    "steps": int(nsteps),
                    "enter": enter - T0,
                    "exit": leave - T0,
                    "atoms": owned_atoms(self),
                }
                if close is not None:
                    record["counters"] = close(self)
                runs.append(record)

        cls.run = run


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, repro_argv = argv[:split], argv[split + 1 :]
    trace_path = own[own.index("--trace") + 1] if "--trace" in own else None

    import repro.__main__ as cli
    from repro.core import Ensemble, Lammps, ReplicaSet

    imported = time.perf_counter()
    runs: list[dict] = []
    tracer = None
    if trace_path is not None:
        from bench_e2e import trace

        tracer = trace.install()
    install_run_shim(
        (Lammps, Ensemble, ReplicaSet), runs,
        span=tracer.run_span if tracer is not None else None,
    )
    started = time.perf_counter()
    code = cli.main(repro_argv)
    result = {
        "import_s": imported - T0,
        "main_start": started - T0,
        "runs": runs,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        tracer.write(trace_path, argv=repro_argv, runs=runs)
    print(RESULT_TAG + json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
