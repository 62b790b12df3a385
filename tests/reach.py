"""Function-level reach trace: which ``src/repro`` functions a consumer runs.

DESIGN.md section 3.2's consumer rule, measured per function.  Every consumer
runs in its own process under a stdlib ``sys.setprofile`` hook that records
each ``src/repro`` code object entered; the union is compared with every
``def`` under ``src/repro``.  The consumers are the ones the rule names:

* the eight ``bench_e2e`` workloads, untraced and under
  ``bench_e2e.trace.install()``, each at one thermo interval;
* the 16 ``bench_e2e/run.py`` ``probe_matrix`` probes;
* every ``examples/*.py``;
* the CI steps that drive the program directly (``python -m repro`` runs and
  inline ``python - <<'EOF'`` checks; steps that run the tests or
  ``bench_e2e/run.py`` are covered above or are not consumers);
* ``pytest benchmarks`` and ``pytest bench_e2e/test_harness.py``.

A function no consumer enters must have an ``api`` row in DESIGN section 3.2
(safety code, a reference oracle, a name ``bench_e2e/trace.py`` imports or
patches, or test scaffolding); otherwise it is deleted.  A row names a
qualified name (``Pair.eval_setup``; a class covers its methods, a function
its nested functions), a file (``kokkos/core.py``), a package (``graph/``) or
one function of one file (``kokkos/core.py::finalize``).

    python tests/reach.py            # trace everything; exit 1 on an unreached
                                     # function without an api row
    python tests/reach.py --list     # also print every unreached function
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "repro")
DESIGN = os.path.join(ROOT, "DESIGN.md")
CI = os.path.join(ROOT, ".github", "workflows", "ci.yml")


# ------------------------------------------------------------- the functions
def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(relative file, first line) -> (qualname, def-to-end lines)`` of
    every ``def`` under ``src/repro``.  The first line is a code object's
    ``co_firstlineno``: the first decorator's line, else the ``def``."""
    found = {}
    for dirpath, _, files in os.walk(PKG):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, PKG)
            with open(path) as fh:
                tree = ast.parse(fh.read())

            def visit(node, prefix):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qual = prefix + child.name
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        found[rel, first] = (qual, child.end_lineno - first + 1)
                        visit(child, qual + ".<locals>.")
                    elif isinstance(child, ast.ClassDef):
                        visit(child, prefix + child.name + ".")
                    else:
                        visit(child, prefix)

            visit(tree, "")
    return found


# ------------------------------------------------------------- one consumer
@contextlib.contextmanager
def recording(reached: set):
    """Record every ``src/repro`` code object entered, in every thread."""
    codes: set = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        for code in codes:
            path = os.path.abspath(code.co_filename)
            if path.startswith(PKG + os.sep):
                reached.add((os.path.relpath(path, PKG), code.co_firstlineno))


def run_workload(name: str, traced: bool) -> None:
    from bench_e2e import child, run, workloads

    w = workloads.BY_NAME[name]
    _run_child(child, workloads, w, w.thermo, traced)


def run_probe(label: str) -> None:
    from bench_e2e import child, run, workloads

    w = dict(run.probe_matrix())[label]
    _run_child(child, workloads, w, w.steps, traced=False)


def _run_child(child, workloads, w, steps: int, traced: bool) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        argv = workloads.render(w, workloads.DEFAULT_SEED, steps, tmp)
        own = ["--trace", os.path.join(tmp, "trace.json")] if traced else []
        if child.main([*own, "--", *argv]) != 0:
            raise SystemExit(f"{w.name}: the run failed")


def run_example(path: str) -> None:
    sys.argv = [path]
    runpy.run_path(path, run_name="__main__")


def ci_steps() -> list[tuple[str, list[tuple[str, str]]]]:
    """``(step name, [(kind, text)])`` of each CI step that drives the
    program directly: every command is ``python -m repro ...`` (kind
    ``cli``) or an inline ``python - <<'EOF'`` script (kind ``script``)."""
    with open(CI) as fh:
        lines = fh.read().splitlines()
    steps, name, body, indent = [], None, None, 0
    for line in lines + ["      - name: end"]:
        stripped = line.strip()
        if line.startswith("      - ") or (body is not None and stripped
                                            and len(line) - len(line.lstrip()) <= indent):
            if name is not None and body is not None:
                steps.append((name, body))
            name, body = None, None
        m = re.match(r"\s*- name: (.*)", line)
        if m:
            name = m.group(1)
        elif re.match(r"\s*run: \|\s*$", line) and name is not None:
            body, indent = [], len(line) - len(line.lstrip())
        elif re.match(r"\s*run: \S", line) and name is not None:
            steps.append((name, [line.split("run:", 1)[1].strip()]))
            name = None
        elif body is not None:
            body.append(line[indent + 2:])
    chosen = []
    for name, body in steps:
        commands, k = [], 0
        while k < len(body):
            line = body[k].rstrip()
            k += 1
            while line.endswith("\\") and k < len(body):
                line = line[:-1] + " " + body[k].strip()
                k += 1
            if not line.strip():
                continue
            if line.strip() == "python - <<'EOF'":
                end = body.index("EOF", k)
                commands.append(("script", "\n".join(body[k:end])))
                k = end + 1
            elif line.startswith("python -m repro ") and "|" not in line:
                commands.append(("cli", line[len("python -m repro "):]))
            else:
                commands = None
                break
        if commands:
            chosen.append((name, commands))
    return chosen


def run_ci_step(name: str) -> None:
    import repro.__main__ as cli

    commands = dict(ci_steps())[name]
    # the steps share one directory, in order, as they share the checkout in CI
    here = os.getcwd()
    os.chdir(os.environ["REACH_CI_DIR"])
    try:
        for kind, text in commands:
            if kind == "script":
                exec(compile(text, name, "exec"), {"__name__": "__main__"})
            elif cli.main(shlex.split(text.replace("examples/", ROOT + "/examples/"))):
                raise SystemExit(f"{name}: python -m repro failed")
    finally:
        os.chdir(here)


def run_pytest(target: str) -> None:
    import pytest

    if pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, target)]) != 0:
        raise SystemExit(f"pytest {target} failed")


def consumers() -> list[tuple[str, str]]:
    sys.path[:0] = [ROOT, SRC]
    from bench_e2e import run, workloads

    out = []
    for w in workloads.WORKLOADS:
        out += [("workload", w.name), ("workload-traced", w.name)]
    out += [("probe", label) for label, _ in run.probe_matrix()]
    examples = os.path.join(ROOT, "examples")
    out += [("example", os.path.join(examples, f))
            for f in sorted(os.listdir(examples)) if f.endswith(".py")]
    out += [("ci", name) for name, _ in ci_steps()]
    out += [("pytest", "benchmarks"), ("pytest", "bench_e2e/test_harness.py")]
    return out


def one(kind: str, arg: str, out: str) -> None:
    """Child side: run one consumer under the hook, write what it reached."""
    sys.path[:0] = [ROOT, SRC]
    runner = {
        "workload": lambda: run_workload(arg, traced=False),
        "workload-traced": lambda: run_workload(arg, traced=True),
        "probe": lambda: run_probe(arg),
        "example": lambda: run_example(arg),
        "ci": lambda: run_ci_step(arg),
        "pytest": lambda: run_pytest(arg),
    }[kind]
    reached: set = set()
    with recording(reached):
        runner()
    with open(out, "w") as fh:
        json.dump(sorted(reached), fh)


# --------------------------------------------------------------- the api rows
def api_rows() -> list[str]:
    with open(DESIGN) as fh:
        return re.findall(r"^\| api \| `([^`]+)` \|", fh.read(), re.M)


def covered(rel: str, qual: str, rows: list[str]) -> bool:
    for row in rows:
        if "::" in row:
            path, name = row.split("::", 1)
            if rel == path and (qual == name or qual.startswith(name + ".")):
                return True
        elif row.endswith("/") or row.endswith(".py"):
            if rel == row or rel.startswith(row):
                return True
        elif qual == row or qual.startswith(row + "."):
            return True
    return False


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--list", action="store_true", help="print every unreached function")
    p.add_argument("--one", nargs=3, metavar=("KIND", "ARG", "OUT"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.one:
        one(*args.one)
        return 0

    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    reached: set = set()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "reached.json")
        env["REACH_CI_DIR"] = tmp
        for kind, arg in consumers():
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--one", kind, arg, out],
                cwd=ROOT, env=env, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
                print(f"consumer {kind} {arg} failed", file=sys.stderr)
                return 2
            with open(out) as fh:
                reached |= {tuple(r) for r in json.load(fh)}
            print(f"  {kind:<15} {os.path.relpath(arg, ROOT) if kind == 'example' else arg:<44}"
                  f" {time.perf_counter() - t0:6.1f} s", flush=True)

    defs = functions()
    unreached = {key: defs[key] for key in defs if key not in reached}
    rows = api_rows()
    missing = {k: v for k, v in unreached.items() if not covered(k[0], v[0], rows)}
    lines = sum(n for _, n in unreached.values())
    print(f"{len(defs)} functions under src/repro; {len(unreached)} unreached "
          f"({lines} def-to-end lines), {len(missing)} of them without an api row")
    shown = unreached if args.list else missing
    for (rel, first), (qual, n) in sorted(shown.items()):
        tag = "" if (rel, first) in missing else "  [api]"
        print(f"  {rel}:{first} {qual} ({n} lines){tag}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
