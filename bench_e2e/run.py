#!/usr/bin/env python3
"""bench_e2e: end-to-end benchmark of real ``python -m repro -in ...`` runs.

One command runs everything and prints every metric by name::

    python bench_e2e/run.py [--seed S]          # all workloads + trace + probes
    python bench_e2e/run.py --selfcheck         # the above twice; must agree
    python bench_e2e/run.py --sweep melt        # atom_steps_per_s against atoms
    python bench_e2e/run.py --quick             # smoke: two tiny workloads

and one workload at a time, the form ``BENCHMARK.json`` names::

    python bench_e2e/run.py --workload melt --seed 3 --seconds 5 --trace 0

Protocol: closed loop, one client.  Every measured run is a fresh child
process (:mod:`bench_e2e.child`), one at a time, BLAS pinned to one thread.
See ``bench_e2e/README.md`` for the metric glossary.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
if ROOT not in sys.path:
    # run as a script: sys.path[0] is this directory, where ``trace.py``
    # would shadow the stdlib module of that name
    sys.path[0] = ROOT
if SRC not in sys.path:
    sys.path.append(SRC)  # workloads.hns_data_text imports repro.workloads

from bench_e2e import layers, workloads  # noqa: E402
from bench_e2e.child import RESULT_TAG  # noqa: E402
from bench_e2e.workloads import DEFAULT_SEED, NOMINAL_SECONDS, Workload  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("ms_per_step", "ms"),
    ("atom_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
CHILD_TIMEOUT_S = 170
#: a single-workload invocation adds set-up-only children up to this many
#: set-up samples, unless set-up alone has already cost this many seconds
#: (melt_autotune's search); the driver's time cap leaves no room for more
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 5.0
FULL_REPEATS = 5
REFERENCE_REL_TOL = 1e-5


# ------------------------------------------------------------------ one child
@dataclass
class Sample:
    """What one child process printed and stamped."""

    workload: str
    steps: int | None  # None: set-up only (script ends at ``run 0``)
    columns: list[str] = field(default_factory=list)
    rows: list[list] = field(default_factory=list)  # [step, value...] as printed
    stamps: dict | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def timed(self) -> dict:
        return self.stamps["runs"][-1]

    @property
    def setup_s(self) -> float:
        # entry of ``run N``; a set-up-only script ends where it would be
        return self.timed["enter"] if self.steps is not None else self.timed["exit"]

    @property
    def loop_s(self) -> float:
        return self.timed["exit"] - self.timed["enter"]

    def end_to_end(self, w: Workload) -> dict[str, float]:
        return {
            "setup_s": self.setup_s,
            "ms_per_step": 1000.0 * self.loop_s / self.steps,
            "atom_steps_per_s": w.atoms * w.replicas * self.steps / self.loop_s,
            "peak_rss_mb": self.stamps["peak_rss_mb"],
        }


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A directory for generated inputs under ``out/``, removed on exit."""
    os.makedirs(OUT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=OUT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # the box has 2 cores; un-pinned BLAS showed user > real time
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    return env


def parse_thermo(stdout: str) -> tuple[list[str], list[list]]:
    """Thermo header and rows exactly as a user sees them."""
    columns: list[str] = []
    rows: list[list] = []
    for line in stdout.splitlines():
        tokens = line.split()
        if tokens and tokens[0] == "Step":
            columns = tokens[1:]
        elif columns and len(tokens) == len(columns) + 1 and tokens[0].isdigit():
            row: list = [int(tokens[0])]
            for token in tokens[1:]:
                try:
                    row.append(float(token))
                except ValueError:
                    row.append(token)  # the autotuner's label column
            rows.append(row)
    return columns, rows


def run_child(w: Workload, seed: int, steps: int | None, workdir: str,
              trace_path: str | None = None) -> Sample:
    """Render the inputs, run one child to completion, parse its output."""
    sample = Sample(w.name, steps)
    argv = workloads.render(w, seed, steps, workdir)
    cmd = [sys.executable, "-m", "bench_e2e.child"]
    if trace_path is not None:
        cmd += ["--trace", trace_path]
    try:
        proc = subprocess.run(
            cmd + ["--", *argv], cwd=ROOT, env=child_env(), text=True,
            capture_output=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sample.failures.append(f"timed out after {CHILD_TIMEOUT_S} s")
        return sample
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith(RESULT_TAG):
        error = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        sample.failures.append(f"exit {proc.returncode}: {error}")
        return sample
    sample.stamps = json.loads(lines[-1][len(RESULT_TAG):])
    sample.columns, sample.rows = parse_thermo(proc.stdout)
    return sample


# --------------------------------------------------------------------- checks
def load_reference(name: str) -> dict | None:
    path = os.path.join(HERE, "reference", f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def rows_mismatch(columns: list[str], rows: list[list],
                  ref_columns: list[str], ref_rows: list[list]) -> str | None:
    """First disagreement on the steps and columns both sides printed.

    Tolerance: ``REFERENCE_REL_TOL`` plus one unit of the sixth printed digit.
    """
    ref_by_step = {r[0]: r for r in ref_rows}
    shared = [c for c in columns if c in ref_columns]
    compared = 0
    for row in rows:
        ref = ref_by_step.get(row[0])
        if ref is None:
            continue
        compared += 1
        for col in shared:
            got, want = row[1 + columns.index(col)], ref[1 + ref_columns.index(col)]
            if isinstance(want, str) or isinstance(got, str):
                continue  # the autotuner's label column is not physics
            digit = 10.0 ** (math.floor(math.log10(abs(want))) - 5) if want else 1e-12
            if abs(got - want) > REFERENCE_REL_TOL * abs(want) + digit:
                return f"step {row[0]} {col}: {got!r} != {want!r}"
    return None if compared else "no step in common with the reference"


def check(w: Workload, sample: Sample, seed: int | None,
          same_rows: tuple[list[str], list[list]] | None = None) -> None:
    """Append to ``sample.failures`` every way this run's output is wrong.

    ``seed`` selects the committed reference (default seed only); pass None
    for a variant of a workload (probe, sweep size) that has no reference.
    """
    if sample.stamps is None:
        return
    fail = sample.failures.append
    runs = sample.stamps["runs"]
    expected_runs = [0] if sample.steps is None else [0, sample.steps]
    if [r["steps"] for r in runs] != expected_runs:
        fail(f"ran {[r['steps'] for r in runs]}, script says {expected_runs}")
        return
    if any(r["atoms"] != w.atoms * w.replicas for r in runs):
        fail(f"atoms {[r['atoms'] for r in runs]} != {w.atoms * w.replicas}: lost atoms")
    bad = [v for row in sample.rows for v in row[1:]
           if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        fail(f"non-finite thermo value {bad[0]}")
    # ``run 0`` prints one row; the rest belong to the timed run
    rows = sample.rows[1:]
    if sample.steps is not None:
        steps_printed = [r[0] for r in rows]
        if steps_printed != list(range(0, sample.steps + 1, w.thermo)):
            fail(f"thermo rows at {steps_printed}, expected every {w.thermo} to {sample.steps}")
        elif "etotal" in sample.columns:
            col = 1 + sample.columns.index("etotal")
            drift = abs(rows[-1][col] - rows[0][col]) / abs(rows[0][col])
            if not drift <= w.drift_ceiling:
                fail(f"NVE drift |dE/E| = {drift:.3g} over {sample.steps} steps "
                     f"> {w.drift_ceiling:g}")
    if seed == DEFAULT_SEED and rows:
        ref = load_reference(w.name)
        if ref is None:
            fail("no committed reference for the default seed")
        else:
            miss = rows_mismatch(sample.columns, rows, ref["columns"], ref["rows"])
            if miss:
                fail(f"reference/{w.name}.json: {miss}")
    if same_rows is not None and rows:
        miss = rows_mismatch(sample.columns, rows, *same_rows)
        if miss:
            fail(f"rows differ from {w.same_rows_as}: {miss}")


# --------------------------------------------------------- traced measurement
def traced_metrics(w: Workload, seed: int, steps: int, workdir: str,
                   untraced: Sample) -> tuple[Sample, dict[str, float]]:
    """One traced child; per-layer metrics against an untraced sample."""
    trace_path = os.path.join(OUT, f"{w.name}.trace.json")
    sample = run_child(w, seed, steps, workdir, trace_path=trace_path)
    check(w, sample, seed)
    if not sample.ok:
        return sample, {}
    with open(trace_path) as fh:
        trace = json.load(fh)
    metrics = layers.per_layer_metrics(
        trace["names"], trace["spans"], trace["runs"], untraced.stamps,
        untraced.end_to_end(w)["ms_per_step"],
    )
    if metrics["trace.closure_error_pct"] > 1.0:
        sample.failures.append(
            f"layer spans + unaccounted miss the wall of run N by "
            f"{metrics['trace.closure_error_pct']:.2f} %")
    return sample, metrics


# ------------------------------------------------- one workload (the contract)
def measure_one(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """``--workload``: the result object the last stdout line carries."""
    steps = workloads.scaled_steps(w, seconds)
    samples: list[Sample] = []
    with scratch_dir(f"{w.name}-") as workdir:
        timed = run_child(w, seed, steps, workdir)
        check(w, timed, seed)
        samples.append(timed)
        if timed.stamps is None:
            raise SystemExit(f"bench_e2e: {w.name}: {timed.failures[0]}")
        if trace:
            traced, values = traced_metrics(w, seed, steps, workdir, timed)
            samples.append(traced)
            if not values:
                raise SystemExit(f"bench_e2e: {w.name} traced: {traced.failures[0]}")
            units = layers.UNITS
        else:
            values = timed.end_to_end(w)
            setups = [timed.setup_s]
            while len(setups) < SETUP_SAMPLES and sum(setups) < SETUP_BUDGET_S:
                extra = run_child(w, seed, None, workdir)
                check(w, extra, seed)
                samples.append(extra)
                if extra.stamps is None:
                    break
                setups.append(extra.setup_s)
            values["setup_s"] = statistics.median(setups)
            units = dict(END_TO_END)
    for sample in samples:
        for failure in sample.failures:
            print(f"FAILED {sample.workload}: {failure}", file=sys.stderr)
    failed = sum(not s.ok for s in samples)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


# ------------------------------------------------------------ robustness probes
def probe_matrix() -> list[tuple[str, Workload]]:
    """{melt, eam, hns, tantalum} x {host, kk} x {1, 2 ranks}, each <= ~2 s.

    A probe passes if it completes with finite thermo and every atom.
    """
    by = workloads.BY_NAME
    small = (
        dataclasses.replace(by["melt"], cells=5, atoms=500, steps=50),
        dataclasses.replace(by["eam"], cells=4, atoms=256, steps=100),
        dataclasses.replace(by["hns"], cells=(2, 3, 3), atoms=108, steps=20),
        dataclasses.replace(by["tantalum"], cells=4, atoms=128, steps=2, thermo=2),
    )
    probes = []
    for base in small:
        for kk in (False, True):
            for ranks in (1, 2):
                flags = (("-k", "on", "-sf", "kk") if kk else ()) \
                    + (("-np", str(ranks)) if ranks > 1 else ())
                label = f"{base.name}{'+kk' if kk else ''}+np{ranks}"
                probes.append((label, dataclasses.replace(
                    base, flags=flags, drift_ceiling=math.inf, same_rows_as=None)))
    return probes


def run_probes(seed: int, workdir: str) -> list[dict]:
    results = []
    for label, w in probe_matrix():
        sample = run_child(w, seed, w.steps, workdir)
        check(w, sample, seed=None)
        results.append({"probe": label, "ok": sample.ok, "failures": sample.failures})
        print(f"  probe {label:<18} {'ok' if sample.ok else 'FAILED: ' + sample.failures[0]}",
              flush=True)
    return results


# ------------------------------------------------------------ the one command
def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                  else [values[0]] * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_all(selected: list[Workload], seed: int, seconds: float, repeats: int,
            probes: bool) -> dict:
    """Every workload: ``repeats`` timed children in interleaved rounds (the
    order rotated each round), one traced child each, then the probes."""
    samples: dict[str, list[Sample]] = {w.name: [] for w in selected}
    per_layer: dict[str, dict] = {}
    failures: list[str] = []
    attempted = failed = 0
    with scratch_dir("all-") as workdir:
        for rnd in range(repeats):
            for w in selected[rnd % len(selected):] + selected[: rnd % len(selected)]:
                steps = workloads.scaled_steps(w, seconds)
                sample = run_child(w, seed, steps, workdir)
                same = None
                if w.same_rows_as and samples.get(w.same_rows_as):
                    other = samples[w.same_rows_as][-1]
                    same = (other.columns, other.rows[1:]) if other.ok else None
                check(w, sample, seed, same)
                samples[w.name].append(sample)
                attempted += 1
                failed += not sample.ok
                failures += [f"{w.name} (round {rnd}): {f}" for f in sample.failures]
                status = "ok" if sample.ok else "FAILED: " + sample.failures[0]
                ms = sample.end_to_end(w)["ms_per_step"] if sample.stamps else float("nan")
                print(f"  round {rnd} {w.name:<14} {ms:10.3f} ms/step  {status}", flush=True)
        for w in selected:
            good = [s for s in samples[w.name] if s.ok]
            if not good:
                continue
            steps = workloads.scaled_steps(w, seconds)
            untraced = sorted(good, key=lambda s: s.loop_s)[len(good) // 2]
            traced, per_layer[w.name] = traced_metrics(w, seed, steps, workdir, untraced)
            attempted += 1
            failed += not traced.ok
            failures += [f"{w.name} (traced): {f}" for f in traced.failures]
            print(f"  traced  {w.name:<14} "
                  f"{'ok' if traced.ok else 'FAILED: ' + traced.failures[0]}", flush=True)
        probe_results = run_probes(seed, workdir) if probes else []
    attempted += len(probe_results)
    failed += sum(not p["ok"] for p in probe_results)
    report = {
        "seed": seed,
        # timed-run failures make the command fail; probe failures are
        # reported through failed_share and do not
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": failures,
        "probes": probe_results,
        "workloads": {},
    }
    for w in selected:
        good = [s.end_to_end(w) for s in samples[w.name] if s.ok]
        report["workloads"][w.name] = {
            "steps": workloads.scaled_steps(w, seconds),
            "end_to_end": {name: dict(quartiles([g[name] for g in good]), unit=unit)
                           for name, unit in END_TO_END} if good else {},
            "per_layer": {name: {"value": per_layer[w.name][name], "unit": unit}
                          for name, unit in layers.UNITS.items()} if per_layer.get(w.name) else {},
        }
    return report


def print_report(report: dict) -> None:
    print(f"\nend-to-end metrics (seed {report['seed']}; median [q1, q3] n)")
    for name, entry in report["workloads"].items():
        for metric, v in entry["end_to_end"].items():
            print(f"  {name:<14} {metric:<17} {v['median']:14.6g} {v['unit']:<4} "
                  f"[{v['q1']:.6g}, {v['q3']:.6g}] n={v['n']}")
    print("\nper-layer metrics (one traced run per workload)")
    for name, entry in report["workloads"].items():
        for metric, v in entry["per_layer"].items():
            print(f"  {name:<14} {metric:<38} {v['value']:14.6g} {v['unit']}")
    print(f"\nfailed_share {report['failed_share']:.6g} ratio "
          f"({report['failed']} failed / {report['attempted']} attempted)")
    for failure in report["failures"]:
        print(f"  FAILED run: {failure}")
    for probe in report["probes"]:
        if not probe["ok"]:
            print(f"  FAILED probe {probe['probe']}: {probe['failures'][0]}")


def selfcheck(first: dict, second: dict, bounds: dict[str, tuple[str, float]]) -> list[str]:
    """Disagreements between two sets of runs of the same code."""
    problems = []
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for metric, (better, bound) in bounds.items():
            ma, mb = a["end_to_end"][metric], b["end_to_end"][metric]
            worse = (mb["median"] / ma["median"] - 1.0) * (1 if better == "lower" else -1)
            spread = (ma["q3"] - ma["q1"]) / ma["median"]
            flag = "  <-- spread exceeds bound: widen it" if spread > bound else ""
            print(f"  {name:<14} {metric:<17} {ma['median']:12.6g} [{ma['q1']:.6g}, {ma['q3']:.6g}]"
                  f" vs {mb['median']:12.6g} [{mb['q1']:.6g}, {mb['q3']:.6g}]"
                  f"  second worse by {100 * worse:+.2f} % (bound {100 * bound:.0f} %){flag}")
            if abs(worse) > bound:
                problems.append(f"{name} {metric}: medians differ by {100 * worse:+.2f} %")
        for metric in layers.EXACT_COUNTS:
            va, vb = a["per_layer"][metric]["value"], b["per_layer"][metric]["value"]
            if va != vb:
                problems.append(f"{name} {metric}: {va!r} != {vb!r}")
    return problems


def load_bounds() -> dict[str, tuple[str, float]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def sweep(name: str, seed: int, seconds: float) -> None:
    """``atom_steps_per_s`` against atoms, one repeat per size."""
    if name != "melt":
        raise SystemExit("--sweep supports: melt")
    base = workloads.BY_NAME["melt"]
    with scratch_dir("sweep-") as workdir:
        rows = []
        print(f"{'atoms':>8} {'ms_per_step':>12} {'atom_steps_per_s':>17}")
        for cells in (6, 8, 12, 16):
            w = dataclasses.replace(base, cells=cells, atoms=4 * cells**3)
            sample = run_child(w, seed, workloads.scaled_steps(w, seconds), workdir)
            check(w, sample, seed=None)
            if not sample.ok:
                raise SystemExit(f"sweep {cells}^3: {sample.failures[0]}")
            e2e = sample.end_to_end(w)
            print(f"{w.atoms:>8} {e2e['ms_per_step']:>12.3f} {e2e['atom_steps_per_s']:>17.1f}",
                  flush=True)
            rows.append(dict(e2e, atoms=w.atoms, steps=sample.steps))
        print(json.dumps({"sweep": name, "seed": seed, "rows": rows}))


def write_reference(seconds: float) -> None:
    """Regenerate ``reference/*.json`` (rows the default seed prints)."""
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    with scratch_dir("ref-") as workdir:
        for w in workloads.WORKLOADS:
            steps = workloads.scaled_steps(w, seconds)
            sample = run_child(w, DEFAULT_SEED, steps, workdir)
            check(w, sample, seed=None)
            if not sample.ok:
                raise SystemExit(f"{w.name}: {sample.failures[0]}")
            rows = ",\n  ".join(json.dumps(row) for row in sample.rows[1:])
            with open(os.path.join(HERE, "reference", f"{w.name}.json"), "w") as fh:
                fh.write(f'{{"seed": {DEFAULT_SEED}, "steps": {steps},\n'
                         f' "columns": {json.dumps(sample.columns)},\n'
                         f' "rows": [\n  {rows}\n ]}}\n')
            print(f"reference/{w.name}.json: {len(sample.rows) - 1} rows")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w.name for w in workloads.WORKLOADS],
                   help="measure one workload and print one JSON result line")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                   help="length of the timed loop the step counts are sized for "
                   f"(default {NOMINAL_SECONDS}; scales every step count)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --workload: 1 prints the per-layer metrics")
    p.add_argument("--selfcheck", action="store_true",
                   help="run everything twice; exit 1 unless the two agree")
    p.add_argument("--sweep", metavar="NAME", help="size sweep of one workload (melt)")
    p.add_argument("--quick", action="store_true",
                   help="smoke: melt_replicas and hns, tiny step counts, no probes")
    p.add_argument("--write-reference", action="store_true",
                   help="regenerate reference/*.json from the default seed")
    args = p.parse_args(argv)

    if args.workload:
        result = measure_one(workloads.BY_NAME[args.workload], args.seed,
                             args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    if args.sweep:
        sweep(args.sweep, args.seed, args.seconds)
        return 0
    if args.write_reference:
        write_reference(args.seconds)
        return 0

    selected = list(workloads.WORKLOADS)
    seconds, repeats, probes = args.seconds, FULL_REPEATS, True
    if args.quick:
        selected = [workloads.BY_NAME["melt_replicas"], workloads.BY_NAME["hns"]]
        seconds, repeats, probes = 0.0, 2, False
    report = run_all(selected, args.seed, seconds, repeats, probes)
    print_report(report)
    if args.selfcheck:
        second = run_all(selected, args.seed, seconds, repeats, probes)
        print_report(second)
        print("\nselfcheck: first set vs second set")
        problems = selfcheck(report, second, load_bounds())
        for problem in problems:
            print(f"  DISAGREE {problem}")
        report = dict(second, correct=report["correct"] and second["correct"] and not problems)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
