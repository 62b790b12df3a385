"""Tests of the benchmark harness itself.

Outside tier-1's ``testpaths``; run explicitly::

    python -m pytest bench_e2e/test_harness.py -q

The subprocess tests drive ``run.py`` exactly as a user or the driver would,
on the two cheapest workloads with tiny step counts.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from bench_e2e import layers, run, workloads
from bench_e2e.trace import Tracer

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN_PY = os.path.join(run.HERE, "run.py")


def run_py(*args: str) -> dict:
    proc = subprocess.run([sys.executable, RUN_PY, *args], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ------------------------------------------------------------- the one command
def test_quick_smoke_schema():
    report = run_py("--quick")
    assert report["correct"] and report["failed"] == 0
    assert set(report["workloads"]) == {"melt_replicas", "hns"}
    for entry in report["workloads"].values():
        assert list(entry["end_to_end"]) == [n for n, _ in run.END_TO_END]
        for value in entry["end_to_end"].values():
            assert set(value) == {"unit", "median", "q1", "q3", "n"}
            assert value["n"] == 2 and value["q1"] <= value["median"] <= value["q3"]
            assert value["median"] > 0
        assert list(entry["per_layer"]) == list(layers.UNITS)
        assert entry["per_layer"]["trace.closure_error_pct"]["value"] < 1.0
    hns = report["workloads"]["hns"]["per_layer"]
    assert hns["qeq.iterations_per_solve"]["value"] > 1
    assert hns["comm.messages_per_step"]["value"] > 1
    replicas = report["workloads"]["melt_replicas"]["per_layer"]
    assert replicas["replica.share"]["value"] > 0.3


def test_limits_and_names():
    names = ([w.name for w in workloads.WORKLOADS] + [n for n, _ in run.END_TO_END]
             + list(layers.UNITS))
    assert all(NAME_RE.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert len(workloads.WORKLOADS) <= 8
    assert len(run.END_TO_END) <= 16
    assert len(layers.PER_LAYER) <= 128
    assert set(layers.EXACT_COUNTS) <= set(layers.UNITS)


# ---------------------------------------------------- the driver's invocation
@pytest.mark.parametrize("trace", ["0", "1"])
def test_single_workload_contract(trace):
    result = run_py("--workload", "melt_replicas", "--seed", "7",
                    "--seconds", "0", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = benchmark_json()
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_benchmark_json_matches_the_code():
    spec = benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench_e2e"]
    assert spec["run_seconds"] == workloads.NOMINAL_SECONDS
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in workloads.WORKLOADS]
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    # the issue's floors on the committed step counts
    for w in workloads.WORKLOADS:
        assert w.steps >= (15 if w.name == "tantalum" else 100)
        assert w.steps % w.thermo == 0


# ------------------------------------------------------- generated inputs
def test_inputs_are_a_function_of_the_seed(tmp_path):
    for w in workloads.WORKLOADS:
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(exist_ok=True), b.mkdir(exist_ok=True)
        argv_a = workloads.render(w, 5, w.steps, str(a))
        argv_b = workloads.render(w, 5, w.steps, str(b))
        assert argv_a[2:] == argv_b[2:] == list(w.flags)
        # the data-file path is the only thing that may differ
        text = lambda d: {f: (d / f).read_text().replace(str(d), "") for f in os.listdir(d)}
        assert text(a) == text(b)
        assert workloads.script_text(w, 5, w.steps) != workloads.script_text(w, 6, w.steps)
    hns = workloads.BY_NAME["hns"]
    assert workloads.hns_data_text(hns.cells, 5) != workloads.hns_data_text(hns.cells, 6)


def test_script_shape():
    w = workloads.BY_NAME["melt_replicas"]
    text = workloads.script_text(w, 3, 150)
    assert text.endswith("run             0\nrun             150\n")
    assert f"velocity        all create 1.44 {workloads.velocity_seed(3)}${{replica}}" in text
    assert workloads.script_text(w, 3, None).endswith("run             0\n")
    assert workloads.scaled_steps(w, 0) == w.thermo
    assert workloads.scaled_steps(w, workloads.NOMINAL_SECONDS) == w.steps
    assert workloads.scaled_steps(w, 2 * workloads.NOMINAL_SECONDS) == 2 * w.steps


# ------------------------------------------------------------- output checks
def test_references_same_physics_through_other_paths():
    melt = run.load_reference("melt")
    for name in ("melt_np4", "melt_kk"):
        other = run.load_reference(name)
        assert run.rows_mismatch(other["columns"], other["rows"],
                                 melt["columns"], melt["rows"]) is None
        assert workloads.BY_NAME[name].same_rows_as == "melt"
    for w in workloads.WORKLOADS:
        ref = run.load_reference(w.name)
        assert ref["seed"] == workloads.DEFAULT_SEED and ref["steps"] >= w.steps


def test_rows_mismatch_tolerance():
    cols = ["temp", "pe"]
    ref = [[0, 1.44, -46817.5], [50, 0.738717, -39602.7]]
    assert run.rows_mismatch(cols, [[50, 0.738718, -39602.7]], cols, ref) is None  # last digit
    assert "temp" in run.rows_mismatch(cols, [[50, 0.7388, -39602.7]], cols, ref)
    assert "pe" in run.rows_mismatch(cols, [[0, 1.44, -46827.5]], cols, ref)
    assert "no step in common" in run.rows_mismatch(cols, [[7, 1.0, 1.0]], cols, ref)


def test_check_flags_bad_output():
    w = workloads.BY_NAME["melt"]
    stamps = {"runs": [{"steps": 0, "enter": 1.0, "exit": 1.2, "atoms": w.atoms},
                       {"steps": 100, "enter": 1.3, "exit": 5.3, "atoms": w.atoms}]}
    good_rows = [[0, -100.0], [0, -100.0], [50, -100.01], [100, -100.02]]

    def failures(rows=good_rows, stamps=stamps):
        sample = run.Sample("melt", 100, ["etotal"], [list(r) for r in rows], stamps)
        run.check(w, sample, seed=None)
        return " ".join(sample.failures)

    assert failures() == ""
    assert "non-finite" in failures([[0, -100.0], [0, -100.0], [50, float("nan")], [100, -100.0]])
    assert "NVE drift" in failures([[0, -100.0], [0, -100.0], [50, -100.0], [100, -90.0]])
    assert "thermo rows" in failures(good_rows[:3])
    lost = {"runs": [stamps["runs"][0], dict(stamps["runs"][1], atoms=w.atoms - 1)]}
    assert "lost atoms" in failures(stamps=lost)


def test_parse_thermo_reads_what_a_user_sees():
    out = ("Step           temp             pe tune\n"
           "   0           1.44       -46817.5 sg/half\n"
           "Loop time of 4.5 s on 1 simulated rank(s) for 100 steps with 6912 atoms\n"
           " 100       0.755752            nan sg/half\n")
    columns, rows = run.parse_thermo(out)
    assert columns == ["temp", "pe", "tune"]
    assert rows[0] == [0, 1.44, -46817.5, "sg/half"]
    assert rows[1][0] == 100 and rows[1][2] != rows[1][2]  # NaN is kept, for check()


# ------------------------------------------------- the generator-aware tracer
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def spans_named(tracer: Tracer, name: str) -> list[list]:
    nid = tracer.names.index(name)
    return [s for s in tracer.spans if s[layers.NAME] == nid]


def test_plain_call_span_and_count():
    tracer = Tracer(FakeClock())
    inner = tracer.wrap("pair.tally", lambda: 7)
    outer = tracer.wrap("pair.compute", lambda n: inner() + n,
                        count=lambda args, kwargs, result: result)
    assert outer(1) == 8
    (o,), (i,) = spans_named(tracer, "pair.compute"), spans_named(tracer, "pair.tally")
    assert o[layers.PARENT] == -1 and i[layers.PARENT] == tracer.spans.index(o)
    assert o[layers.START] < i[layers.START] < i[layers.END] < o[layers.END]
    assert o[layers.COUNT] == 8 and tracer._stack == []


def test_nested_generators_one_span_per_resume():
    tracer = Tracer(FakeClock())

    def exchange():
        yield "send"
        yield "recv"

    def rebuild():
        yield from traced_exchange()
        yield "build"
        return "list"

    traced_exchange = tracer.wrap("comm.exchange", exchange)
    traced_rebuild = tracer.wrap("neighbor.rebuild", rebuild)

    def driver():
        result = yield from traced_rebuild()
        assert result == "list"  # return values pass through the wrapper

    assert list(driver()) == ["send", "recv", "build"]
    rebuilds = spans_named(tracer, "neighbor.rebuild")
    exchanges = spans_named(tracer, "comm.exchange")
    # rebuild resumed 4 times (3 yields + the return), exchange 3 (2 + return)
    assert len(rebuilds) == 4 and len(exchanges) == 3
    assert len({s[layers.CALL] for s in rebuilds}) == 1
    # every exchange piece lies inside the rebuild piece that resumed it
    for piece in exchanges:
        parent = tracer.spans[piece[layers.PARENT]]
        assert parent in rebuilds
        assert parent[layers.START] < piece[layers.START] < piece[layers.END] < parent[layers.END]
    assert tracer._stack == []


def test_interleaved_resumes_are_not_charged_to_the_wrong_rank():
    """Two ranks in lockstep: while rank 0 is parked at a yield, rank 1's
    work must not land inside rank 0's span."""
    clock = FakeClock()
    tracer = Tracer(clock)

    def forward_comm(cost):
        clock.now += cost  # pack + send
        yield
        clock.now += cost  # recv + unpack

    traced = tracer.wrap("comm.forward", forward_comm)
    gens = [traced(10.0), traced(1000.0)]
    live = list(gens)
    while live:  # the lockstep driver
        for gen in list(live):
            try:
                next(gen)
            except StopIteration:
                live.remove(gen)
    by_call: dict[int, float] = {}
    for s in spans_named(tracer, "comm.forward"):
        by_call[s[layers.CALL]] = by_call.get(s[layers.CALL], 0.0) + s[layers.END] - s[layers.START]
    cheap, dear = sorted(by_call.values())
    assert 20.0 <= cheap < 30.0  # its own 2 x 10 plus clock ticks, none of rank 1's 2000
    assert 2000.0 <= dear < 2010.0
    assert all(s[layers.PARENT] == -1 for s in tracer.spans)


def test_exceptions_close_spans():
    tracer = Tracer(FakeClock())

    def boom():
        raise ValueError("bad input")

    def gen_boom():
        yield 1
        raise KeyError("mid-run")

    traced_boom = tracer.wrap("pair.compute", boom)
    outer = tracer.wrap("neighbor.rebuild", lambda: traced_boom())
    with pytest.raises(ValueError):
        outer()
    assert tracer._stack == []
    gen = tracer.wrap("comm.borders", gen_boom)()
    assert next(gen) == 1
    with pytest.raises(KeyError):
        next(gen)
    assert tracer._stack == []
    assert all(s[layers.END] >= s[layers.START] > 0 for s in tracer.spans)
    # closing a parked generator closes the wrapped one too
    closed = []

    def parked():
        try:
            yield 1
        finally:
            closed.append(True)

    gen = tracer.wrap("comm.forward", parked)()
    next(gen)
    gen.close()
    assert closed == [True] and tracer._stack == []


# --------------------------------------------------------- span arithmetic
def budget_of(tree: list[tuple]) -> layers.Budget:
    """``tree`` rows: (name, start, end, parent)."""
    names = sorted({row[0] for row in tree})
    spans = [[names.index(n), a, b, p, k, 0] for k, (n, a, b, p) in enumerate(tree)]
    return layers.Budget(names, spans, 0)


def test_attribution_is_an_exact_partition():
    b = budget_of([
        ("run", 0.0, 100.0, -1),
        ("neighbor.rebuild", 10.0, 40.0, 0),
        ("comm.exchange", 12.0, 17.0, 1),   # comm inside neighbor: comm's
        ("neighbor.build", 20.0, 38.0, 1),
        ("pair.compute", 40.0, 90.0, 0),
        ("segment.scatter", 50.0, 60.0, 4),  # detail: rolls up into pair
        ("pair.tally", 60.0, 75.0, 4),
        ("comm.forward_field", 76.0, 80.0, 4),  # in-style comm: comm's
        ("kokkos.dispatch", 92.0, 95.0, 0),  # detail under the root: unaccounted
    ])
    assert b.wall == 100.0
    assert b.layer_time["neighbor"] == pytest.approx(25.0)
    assert b.layer_time["comm"] == pytest.approx(9.0)
    assert b.layer_time["pair"] == pytest.approx(46.0)
    assert b.layer_time[layers.UNACCOUNTED] == pytest.approx(20.0)
    assert sum(b.layer_time.values()) == pytest.approx(b.wall)
    assert b.own_time("pair.tally") == pytest.approx(15.0)
    assert b.own_time("segment.scatter") == pytest.approx(10.0)
    assert b.own_time("pair.compute") == pytest.approx(46.0)  # minus the in-style comm
    assert b.own_time("neighbor.rebuild") == pytest.approx(25.0)


def test_same_named_nesting_is_counted_once():
    b = budget_of([
        ("run", 0.0, 10.0, -1),
        ("pair.compute", 1.0, 9.0, 0),
        ("pair.compute", 2.0, 8.0, 1),  # a subclass calling super().compute()
    ])
    assert b.select("pair.compute") == [1]
    assert b.own_time("pair.compute") == pytest.approx(8.0)
    assert b.layer_time["pair"] == pytest.approx(8.0)


def test_budget_ignores_spans_after_the_root():
    names = ["run", "pair.compute"]
    spans = [[0, 0.0, 10.0, -1, 0, 0], [1, 1.0, 4.0, 0, 1, 0],
             [0, 20.0, 30.0, -1, 2, 0], [1, 21.0, 29.0, 2, 3, 0]]
    first = layers.Budget(names, spans, 0)
    assert len(first.spans) == 2 and first.layer_time["pair"] == pytest.approx(3.0)
    second = layers.Budget(names, spans, 2)
    assert second.layer_time["pair"] == pytest.approx(8.0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    pct, value = layers.tail_percentile([float(k) for k in range(100)])
    assert pct == pytest.approx(90.0) and value == 90.0
    pct, _ = layers.tail_percentile([float(k) for k in range(5000)])
    assert pct == 99.0
    pct, value = layers.tail_percentile([3.0, 1.0, 2.0])
    assert pct == 50.0 and value == 2.0
