"""Perf-regression sentinel (:mod:`repro.bench.sentinel`) + bench stats.

Synthetic BENCH-style payloads pin the verdict logic: within-noise drift is
ok, beyond-band slowdowns are regressions (verdict fail, CLI exit 1),
speedups are improvements, schema problems fail closed, and the noise band
widens with the recorded stdev.  Also covers the shared stats helpers
(:mod:`repro.bench.stats`) the benches use to record repeat statistics.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.sentinel import compare, format_verdict, run_sentinel
from repro.bench.stats import (
    SCHEMA_VERSION,
    collect_samples,
    measurement_keys,
    summarize,
    validate_bench,
)


# ------------------------------------------------------------------- helpers
def bench(step=0.010, stdev=0.0005, workload="melt", benchmark="hotpath"):
    """A minimal schema-v2 bench payload with one measurement, two modes."""
    block = {
        "min": step,
        "median": step * 1.05,
        "stdev": stdev,
        "repeats": 10,
    }
    return {
        "benchmark": benchmark,
        "units": "seconds",
        "schema_version": SCHEMA_VERSION,
        "workloads": [
            {
                "workload": workload,
                "step_seconds": {"atomic": step * 1.3, "segmented": step},
                "step_stats": {
                    "atomic": dict(block, min=step * 1.3, median=step * 1.3 * 1.05),
                    "segmented": dict(block),
                },
            }
        ],
    }


# --------------------------------------------------------------------- stats
class TestStats:
    def test_summarize(self):
        s = summarize([3.0, 1.0, 2.0])
        assert s["min"] == 1.0
        assert s["median"] == 2.0
        assert s["repeats"] == 3
        assert s["stdev"] == pytest.approx(1.0)

    def test_summarize_single_sample_zero_stdev(self):
        assert summarize([4.2])["stdev"] == 0.0

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_collect_samples_counts_and_warmup(self):
        calls = []
        samples = collect_samples(lambda: calls.append(1), 5)
        assert len(samples) == 5
        assert len(calls) == 6  # one warmup + five timed
        assert all(s >= 0 for s in samples)

    def test_measurement_keys(self):
        row = bench()["workloads"][0]
        assert measurement_keys(row) == ["step_seconds"]
        # stats blocks and scalars are not measurements
        row["natoms"] = 100
        row["rebuild_speedup"] = 2.0
        assert measurement_keys(row) == ["step_seconds"]

    def test_validate_bench_accepts_good_payload(self):
        validate_bench(bench())

    def test_validate_bench_rejects_old_schema(self):
        payload = bench()
        payload["schema_version"] = 1
        with pytest.raises(ValueError, match="rebless"):
            validate_bench(payload)

    def test_validate_bench_rejects_missing_stats(self):
        payload = bench()
        del payload["workloads"][0]["step_stats"]
        with pytest.raises(ValueError, match="step_stats"):
            validate_bench(payload)

    def test_validate_bench_rejects_point_stats_disagreement(self):
        payload = bench()
        payload["workloads"][0]["step_seconds"]["segmented"] *= 2
        with pytest.raises(ValueError, match="disagrees"):
            validate_bench(payload)

    def test_committed_baselines_validate(self):
        """The checked-in BENCH_*.json files must match the live schema."""
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        for name in ("BENCH_hotpath.json", "BENCH_qeq.json"):
            with open(root / name) as fh:
                validate_bench(json.load(fh))


# ------------------------------------------------------------------- compare
class TestCompare:
    def test_identical_passes(self):
        v = compare(bench(), bench())
        assert v["verdict"] == "pass"
        assert v["regressions"] == 0
        assert v["checked"] == 2  # two modes of one measurement

    def test_within_noise_drift_is_ok(self):
        v = compare(bench(step=0.011), bench(step=0.010))  # +10% < 35% floor
        assert v["verdict"] == "pass"
        assert all(c["status"] == "ok" for c in v["comparisons"])

    def test_beyond_band_regression_fails(self):
        v = compare(bench(step=0.020), bench(step=0.010))  # 2x slower
        assert v["verdict"] == "fail"
        assert v["regressions"] == 2
        worst = next(c for c in v["comparisons"] if c["mode"] == "segmented")
        assert worst["status"] == "regressed"
        assert worst["ratio"] == pytest.approx(2.0)

    def test_improvement_reported_but_passes(self):
        v = compare(bench(step=0.004), bench(step=0.010))
        assert v["verdict"] == "pass"
        assert v["improvements"] == 2

    def test_band_widens_with_recorded_stdev(self):
        # 60% slower: regression at the 35% floor, but a noisy baseline
        # (cv ~0.38 -> band ~1.14) absorbs it
        noisy = bench(step=0.010, stdev=0.004)
        v_quiet = compare(bench(step=0.016), bench(step=0.010))
        v_noisy = compare(bench(step=0.016, stdev=0.004), noisy)
        assert v_quiet["verdict"] == "fail"
        assert v_noisy["verdict"] == "pass"

    def test_rel_floor_override(self):
        quiet_fresh = bench(step=0.011, stdev=0.0001)
        quiet_base = bench(step=0.010, stdev=0.0001)
        v = compare(quiet_fresh, quiet_base, rel_floor=0.05)
        assert v["verdict"] == "fail"  # 10% > 5% floor (stdev band is ~3%)

    def test_new_and_missing_workloads_do_not_fail(self):
        fresh, baseline = bench(), bench()
        fresh["workloads"].append(
            {"workload": "extra", "step_seconds": {"a": 1.0},
             "step_stats": {"a": summarize([1.0])}}
        )
        baseline["workloads"].append(
            {"workload": "gone", "step_seconds": {"a": 1.0},
             "step_stats": {"a": summarize([1.0])}}
        )
        v = compare(fresh, baseline)
        assert v["verdict"] == "pass"
        statuses = {c["status"] for c in v["comparisons"]}
        assert "new" in statuses and "missing" in statuses

    def test_invalid_baseline_fails_closed(self):
        bad = bench()
        del bad["workloads"][0]["step_stats"]
        v = compare(bench(), bad)
        assert v["verdict"] == "fail"
        assert "baseline bench failed validation" in v["error"]

    def test_benchmark_mismatch_fails(self):
        v = compare(bench(benchmark="hotpath"), bench(benchmark="neighbor"))
        assert v["verdict"] == "fail"
        assert "mismatch" in v["error"]

    def test_format_verdict_mentions_regressions(self):
        v = compare(bench(step=0.020), bench(step=0.010))
        text = format_verdict(v)
        assert "FAIL" in text
        assert "regressed" in text
        assert "melt.step_seconds" in text


# ----------------------------------------------------------------------- CLI
class TestCLI:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_run_sentinel_writes_verdict(self, tmp_path, capsys):
        fresh = self._write(tmp_path, "fresh.json", bench())
        base = self._write(tmp_path, "base.json", bench())
        out = tmp_path / "verdict.json"
        v = run_sentinel(fresh, base, out_path=str(out))
        assert v["verdict"] == "pass"
        assert json.loads(out.read_text())["verdict"] == "pass"
        assert "PASS" in capsys.readouterr().out

    def test_main_cli_exit_codes(self, tmp_path):
        from repro.__main__ import main

        base = self._write(tmp_path, "base.json", bench(step=0.010))
        ok = self._write(tmp_path, "ok.json", bench(step=0.011))
        slow = self._write(tmp_path, "slow.json", bench(step=0.030))
        assert main(["--sentinel", ok, base, "--quiet"]) == 0
        out = tmp_path / "verdict.json"
        assert main(
            ["--sentinel", slow, base, "--quiet",
             "--sentinel-out", str(out)]
        ) == 1
        assert json.loads(out.read_text())["regressions"] == 2

    def test_main_cli_rel_floor(self, tmp_path):
        from repro.__main__ import main

        base = self._write(tmp_path, "base.json", bench(step=0.010, stdev=0.0001))
        drift = self._write(tmp_path, "drift.json", bench(step=0.011, stdev=0.0001))
        assert main(
            ["--sentinel", drift, base, "--quiet", "--rel-floor", "0.05"]
        ) == 1

    def test_module_entry_point(self, tmp_path):
        from repro.bench.sentinel import main as sentinel_main

        base = self._write(tmp_path, "base.json", bench())
        fresh = self._write(tmp_path, "fresh.json", bench(step=0.030))
        assert sentinel_main([fresh, base]) == 1
