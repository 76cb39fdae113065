#!/usr/bin/env python3
"""Unit tests for scripts/check_bench_regression.py — the bench gate is
load-bearing CI infrastructure, so its modes (machine-relative anchor,
best-of-repetitions, noise floor, thread-context skip, and the coarse
absolute wall_ms bound) are pinned here. Registered with ctest as
`test_bench_gate`."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts",
    "check_bench_regression.py",
)


def bench_doc(series, threads="1", reps=3, wall_ms=None, counters=None):
    """A minimal google-benchmark JSON document. `series` maps name ->
    real_time in us; each series gets `reps` raw repetition entries with
    a tiny jitter so best-of-N has something to pick from. `wall_ms`
    (name -> ms) attaches the run-cost counter; `counters` (name ->
    {counter: value}) attaches arbitrary counters (e.g. the
    larger-is-better queries_per_sec)."""
    benchmarks = []
    for name, us in series.items():
        for rep in range(reps):
            entry = {
                "name": name,
                "run_type": "iteration",
                "repetition_index": rep,
                "real_time": us * (1.0 + 0.01 * rep),
                "cpu_time": us,
                "time_unit": "us",
            }
            if wall_ms is not None:
                entry["wall_ms"] = wall_ms[name] * (1.0 + 0.01 * rep)
            if counters is not None and name in counters:
                for key, value in counters[name].items():
                    # Jitter downward so max-of-reps picks rep 0.
                    entry[key] = value * (1.0 - 0.01 * rep)
            benchmarks.append(entry)
    return {"context": {"cods_threads": threads}, "benchmarks": benchmarks}


class GateTest(unittest.TestCase):
    def run_gate(self, baseline, current, *extra_args):
        """Writes the two docs as BENCH_x.json and runs the gate."""
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = os.path.join(tmp, "baselines")
            cur_dir = os.path.join(tmp, "current")
            os.makedirs(base_dir)
            os.makedirs(cur_dir)
            with open(os.path.join(base_dir, "BENCH_x.json"), "w") as f:
                json.dump(baseline, f)
            with open(os.path.join(cur_dir, "BENCH_x.json"), "w") as f:
                json.dump(current, f)
            proc = subprocess.run(
                [sys.executable, SCRIPT, "--baseline-dir", base_dir,
                 "--current-dir", cur_dir, *extra_args],
                capture_output=True, text=True,
            )
            return proc

    # Enough series that the relative anchor is trusted
    # (>= --min-anchor-series).
    BASE = {"BM_a": 100.0, "BM_b": 200.0, "BM_c": 400.0, "BM_d": 800.0}

    def test_bench_file_without_baseline_fails(self):
        # BENCH_x.json has a baseline, BENCH_y.json does not: the gate
        # fails and names the file instead of skipping it.
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = os.path.join(tmp, "baselines")
            cur_dir = os.path.join(tmp, "current")
            os.makedirs(base_dir)
            os.makedirs(cur_dir)
            for d, names in ((base_dir, ["x"]), (cur_dir, ["x", "y"])):
                for n in names:
                    with open(os.path.join(d, f"BENCH_{n}.json"), "w") as f:
                        json.dump(bench_doc(self.BASE), f)
            proc = subprocess.run(
                [sys.executable, SCRIPT, "--baseline-dir", base_dir,
                 "--current-dir", cur_dir],
                capture_output=True, text=True,
            )
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("no baseline for BENCH_y.json", proc.stderr)

    def test_identical_runs_pass(self):
        proc = self.run_gate(bench_doc(self.BASE), bench_doc(self.BASE))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("no regressions", proc.stdout)

    def test_single_series_regression_fails(self):
        cur = dict(self.BASE, BM_b=300.0)  # 1.5x, 3 unchanged anchors
        proc = self.run_gate(bench_doc(self.BASE), bench_doc(cur))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("BM_b", proc.stdout)

    def test_uniform_shift_cancels_in_relative_mode(self):
        # Every series 2x slower, wall cost doubled: a slower runner, not
        # a regression — the median anchor absorbs it and the 2x wall
        # ratio sits inside the 4x bound.
        cur = {k: v * 2 for k, v in self.BASE.items()}
        wall = {k: 10.0 for k in self.BASE}
        wall2 = {k: 20.0 for k in self.BASE}
        proc = self.run_gate(bench_doc(self.BASE, wall_ms=wall),
                             bench_doc(cur, wall_ms=wall2))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_wall_bound_catches_across_the_board_collapse(self):
        # Every series AND the wall cost 6x slower: invisible to the
        # relative anchor, caught by the absolute wall_ms backstop.
        cur = {k: v * 6 for k, v in self.BASE.items()}
        wall = {k: 10.0 for k in self.BASE}
        wall6 = {k: 60.0 for k in self.BASE}
        proc = self.run_gate(bench_doc(self.BASE, wall_ms=wall),
                             bench_doc(cur, wall_ms=wall6))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("WALL-BOUND", proc.stdout)
        self.assertIn("<total wall_ms>", proc.stdout)

    def test_wall_bound_ignores_added_and_removed_series(self):
        # New heavy series are allowed to appear (same policy as the
        # timing gate), so they must not trip the bound...
        wall = {k: 10.0 for k in self.BASE}
        cur_series = dict(self.BASE, BM_new=5000.0)
        cur_wall = dict(wall, BM_new=500.0)
        proc = self.run_gate(bench_doc(self.BASE, wall_ms=wall),
                             bench_doc(cur_series, wall_ms=cur_wall))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertNotIn("WALL-BOUND", proc.stdout)
        # ...and dropping series must not mask a collapse of the rest:
        # half the series disappear while the survivors run 6x slower.
        kept = {"BM_a": 600.0, "BM_b": 1200.0}
        kept_wall = {"BM_a": 60.0, "BM_b": 60.0}
        proc = self.run_gate(bench_doc(self.BASE, wall_ms=wall),
                             bench_doc(kept, wall_ms=kept_wall))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("WALL-BOUND", proc.stdout)

    def test_wall_bound_uses_best_of_repetitions(self):
        # Only the LAST repetitions are slow (a noisy tail); min across
        # reps keeps the totals comparable, so the bound must not fire.
        wall = {k: 10.0 for k in self.BASE}
        base = bench_doc(self.BASE, wall_ms=wall)
        cur = bench_doc(self.BASE, wall_ms=wall)
        for entry in cur["benchmarks"]:
            if entry["repetition_index"] == 2:
                entry["wall_ms"] *= 50
        proc = self.run_gate(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_wall_factor_flag_tightens_and_disables(self):
        cur = {k: v * 2 for k, v in self.BASE.items()}
        wall = {k: 10.0 for k in self.BASE}
        wall2 = {k: 20.0 for k in self.BASE}
        base = bench_doc(self.BASE, wall_ms=wall)
        slow = bench_doc(cur, wall_ms=wall2)
        tight = self.run_gate(base, slow, "--wall-factor", "1.5")
        self.assertEqual(tight.returncode, 1, tight.stdout)
        off = self.run_gate(base, slow, "--wall-factor", "0")
        self.assertEqual(off.returncode, 0, off.stdout)

    def test_missing_wall_counters_skip_the_bound(self):
        # Pre-counter baselines must not trip the bound.
        cur = {k: v * 2 for k, v in self.BASE.items()}
        proc = self.run_gate(bench_doc(self.BASE), bench_doc(cur))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertNotIn("WALL-BOUND", proc.stdout)

    def test_metric_total_bound_catches_minTime_style_collapse(self):
        # MinTime-driven series keep wall_ms flat when the code slows
        # down (fewer iterations, same loop time) — the summed
        # per-iteration metric still exposes a uniform 6x collapse.
        cur = {k: v * 6 for k, v in self.BASE.items()}
        flat_wall = {k: 10.0 for k in self.BASE}
        proc = self.run_gate(bench_doc(self.BASE, wall_ms=flat_wall),
                             bench_doc(cur, wall_ms=flat_wall))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("TOTAL-BOUND", proc.stdout)
        self.assertNotIn("WALL-BOUND", proc.stdout)

    def test_absolute_mode_sees_uniform_shift(self):
        cur = {k: v * 2 for k, v in self.BASE.items()}
        proc = self.run_gate(bench_doc(self.BASE), bench_doc(cur),
                             "--absolute")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)

    def test_noise_floor_excludes_tiny_series(self):
        base = dict(self.BASE, BM_tiny=1.0)
        cur = dict(self.BASE, BM_tiny=4.0)  # 4x, but under the 5us floor
        proc = self.run_gate(bench_doc(base), bench_doc(cur))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("noise floor", proc.stdout)

    def test_thread_context_mismatch_fails_loudly(self):
        proc = self.run_gate(bench_doc(self.BASE, threads="1"),
                             bench_doc(self.BASE, threads="8"))
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("cods_threads", proc.stdout + proc.stderr)

    # Four throughput series: enough for the rate anchor to be trusted.
    STORM = {f"BM_storm/readers:{n}": 1000.0 * n for n in (1, 2, 4, 8)}
    RATES = {
        f"BM_storm/readers:{n}": {"queries_per_sec": 500.0 * n}
        for n in (1, 2, 4, 8)
    }

    def test_rate_counter_drop_fails_inverted(self):
        # Throughput FALLING is the regression — a 40% drop on one
        # series against three unchanged anchors must fail.
        cur_rates = {
            k: dict(v) for k, v in self.RATES.items()
        }
        cur_rates["BM_storm/readers:4"]["queries_per_sec"] *= 0.6
        proc = self.run_gate(
            bench_doc(self.STORM, counters=self.RATES),
            bench_doc(self.STORM, counters=cur_rates),
        )
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("RATE-REG", proc.stdout)
        self.assertIn("queries_per_sec", proc.stdout)

    def test_rate_counter_rise_passes(self):
        # Throughput going UP is never a regression, however large.
        cur_rates = {
            k: {"queries_per_sec": v["queries_per_sec"] * 3}
            for k, v in self.RATES.items()
        }
        proc = self.run_gate(
            bench_doc(self.STORM, counters=self.RATES),
            bench_doc(self.STORM, counters=cur_rates),
        )
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_rate_uniform_shift_cancels_in_relative_mode(self):
        # Every throughput halved: a slower runner; the median rate
        # anchor absorbs it exactly like the timing anchor does.
        cur_rates = {
            k: {"queries_per_sec": v["queries_per_sec"] * 0.5}
            for k, v in self.RATES.items()
        }
        proc = self.run_gate(
            bench_doc(self.STORM, counters=self.RATES),
            bench_doc(self.STORM, counters=cur_rates),
        )
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("rate-relative mode", proc.stdout)

    def test_rate_series_time_excluded_from_time_gate(self):
        # A throughput series' batch time blowing up must not trip the
        # per-series TIME gate (the counter is the contract there) —
        # here one storm series is 10x slower in real_time while every
        # queries_per_sec counter is unchanged.
        cur_times = dict(self.STORM)
        cur_times["BM_storm/readers:8"] *= 10
        base = bench_doc(self.STORM, counters=self.RATES)
        cur = bench_doc(cur_times, counters=self.RATES)
        proc = self.run_gate(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertNotIn("REGRESSION", proc.stdout.replace("RATE-REG", ""))

    def test_rate_best_of_repetitions_takes_max(self):
        # One repetition lost to noise reports a terrible rate; max
        # across reps keeps the series comparable.
        base = bench_doc(self.STORM, counters=self.RATES)
        cur = bench_doc(self.STORM, counters=self.RATES)
        for entry in cur["benchmarks"]:
            if entry["repetition_index"] == 2 and "queries_per_sec" in entry:
                entry["queries_per_sec"] *= 0.1
        proc = self.run_gate(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_mixed_file_gates_times_and_rates_independently(self):
        # Latency series and throughput series coexist in one file; a
        # clean run passes both gates, and a latency regression still
        # fails even though the rates are healthy.
        times = dict(self.BASE, **self.STORM)
        base = bench_doc(times, counters=self.RATES)
        proc = self.run_gate(base, bench_doc(times, counters=self.RATES))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        slow = dict(times, BM_b=times["BM_b"] * 1.5)
        proc = self.run_gate(base, bench_doc(slow, counters=self.RATES))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("BM_b", proc.stdout)

    def test_best_of_repetitions_forgives_one_bad_rep(self):
        base = bench_doc(self.BASE)
        cur = bench_doc(self.BASE)
        for entry in cur["benchmarks"]:
            if entry["repetition_index"] == 0:
                entry["real_time"] *= 10  # one repetition lost to noise
        proc = self.run_gate(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
