#!/usr/bin/env python3
"""Unit tests for compare.py (standard library only).

  python3 cods_bench/test_compare.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCHMARK = {
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "op/s", "better": "higher", "bound": 0.1},
    ],
}


def write_runsets(directory, latencies, rates):
    os.makedirs(directory, exist_ok=True)
    for i, (lat, rate) in enumerate(zip(latencies, rates)):
        runset = {"results": {"w": {"metrics": {
            "latency_ms": {"value": lat, "unit": "ms"},
            "rate": {"value": rate, "unit": "op/s"},
        }}}}
        with open(os.path.join(directory, f"runset-{i:03d}.json"), "w") as f:
            json.dump(runset, f)


class CompareTest(unittest.TestCase):
    def verdict(self, parent, change, better="lower", bound=0.1):
        return compare.compare(parent, change, better, bound)["verdict"]

    def test_same_distribution_is_unchanged(self):
        runs = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        self.assertEqual(self.verdict(runs, list(reversed(runs))), "unchanged")

    def test_faster_in_every_pair_is_improved(self):
        parent = [100 + i % 3 for i in range(10)]
        change = [80 + i % 3 for i in range(10)]
        self.assertEqual(self.verdict(parent, change), "improved")

    def test_small_consistent_gain_within_spread_is_not_improved(self):
        parent = [100, 104, 96, 100, 104, 96, 100, 104, 96, 100]
        change = [v - 1 for v in parent]  # wins every pair, by < spread
        self.assertEqual(self.verdict(parent, change), "unchanged")

    def test_slower_beyond_bound_is_regressed(self):
        parent = [100] * 10
        change = [115] * 10
        self.assertEqual(self.verdict(parent, change), "regressed")

    def test_slower_within_bound_is_unchanged(self):
        parent = [100] * 10
        change = [105] * 10
        self.assertEqual(self.verdict(parent, change), "unchanged")

    def test_noisy_parent_is_unresolved(self):
        parent = [70, 130, 80, 120, 100, 60, 140, 90, 110, 100]
        change = [100, 105, 95, 100, 102, 98, 100, 101, 99, 100]
        self.assertEqual(self.verdict(parent, change), "unresolved")

    def test_noisy_but_every_change_run_better_is_not_unresolved(self):
        parent = [70, 130, 80, 120, 100, 60, 140, 90, 110, 100]
        change = [50, 52, 55, 51, 53, 54, 50, 52, 51, 53]
        self.assertEqual(self.verdict(parent, change), "improved")

    def test_higher_is_better(self):
        parent = [1000 + i for i in range(10)]
        self.assertEqual(
            self.verdict(parent, [1300 + i for i in range(10)], "higher"),
            "improved")
        self.assertEqual(
            self.verdict(parent, [800 + i for i in range(10)], "higher"),
            "regressed")

    def test_ties_count_for_neither(self):
        r = compare.compare([5] * 10, [5] * 10, "lower", 0.1)
        self.assertEqual(r["win_share"], 0.0)
        self.assertEqual(r["verdict"], "unchanged")

    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(compare.quartiles([1, 2, 3, 4, 5]), (1.5, 3.0, 4.5))
        self.assertEqual(compare.quartiles([7]), (7, 7, 7))

    def test_main_reads_directories_and_flags_regressions(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = os.path.join(tmp, "BENCHMARK.json")
            with open(bench, "w") as f:
                json.dump(BENCHMARK, f)
            parent = os.path.join(tmp, "parent")
            change = os.path.join(tmp, "change")
            write_runsets(parent, [10.0] * 10, [500.0] * 10)
            write_runsets(change, [10.1] * 10, [400.0] * 10)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = compare.main([parent, change, "--benchmark", bench])
            self.assertEqual(code, 1)
            lines = {tuple(l.split()[:2]): l.split()[-1]
                     for l in out.getvalue().splitlines()[1:]}
            self.assertEqual(lines[("w", "latency_ms")], "unchanged")
            self.assertEqual(lines[("w", "rate")], "regressed")

            write_runsets(change, [8.0] * 10, [600.0] * 10)
            with contextlib.redirect_stdout(io.StringIO()):
                code = compare.main([parent, change, "--benchmark", bench])
            self.assertEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
