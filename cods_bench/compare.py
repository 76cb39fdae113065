#!/usr/bin/env python3
"""Paired comparison of two directories of cods_bench run sets.

  python3 cods_bench/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds the run-set files `run.py --all --out DIR` writes
(runset-*.json). Run sets pair up in file-name order, so run the two
commits alternately (parent, change, parent, ...), at least ten pairs,
with the same --seconds. For every (workload, end-to-end metric) of
BENCHMARK.json it prints each side's median and quartiles, the fraction
of pairs the change wins (ties count for neither), and a verdict:

  improved    the change wins at least 9 in 10 pairs and the medians
              differ by more than the parent's quartile spread
  regressed   the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  the parent's own spread (quartile distance / median) is
              wider than the bound, and not every change run beats
              every parent run
  unchanged   within the bound

Exits 1 when any verdict is `regressed`, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runsets(directory):
    """Run sets of a directory, in file-name order."""
    paths = sorted(glob.glob(os.path.join(directory, "runset-*.json")))
    runsets = []
    for path in paths:
        with open(path) as f:
            runsets.append(json.load(f))
    return runsets


def load_bounds(path):
    """{metric: (better, bound)} for the end-to-end metrics."""
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(parent, change, better, bound):
    """Compares two samples of one metric (paired by index)."""
    def beats(a, b):  # a strictly better than b
        return a < b if better == "lower" else a > b

    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if beats(c, p))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    # Relative change, positive = worse.
    worse_by = (c_med - p_med) / p_med if p_med else 0.0
    if better == "higher":
        worse_by = -worse_by
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    win_share = wins / pairs if pairs else 0.0
    if (win_share >= WIN_SHARE and beats(c_med, p_med)
            and abs(c_med - p_med) > p_q3 - p_q1):
        verdict = "improved"
    elif worse_by > bound:
        verdict = "regressed"
    elif spread > bound and not all(beats(c, p) for c in change
                                    for p in parent):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "pairs": pairs,
        "win_share": win_share,
        "worse_by": worse_by,
        "spread": spread,
        "verdict": verdict,
    }


def metric_values(runsets, workload, metric):
    """The metric's value in every run set that measured it."""
    out = []
    for runset in runsets:
        metrics = runset["results"].get(workload, {}).get("metrics", {})
        if metric in metrics:
            out.append(metrics[metric]["value"])
    return out


def compare_dirs(parent_dir, change_dir, bounds):
    """Yields (workload, metric, comparison) for every pair of samples."""
    parent = load_runsets(parent_dir)
    change = load_runsets(change_dir)
    workloads = sorted(set().union(*(r["results"] for r in parent + change)))
    for workload in workloads:
        for metric, (better, bound) in bounds.items():
            p = metric_values(parent, workload, metric)
            c = metric_values(change, workload, metric)
            if p and c:
                yield workload, metric, compare(p, c, better, bound)


def fmt(q):
    """'median [q1, q3]'."""
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args(argv)
    bounds = load_bounds(args.benchmark)
    regressed = False
    print(f"{'workload':14} {'metric':12} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'worse by':>9} {'wins':>5}  verdict")
    for workload, metric, r in compare_dirs(args.parent_dir, args.change_dir,
                                            bounds):
        if r["pairs"] < MIN_PAIRS:
            print(f"warning: {workload} {metric}: only {r['pairs']} pairs "
                  f"(want {MIN_PAIRS})", file=sys.stderr)
        print(f"{workload:14} {metric:12} {fmt(r['parent']):>34} "
              f"{fmt(r['change']):>34} {100 * r['worse_by']:>8.2f}% "
              f"{r['win_share']:>5.2f}  {r['verdict']}")
        regressed |= r["verdict"] == "regressed"
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
