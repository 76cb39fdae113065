#!/usr/bin/env python3
"""Cross-PR benchmark regression gate.

Compares the BENCH_<name>.json files emitted by the bench binaries
(bench/bench_util.h writes them next to the working directory) against
committed baselines and fails when a tracked metric regressed by more
than the threshold.

Usage:
  check_bench_regression.py --baseline-dir bench/baselines \
      --current-dir . [--threshold 0.15] [--metric real_time] \
      [--absolute] [--wall-factor 4.0] [--update]

Behavior:
  * Only benchmarks present in BOTH files are compared (new series are
    allowed to appear; removed ones are reported as a warning).
  * When raw repetition entries are present, each series is tracked as
    the MIN across repetitions — best-of-N is robust against whole
    repetitions lost to VM steal time or frequency dips, which inflate
    medians. With aggregates-only output, ``_median`` is used instead.
  * Default mode is MACHINE-RELATIVE: the per-file anchor is the MEDIAN
    of the per-series current/baseline ratios, and every series is
    gated on its ratio relative to that anchor. A uniformly faster or
    slower runner moves the median itself and cancels out, while a
    minority of series genuinely changing (one op got 3x faster) leaves
    the median — and therefore the unchanged peers — untouched. This is
    what lets the CI threshold sit at 15% on unpinned runners instead
    of the 50% absolute timings needed. ``--absolute`` restores raw
    metric comparison (also used automatically when fewer than
    ``--min-anchor-series`` common series exist).
  * Runs taken at a different ``cods_threads`` context than the baseline
    are skipped with a warning (timings are not comparable).
  * LARGER-IS-BETTER counters (``--rate-counters``, default
    ``queries_per_sec``): a series carrying one of these counters is a
    throughput series. Its counter is gated with the ratio INVERTED
    (current below baseline is the regression), best-of-repetitions is
    the MAX, and the same median-anchor machine-relative mode applies.
    Its per-iteration time is EXCLUDED from the time-based gate and its
    anchor — a manual-time batch duration is workload bookkeeping, not a
    latency to gate (the throughput counter already covers it).
  * Machine-relative mode is blind to a slowdown hitting the MAJORITY of
    a file's series at once (it folds into the median anchor), so a
    coarse ABSOLUTE sanity bound backs it up: per file, neither the
    total ``wall_ms`` counter nor the summed per-iteration metric (both
    over the series common to both runs, min across repetitions) may
    exceed ``--wall-factor`` (default 4x) times the baseline total. The
    wall total catches run-cost blowups in fixed-iteration series; the
    metric total catches uniform slowdowns in MinTime-driven series,
    whose measured-loop wall time google-benchmark holds constant by
    shrinking the iteration count. The factor is deliberately loose —
    it absorbs runner-speed spread while still catching an
    across-the-board collapse.
  * A current BENCH_<name>.json with no committed baseline fails the
    gate: every bench binary is gated, none silently skipped.
  * ``--update`` rewrites the baselines from the current files instead of
    comparing (use after an intentional perf change, and commit them).
  * Exit codes: 0 ok, 1 regression found or a bench file without a
    baseline, 2 usage/IO error.
"""

import argparse
import json
import math
import os
import sys

AGGREGATE_SUFFIXES = ("_mean", "_median", "_stddev", "_cv", "_min", "_max")

TIME_UNIT_TO_US = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}


def load(path):
    with open(path) as f:
        return json.load(f)


def series(doc, metric):
    """name -> metric value in MICROSECONDS: min across raw repetitions
    when present (best-of-N timing), else the _median aggregate."""
    raw_min = {}
    medians = {}
    for b in doc.get("benchmarks", []):
        name = b.get("name", "")
        unit = TIME_UNIT_TO_US.get(b.get("time_unit", "us"), 1.0)
        if b.get("run_type") == "aggregate":
            if name.endswith("_median"):
                medians[name[: -len("_median")]] = float(b[metric]) * unit
            continue
        if name.endswith(AGGREGATE_SUFFIXES):
            continue
        if metric in b:
            v = float(b[metric]) * unit
            raw_min[name] = min(v, raw_min.get(name, v))
    out = medians
    out.update(raw_min)  # best-of-repetitions wins over the median
    return out


def rate_series(doc, counters):
    """Larger-is-better counter values: ``name[counter]`` -> MAX across
    raw repetitions (best-of-N for throughput is the max), else the
    ``_median`` aggregate. The key carries the counter name so one
    series can gate several counters independently."""
    raw_max = {}
    medians = {}
    for b in doc.get("benchmarks", []):
        name = b.get("name", "")
        if b.get("run_type") == "aggregate":
            if name.endswith("_median"):
                stem = name[: -len("_median")]
                for c in counters:
                    if c in b:
                        medians[f"{stem}[{c}]"] = float(b[c])
            continue
        if name.endswith(AGGREGATE_SUFFIXES):
            continue
        for c in counters:
            if c in b:
                key = f"{name}[{c}]"
                v = float(b[c])
                raw_max[key] = max(v, raw_max.get(key, v))
    out = medians
    out.update(raw_max)
    return out


def rate_carriers(doc, counters):
    """Names of series that carry any larger-is-better counter (their
    time belongs to the throughput gate, not the latency gate)."""
    names = set()
    for b in doc.get("benchmarks", []):
        name = b.get("name", "")
        if b.get("run_type") == "aggregate" or name.endswith(AGGREGATE_SUFFIXES):
            continue
        if any(c in b for c in counters):
            names.add(name)
    return names


def context_threads(doc):
    return doc.get("context", {}).get("cods_threads")


def wall_series_ms(doc):
    """Per-series run cost in milliseconds: the MIN wall_ms across raw
    repetitions (same best-of-N robustness as the timing metric). Empty
    when no series carries the counter (pre-counter baselines)."""
    per_series = {}
    for b in doc.get("benchmarks", []):
        name = b.get("name", "")
        if b.get("run_type") == "aggregate" or name.endswith(AGGREGATE_SUFFIXES):
            continue
        if "wall_ms" in b:
            v = float(b["wall_ms"])
            per_series[name] = min(v, per_series.get(name, v))
    return per_series


def median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else math.sqrt(s[mid - 1] * s[mid])


def compare(baseline_path, current_path, threshold, metric, absolute,
            min_anchor_series, noise_floor_us, wall_factor,
            rate_counters=()):
    base = load(baseline_path)
    cur = load(current_path)
    bt, ct = context_threads(base), context_threads(cur)
    if bt is not None and ct is not None and bt != ct:
        print(
            f"SKIP {os.path.basename(current_path)}: cods_threads "
            f"{ct} != baseline {bt}"
        )
        return None
    base_series = series(base, metric)
    cur_series = series(cur, metric)
    # Throughput series (larger-is-better counters) leave the time-based
    # gates entirely — per-series AND the summed-metric bound. Their
    # counter is gated below (inverted) and their run cost still counts
    # against the wall_ms bound.
    throughput = rate_carriers(base, rate_counters) | rate_carriers(
        cur, rate_counters
    )
    regressions = []
    # Coarse absolute sanity bound: a uniform slowdown moves the relative
    # anchor, not the per-series ratios — but it cannot hide from the
    # file's total wall clock. Totals are taken over the series present
    # in BOTH runs, mirroring the timing comparison's added/removed
    # policy (new heavy series must not trip the bound, and dropping
    # series must not mask a collapse of the remainder).
    base_walls, cur_walls = wall_series_ms(base), wall_series_ms(cur)
    wall_common = set(base_walls) & set(cur_walls)
    base_wall = sum(base_walls[n] for n in wall_common)
    cur_wall = sum(cur_walls[n] for n in wall_common)
    if (
        wall_factor is not None
        and wall_common
        and base_wall > 0
        and cur_wall > base_wall * wall_factor
    ):
        ratio = cur_wall / base_wall
        print(
            f"WALL-BOUND {os.path.basename(current_path)}: total wall_ms "
            f"{base_wall:.1f} -> {cur_wall:.1f} ({ratio:.2f}x > "
            f"{wall_factor:g}x bound)"
        )
        regressions.append(("<total wall_ms>", base_wall, cur_wall, ratio))
    # Companion bound on the summed per-iteration metric: MinTime-driven
    # series hold their measured-loop wall time constant by shrinking the
    # iteration count when the code slows down, so a uniform slowdown is
    # invisible to the wall_ms total there — but not to the per-iteration
    # timings themselves, compared absolutely (no anchor) under the same
    # loose factor.
    metric_common = [
        n
        for n in set(base_series) & set(cur_series)
        if base_series[n] > 0 and n not in throughput
    ]
    base_total = sum(base_series[n] for n in metric_common)
    cur_total = sum(cur_series[n] for n in metric_common)
    if (
        wall_factor is not None
        and base_total > 0
        and cur_total > base_total * wall_factor
    ):
        ratio = cur_total / base_total
        print(
            f"TOTAL-BOUND {os.path.basename(current_path)}: total {metric} "
            f"{base_total:.1f} -> {cur_total:.1f}us ({ratio:.2f}x > "
            f"{wall_factor:g}x bound)"
        )
        regressions.append((f"<total {metric}>", base_total, cur_total, ratio))
    missing = sorted(set(base_series) - set(cur_series))
    if missing:
        print(
            f"WARN {os.path.basename(current_path)}: series removed: "
            + ", ".join(missing[:5])
            + ("..." if len(missing) > 5 else "")
        )
    common = sorted(
        name
        for name in set(base_series) & set(cur_series)
        if base_series[name] > 0 and cur_series[name] > 0
        and name not in throughput
    )
    # Sub-floor series cannot be timed to the gate's precision (a
    # handful of microseconds swings tens of percent); excluding them is
    # reported, never silent.
    floored = [n for n in common if base_series[n] < noise_floor_us]
    if floored:
        print(
            f"NOTE {os.path.basename(current_path)}: {len(floored)} series "
            f"under the {noise_floor_us:g}us noise floor not gated: "
            + ", ".join(floored[:4])
            + ("..." if len(floored) > 4 else "")
        )
        common = [n for n in common if n not in set(floored)]

    # Larger-is-better gate: same anchor machinery, ratio inverted —
    # the regression is the CURRENT value falling below the baseline.
    base_rates = rate_series(base, rate_counters)
    cur_rates = rate_series(cur, rate_counters)
    rate_missing = sorted(set(base_rates) - set(cur_rates))
    if rate_missing:
        print(
            f"WARN {os.path.basename(current_path)}: rate counters removed: "
            + ", ".join(rate_missing[:5])
            + ("..." if len(rate_missing) > 5 else "")
        )
    rate_common = sorted(
        k
        for k in set(base_rates) & set(cur_rates)
        if base_rates[k] > 0 and cur_rates[k] > 0
    )
    if rate_common:
        rate_anchor = 1.0
        if not absolute and len(rate_common) >= min_anchor_series:
            rate_anchor = median(
                [cur_rates[k] / base_rates[k] for k in rate_common]
            )
            print(
                f"{os.path.basename(current_path)}: rate-relative mode, "
                f"{rate_anchor:.2f}x median throughput over "
                f"{len(rate_common)} counters"
            )
        for k in rate_common:
            b, c = base_rates[k], cur_rates[k] / rate_anchor
            ratio = b / c  # inverted: larger is better
            status = "OK"
            if ratio > 1.0 + threshold:
                status = "RATE-REG"
                regressions.append((k, b, c, ratio))
            print(
                f"{status:10s} {k:60s} {b:12.3f} -> {c:12.3f} ({ratio:5.2f}x)"
            )

    if not common:
        return regressions

    # Per-file anchor: the median of per-series current/baseline ratios
    # estimates the runs' machine-speed difference. Dividing it out
    # leaves machine-relative shape; being a median, it is immune to a
    # minority of series changing for real (a genuinely 3x-faster op
    # must not make its unchanged peers look like regressions, as a
    # mean-based anchor would).
    anchor = 1.0
    relative = not absolute and len(common) >= min_anchor_series
    if relative:
        anchor = median([cur_series[n] / base_series[n] for n in common])
        print(
            f"{os.path.basename(current_path)}: relative mode, "
            f"{anchor:.2f}x median machine speed over {len(common)} series"
        )
    elif not absolute:
        print(
            f"WARN {os.path.basename(current_path)}: only {len(common)} "
            f"common series (< {min_anchor_series}); comparing absolute "
            "timings"
        )

    for name in common:
        b, c = base_series[name], cur_series[name] / anchor
        ratio = c / b
        status = "OK"
        if ratio > 1.0 + threshold:
            status = "REGRESSION"
            regressions.append((name, b, c, ratio))
        print(f"{status:10s} {name:60s} {b:12.3f} -> {c:12.3f} ({ratio:5.2f}x)")
    return regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", required=True)
    ap.add_argument("--current-dir", required=True)
    ap.add_argument("--threshold", type=float, default=0.15)
    ap.add_argument("--metric", default="real_time")
    ap.add_argument(
        "--absolute",
        action="store_true",
        help="compare raw metric values instead of machine-relative ratios",
    )
    ap.add_argument(
        "--min-anchor-series",
        type=int,
        default=3,
        help="fewest common series for which the per-run anchor is trusted",
    )
    ap.add_argument(
        "--noise-floor-us",
        type=float,
        default=5.0,
        help="series with a baseline time under this many microseconds "
        "are reported but not gated (too small to time reliably)",
    )
    ap.add_argument(
        "--wall-factor",
        type=float,
        default=4.0,
        help="fail when a file's total wall_ms exceeds this multiple of "
        "the baseline total (absolute backstop for uniform slowdowns "
        "the relative anchor cancels); <= 0 disables",
    )
    ap.add_argument(
        "--rate-counters",
        default="queries_per_sec",
        help="comma-separated larger-is-better counters; series carrying "
        "one are gated on the counter (ratio inverted) instead of time",
    )
    ap.add_argument("--update", action="store_true")
    args = ap.parse_args()
    rate_counters = tuple(
        c for c in args.rate_counters.split(",") if c.strip()
    )

    current = sorted(
        f
        for f in os.listdir(args.current_dir)
        if f.startswith("BENCH_") and f.endswith(".json")
    )
    if not current:
        print(f"no BENCH_*.json files in {args.current_dir}", file=sys.stderr)
        return 2

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        for f in current:
            src = os.path.join(args.current_dir, f)
            dst = os.path.join(args.baseline_dir, f)
            with open(src) as i, open(dst, "w") as o:
                o.write(i.read())
            print(f"updated {dst}")
        return 0

    # Every bench file needs a committed baseline: a bench without one
    # would be gated on nothing, silently.
    missing = [
        f for f in current
        if not os.path.exists(os.path.join(args.baseline_dir, f))
    ]
    for f in missing:
        print(
            f"ERROR no baseline for {f} (commit one with --update)",
            file=sys.stderr,
        )

    all_regressions = []
    compared = 0
    skipped = 0
    for f in current:
        baseline = os.path.join(args.baseline_dir, f)
        if f in missing:
            continue
        result = compare(
            baseline, os.path.join(args.current_dir, f), args.threshold,
            args.metric, args.absolute, args.min_anchor_series,
            args.noise_floor_us,
            args.wall_factor if args.wall_factor > 0 else None,
            rate_counters,
        )
        if result is None:  # thread-context mismatch
            skipped += 1
            continue
        compared += 1
        all_regressions += result

    if missing:
        print(f"\n{len(missing)} bench file(s) without a baseline")
        return 1
    if compared == 0:
        if skipped > 0:
            # Every baseline was skipped for a context mismatch: the gate
            # would silently gate nothing. Fail loudly instead.
            print(
                f"ERROR: all {skipped} baseline(s) skipped on cods_threads "
                "mismatch; pin CODS_THREADS to the baseline context",
                file=sys.stderr,
            )
            return 2
        print("no baselines matched; nothing compared")
        return 0
    if all_regressions:
        mode = "absolute" if args.absolute else "machine-relative"
        print(
            f"\n{len(all_regressions)} regression(s) beyond "
            f"{args.threshold:.0%} on {mode} {args.metric}:"
        )
        for name, b, c, ratio in all_regressions:
            print(f"  {name}: {b:.3f} -> {c:.3f} ({ratio:.2f}x)")
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
