#!/usr/bin/env python3
"""Runs the CODS end-to-end benchmark (bench_cods).

One workload:

  python3 cods_bench/run.py --workload point_lookup --seed 1 --seconds 10 \\
      --trace 0

builds bench_cods from the checkout's own sources (CMake, into
$CARGO_TARGET_DIR or .bench_build; a no-op when up to date), runs the
workload in a process of its own and prints the result JSON as the last
line of stdout:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics of a traced probe, and the
spans are written to <build dir>/traces/<workload>-seed<n>.json.

Every workload in sequence (a run set):

  python3 cods_bench/run.py --all --seed 1 --seconds 10 --out runs/parent

writes runs/parent/runset-<seed>-<time>.json (results, the info lines
and nproc) and prints `workload metric value unit` lines. compare.py
compares two directories of run sets.

Exit status is non-zero, with no result printed, when the sources are
missing, the build fails, a run fails or exceeds its time limit.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["point_lookup", "analytic_scan", "evolve_online", "evolve_bulk"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_bounded(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the group on timeout or
    when this script is terminated, and waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    previous = {s: signal.signal(s, stop)
                for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{os.path.basename(cmd[0])} exceeded {timeout}s", 3)
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
    return proc.returncode, out, err


def build():
    """Configures and builds bench_cods; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "server.h")):
        fail(f"no CODS sources under {ROOT}/src; nothing to benchmark")
    out = os.path.join(build_dir(), "cods_bench")
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        for step in steps:
            code, _, _ = run_bounded(step, BUILD_TIMEOUT_S, stdout=sys.stderr)
            if code != 0:
                fail("building bench_cods failed")
    return os.path.join(out, "bench_cods")


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (result dict, info dict)."""
    work = os.path.join(build_dir(), "work", f"{workload}-{os.getpid()}")
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--dir={work}"]
    if trace:
        cmd.append("--trace=" + os.path.join(
            build_dir(), "traces", f"{workload}-seed{seed}.json"))
    try:
        code, stdout, stderr = run_bounded(
            cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(stderr)
    if code != 0:
        fail(f"bench_cods --workload={workload} exited with {code}", 4)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"bench_cods --workload={workload} printed no result", 4)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result from bench_cods: {lines[-1]}", 4)
    info = {}
    for line in stderr.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "info" and parts[2] != "null":
            info[parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
    return result, info


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload (a run set)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=None,
                        help="--all: directory for the run-set file")
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")

    binary = build()
    if not args.all:
        result, _ = run_workload(binary, args.workload, args.seed,
                                 args.seconds, args.trace)
        print(json.dumps(result), flush=True)
        return

    runset = {"seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(), "results": {}}
    for workload in WORKLOADS:
        result, info = run_workload(binary, workload, args.seed,
                                    args.seconds, args.trace)
        result["info"] = info
        runset["results"][workload] = result
        for name, m in sorted(result["metrics"].items()):
            print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
        print(f"{workload} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
    out_dir = args.out or os.path.join(build_dir(), "runsets")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"runset-{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as f:
        json.dump(runset, f, indent=1, sort_keys=True)
    print(f"run set written to {path}", file=sys.stderr)
    if not all(r["correct"] for r in runset["results"].values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
