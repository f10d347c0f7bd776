#!/usr/bin/env python3
"""The simulator's benchmark: builds the library from this checkout's src/ in
Release mode, runs one workload for a fixed time, checks every result, and
prints one JSON line of metrics as its last line of output.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --compare-threads [--seed N] [--seconds S]

Workloads: scale-sampled, byzantine-full, sweep-cached (see README.md).
With --trace 0 it prints the end-to-end metrics of the untraced build. With
--trace 1 it runs the untraced build for a third of the time and the traced
build for the rest, and prints the traced build's per-layer metrics plus the
tracing overhead between the two; both must produce the same result bytes.
--selftest runs the checker's own tests. --compare-threads runs scale-sampled
in the untraced build twice, on the simulator's parallel engine at one thread
per CPU and then sequentially, and prints both runs' figures: a one-off
comparison kept out of the workloads, which set no execution knob. Build
output goes to stderr and to .bench_build/ under the checkout root."""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
END_TO_END = ["wall_s", "setup_s", "events_per_s", "peak_rss_mb", "cells_per_s"]
# Time a run may take beyond --seconds: the round still running when time is
# up (a traced scale-sampled round takes about 11 s), the checks, and exit.
MARGIN_S = 60


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(targets):
    out = build_dir()
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("perfbench: cmake not found")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("perfbench: cannot configure the build (are the program's sources here?)")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    command = [cmake, "--build", out, "-j", jobs, "--target", *targets]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return out


def run_binary(binary, workload, args, seconds, extra=()):
    scratch = os.path.join(build_dir(), f"run-{os.getpid()}-{os.path.basename(binary)}")
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--templates", os.path.join(HERE, "workloads"),
               "--scratch", scratch, *extra]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + MARGIN_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode != 0:
        sys.exit(f"perfbench: {os.path.basename(binary)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def compare_threads(args):
    """scale-sampled on the parallel engine at one thread per CPU, then
    sequentially; both must produce the same result bytes."""
    out = build(["perfbench"])
    binary = os.path.join(out, "perfbench")
    runs = {"parallel": run_binary(binary, "scale-sampled", args, args.seconds,
                                   ["--parallel-engine"]),
            "sequential": run_binary(binary, "scale-sampled", args, args.seconds)}
    same = runs["parallel"]["digest"] == runs["sequential"]["digest"]
    result = {"correct": all(r["correct"] for r in runs.values()) and same,
              "sim_threads": runs["parallel"]["sim_threads"]}
    for name, run in runs.items():
        result[name] = {k: run["metrics"][k]["value"] for k in END_TO_END}
    result["wall_s_speedup"] = result["sequential"]["wall_s"] / result["parallel"]["wall_s"]
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare-threads", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        out = build(["perfbench_selftest"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.compare_threads:
        compare_threads(args)
        return
    if not args.workload:
        parser.error("--workload is required")

    if args.trace == 0:
        out = build(["perfbench"])
        run = run_binary(os.path.join(out, "perfbench"), args.workload, args, args.seconds)
        metrics = {k: run["metrics"][k] for k in END_TO_END}
        result = {"correct": run["correct"], "attempted": run["attempted"],
                  "failed": run["failed"], "metrics": metrics}
    else:
        out = build(["perfbench", "perfbench_traced"])
        plain = run_binary(os.path.join(out, "perfbench"), args.workload, args, args.seconds / 3)
        traced = run_binary(os.path.join(out, "perfbench_traced"), args.workload, args,
                            args.seconds * 2 / 3)
        same = plain["digest"] == traced["digest"]
        if not same:
            print("perfbench: the traced build's results differ from the untraced build's",
                  file=sys.stderr)
        metrics = {k: v for k, v in traced["metrics"].items() if k not in END_TO_END}
        metrics["tracing.overhead_ratio"] = {
            "value": traced["metrics"]["wall_s"]["value"] / plain["metrics"]["wall_s"]["value"],
            "unit": "ratio"}
        result = {"correct": plain["correct"] and traced["correct"] and same,
                  "attempted": plain["attempted"] + traced["attempted"],
                  "failed": plain["failed"] + traced["failed"], "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
