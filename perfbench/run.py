#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

One run:
    python3 perfbench/run.py --threads 2 --workload implement --seed 1 \
        --seconds 20 --trace 0

builds the repository's libraries and the perfbench program into
.bench_build/ (once; later runs only re-check the build), runs one workload
in the repository root and passes its output through: a report, then one
JSON line {"correct", "attempted", "failed", "metrics"} last on stdout.
Build output goes to stderr.

Steadiness self-check:
    python3 perfbench/run.py --steadiness 10 [--workloads implement,serve]

runs each workload that many times with seeds 1..N and prints, for every
end-to-end metric of BENCHMARK.json, the median, the quartiles and their
distance as a share of the median next to the metric's bound.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no program sources under " + ROOT, file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"] + gen,
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    done = subprocess.run(["cmake", "--build", BUILD, "--parallel", "4"],
                          stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0 and os.path.isfile(BINARY)


def run_once(args, capture):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return None


def steadiness(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, args.steadiness + 1):
            one = argparse.Namespace(workload=workload, seed=seed,
                                     seconds=seconds, trace=0,
                                     threads=args.threads)
            done = run_once(one, capture=True)
            if done is None or done.returncode != 0:
                print("%s seed %d: run failed" % (workload, seed))
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print("%s: %d runs, seeds 1..%d, %d s each" %
              (workload, args.steadiness, args.steadiness, seconds))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            steady = spread < m["bound"] / 3
            ok &= steady or m["name"] == "setup_s"
            print("  %-12s median %12.4f %-3s q1 %12.4f q3 %12.4f "
                  "spread %.3f bound %.2f %s" %
                  (m["name"], med, m["unit"], q1, q3, spread, m["bound"],
                   "ok" if steady else "WIDE"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=2)
    p.add_argument("--steadiness", type=int, metavar="N")
    p.add_argument("--workloads", help="comma-separated, for --steadiness")
    args = p.parse_args()
    if args.steadiness is None and (args.workload is None or args.seconds is None):
        p.error("--workload and --seconds are required")
    if args.steadiness is not None and args.steadiness < 2:
        p.error("--steadiness needs at least 2 runs")
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    if args.steadiness is not None:
        return steadiness(args)
    done = run_once(args, capture=False)
    return 1 if done is None else done.returncode


if __name__ == "__main__":
    sys.exit(main())
