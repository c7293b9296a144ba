#!/usr/bin/env python3
"""Build and run the LingXi benchmark.

One run of one workload (the form BENCHMARK.json names):

    python3 lxbench/run.py --workload ab_replay --seed 7 --seconds 15 --trace 0

builds lxbench from the checkout's sources into .bench_build/lxbench (Release;
the first run compiles the library, later runs only check it is current),
runs the workload in one process, and passes its output through. The last
line of standard output is the result object. --trace 1 gives the per-layer
metrics and the layer budget instead of the end-to-end metrics.

Steadiness mode repeats a workload over several seeds and reports, for every
metric, the median, the quartiles and the spread (Q3 - Q1) / median that
BENCHMARK.json's bounds are set from, plus one run on a fresh seed:

    python3 lxbench/run.py --steadiness --workload user_optimize \\
        --seeds 1-10 --fresh-seed 1001 --seconds 15
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "lxbench")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("ab_replay", "lowbw_fleet", "user_optimize")
BUILD_JOBS = "4"


def build():
    """Configure (once) and build lxbench; returns the binary path or None."""
    configured = os.path.join(BUILD_DIR, ".configured")
    steps = []
    if not os.path.exists(configured):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "lxbench", "-j", BUILD_JOBS])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result object.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            print("lxbench build failed: " + " ".join(step), file=sys.stderr)
            return None
        if step[1] == "-S":
            with open(configured, "w", encoding="utf-8") as marker:
                marker.write("ok\n")
    return os.path.join(BUILD_DIR, "lxbench")


def run_once(binary, workload, seed, seconds, trace, echo):
    """Run one workload; returns (exit code, parsed result or None)."""
    work_dir = os.path.join(WORK_ROOT, "%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    result = None
    if done.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def load_bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steadiness(binary, args):
    seeds = parse_seeds(args.seeds)
    bounds = load_bounds()
    values = {}
    units = {}
    shares = []
    for seed in seeds:
        code, result = run_once(binary, args.workload, seed, args.seconds, args.trace, False)
        if result is None:
            print("seed %d: run failed (exit %d)" % (seed, code))
            return 1
        shares.append((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d: correct %s, %d/%d failed" % (seed, result["correct"], result["failed"],
                                                    result["attempted"]), flush=True)

    fresh = None
    if args.fresh_seed is not None:
        code, fresh = run_once(binary, args.workload, args.fresh_seed, args.seconds,
                               args.trace, False)
        if fresh is None:
            print("fresh seed %d: run failed (exit %d)" % (args.fresh_seed, code))
            return 1

    print("\n%s over seeds %s (%d runs, --seconds %s, --trace %d)" %
          (args.workload, args.seeds, len(seeds), args.seconds, args.trace))
    print("%-36s %14s %14s %14s %9s %7s %14s" %
          ("metric", "median", "Q1", "Q3", "spread", "bound", "fresh seed"))
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        fresh_value = fresh["metrics"][name]["value"] if fresh else None
        print("%-36s %14.6g %14.6g %14.6g %8.2f%% %7s %14s" %
              (name, med, q1, q3, 100 * spread, "" if bound is None else "%g" % bound,
               "" if fresh_value is None else "%.6g" % fresh_value))
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": vals}
    print("failed/attempted per run: %s" % ", ".join("%d/%d" % s for s in shares))
    print(json.dumps({"workload": args.workload, "seeds": seeds, "metrics": summary}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="repeat the workload over --seeds and report spreads")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--fresh-seed", type=int, default=None,
                        help="steadiness mode: one more run on a seed not used before")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    if args.steadiness:
        return steadiness(binary, args)
    code, result = run_once(binary, args.workload, args.seed, args.seconds, args.trace, True)
    if code != 0 or result is None:
        print("lxbench exited with code %d without a result" % code, file=sys.stderr)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
