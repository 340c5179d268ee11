#!/usr/bin/env python3
"""Build and run the slin benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

The first call configures and builds libslin and the benchmark under
.bench_build/perfbench (build output goes to standard error), then runs the
arithmetic self-test. The benchmark's last line of standard output is one
JSON object with "correct", "attempted", "failed" and "metrics". The exit
code is non-zero on a build failure, a failed self-test, any failed
operation or any wrong output.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["paper-steady", "service-mixed"]


def build():
    """Configures (once) and builds; returns False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    steps.append([os.path.join(BUILD, "perfbench_selftest")])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr).returncode
        except OSError as err:
            print("run.py: cannot run %s: %s" % (cmd[0], err), file=sys.stderr)
            return False
        if rc != 0:
            print("run.py: %s failed with exit code %d" % (" ".join(cmd), rc),
                  file=sys.stderr)
            return False
    return True


def run_one(workload, seed, seconds, trace, capture):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if not capture:
        return subprocess.run(cmd, cwd=ROOT).returncode, None
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 2
    if args.workload != "all":
        rc, _ = run_one(args.workload, args.seed, args.seconds, args.trace,
                        capture=False)
        return rc

    # Every workload, one table: each metric by name with its unit.
    worst = 0
    results = {}
    for w in WORKLOADS:
        rc, out = run_one(w, args.seed, args.seconds, args.trace, capture=True)
        worst = worst or rc
        results[w] = out or {"metrics": {}}
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print("%-40s %-6s" % ("metric", "unit") +
          "".join(" %16s" % w for w in WORKLOADS))
    for m in names:
        unit = next(r["metrics"][m]["unit"] for r in results.values()
                    if m in r["metrics"])
        cells = "".join(
            " %16.6g" % results[w]["metrics"][m]["value"]
            if m in results[w]["metrics"] else " %16s" % "-"
            for w in WORKLOADS)
        print("%-40s %-6s%s" % (m, unit, cells))
    for w in WORKLOADS:
        r = results[w]
        ratio = r.get("failed", 0) / max(1, r.get("attempted", 1))
        print("%-40s %-6s %16.6g  (%s)" % ("failed_ratio", "1", ratio, w))
    return worst


if __name__ == "__main__":
    sys.exit(main())
