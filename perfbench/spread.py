#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady it is.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload paper-steady --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload service-mixed --seeds 1 2 --repeat 2 --trace

For each end-to-end metric it prints the median of the runs and their
spread, the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, beside the
metric's bound from BENCHMARK.json; a spread above a third of the bound is
flagged, beside the spread of the same metric unscaled by the run's pace
samples. With --trace it runs traced instead, checks that every exact
count (FLOPs, firings, output yield, source and artifact bytes) repeats
exactly across all runs, reports the root span's self share, and reports
the tracing overhead: each traced run's end-to-end numbers (kept in its
span file) against the untraced medians from the same seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("flops_per_output", "firings_per_output", "output_yield",
         "codegen.source_bytes", "store.artifact_bytes")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("spread.py: seed %d failed (exit %d)" % (seed,
                                                           proc.returncode))
    out = json.loads(lines[-1])
    out["raw"] = {}
    for line in lines:
        if line.startswith("raw:"):
            out["raw"] = {k: float(v) for k, v in
                          (kv.split("=") for kv in line.split()[1:])}
    if trace:
        path = os.path.join(ROOT, ".bench_build", "traces",
                            "%s-seed%d.json" % (workload, seed))
        with open(path) as f:
            out["e2e"] = json.load(f).get("e2e", {})
    return out


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    runs = [(s, run(args.workload, s, seconds, args.trace))
            for _ in range(args.repeat) for s in args.seeds]
    worst = 0

    if not args.trace:
        print("%-22s %-6s %14s %9s %7s %10s" % ("metric", "unit", "median",
                                                "spread", "bound",
                                                "raw spread"))
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for _, r in runs]
            raw = [r["raw"].get(m["name"], 0.0) for _, r in runs]
            med, spr = spread(vals)
            flag = "" if spr <= m["bound"] / 3 else "  <-- above bound/3"
            worst = worst or bool(flag)
            print("%-22s %-6s %14.6g %9.4f %7.3f %10.4f%s" % (
                m["name"], m["unit"], med, spr, m["bound"], spread(raw)[1],
                flag))
            print("    runs: " + " ".join("%.5g" % v for v in vals))
        return 1 if worst else 0

    # Exact counts must repeat bit for bit across runs and seeds.
    first = runs[0][1]["metrics"]
    for name in sorted(first):
        if not any(e in name for e in EXACT):
            continue
        vals = {r["metrics"][name]["value"] for _, r in runs}
        if len(vals) != 1:
            worst = 1
            print("NOT EXACT: %s varies: %s" % (name, sorted(vals)))
    print("exact counts checked across %d runs: %s" %
          (len(runs), "FAILED" if worst else "identical"))
    shares = [r["metrics"]["trace.root_self_share"]["value"] for _, r in runs]
    print("root span self share: max %.4f" % max(shares))
    # Tracing overhead: traced end-to-end numbers against untraced ones.
    plain = [run(args.workload, s, seconds, False) for s in args.seeds]
    for m in bench["end_to_end"]:
        t = statistics.median(r["e2e"][m["name"]] for _, r in runs)
        u = statistics.median(r["metrics"][m["name"]]["value"] for r in plain)
        print("overhead %-22s traced %12.6g untraced %12.6g (%+.1f%%)" %
              (m["name"], t, u, 100.0 * (t - u) / u if u else 0.0))
    return worst


if __name__ == "__main__":
    sys.exit(main())
