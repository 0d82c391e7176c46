#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]
                                [--second-set] [--trace]

Runs each workload --runs times, each time with another seed, and prints
for every end-to-end metric its median, quartiles (statistics.quantiles,
n=4) and the quartile spread as a share of the median, against the bound in
BENCHMARK.json. With --second-set it repeats the whole set on fresh seeds
and prints how far the second median moved from the first, which shows the
numbers do not hang on one draw. Exits 1 when a spread (setup_s excepted)
or a drift exceeds its bound, or when any run failed. Run from the root of
a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_set(spec, workloads, runs, seconds, first_seed, trace):
    """{workload: {metric: [values]}} over `runs` seeds per workload."""
    values = {}
    for workload in workloads:
        per_metric = values.setdefault(workload, {})
        for i in range(runs):
            seed = first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = out.stdout.strip().split("\n")
            result = json.loads(lines[-1]) if out.returncode == 0 else None
            if result is None or not result["correct"]:
                print("%s seed %d: run failed (exit %d)" % (workload, seed, out.returncode))
                per_metric.setdefault("_failed", []).append(seed)
                continue
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print("%s seed %d: done" % (workload, seed), file=sys.stderr)
    return values


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--second-set", action="store_true")
    parser.add_argument("--trace", action="store_true",
                        help="check the per-layer run instead (no bounds; spreads only)")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    first = run_set(spec, workloads, args.runs, args.seconds, args.first_seed, args.trace)
    second = None
    if args.second_set:
        second = run_set(spec, workloads, args.runs, args.seconds,
                         args.first_seed + 100000, args.trace)
    ok = True
    for workload in workloads:
        print("\n== %s (%d runs)" % (workload, args.runs))
        print("%-30s %12s %12s %12s %8s %6s %8s" %
              ("metric", "q1", "median", "q3", "spread", "bound", "drift"))
        failed = first[workload].pop("_failed", []) + (
            second[workload].pop("_failed", []) if second else [])
        if failed:
            ok = False
            print("failed seeds:", failed)
        for name, values in first[workload].items():
            if len(values) < 2:
                continue
            q1, med, q3, share = spread(values)
            bound = bounds.get(name)
            drift = ""
            if second and len(second[workload].get(name, [])) >= 2:
                med2 = statistics.median(second[workload][name])
                d = (med2 - med) / med if med else 0.0
                drift = "%+.3f" % d
                if bound is not None and abs(d) > bound:
                    ok = False
                    drift += "!"
            flag = ""
            if bound is not None and name != "setup_s" and share > bound:
                ok = False
                flag = "!"
            elif bound is not None and share > bound / 3:
                flag = "~"
            print("%-30s %12.6g %12.6g %12.6g %7.3f%s %6s %8s" %
                  (name, q1, med, q3, share, flag, "" if bound is None else bound, drift))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
