#!/usr/bin/env python3
"""Run one benchmark workload of the rbpeb engine.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds the engine and the
harness from source (CMake, Release) under .bench_build/perfbench; later
calls reuse that build. The harness prints every metric with its unit, the
run metadata and, as its last line, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The full report and, for traced runs, the spans are written under
.bench_build/perfbench/reports. Exits non-zero, without a result line, when
the build fails, and non-zero with one when an answer was wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("oneshot-exact", "nodel-certify", "oneshot-hda", "serve-zipf")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the harness; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    for attempt in range(2):
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return False
        if subprocess.run(make, stdout=sys.stderr, stderr=sys.stderr).returncode == 0:
            return True
        if attempt == 0:
            # A build directory configured for another checkout location
            # cannot be reused; start it over once.
            shutil.rmtree(BUILD, ignore_errors=True)
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.join(BUILD, "reports"),
    ]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError, IndexError):
        sys.stdout.write(run.stdout)
        print("perfbench: no result line (exit %d)" % run.returncode, file=sys.stderr)
        return run.returncode or 5
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
