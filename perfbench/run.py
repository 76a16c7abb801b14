#!/usr/bin/env python3
"""Build and run the NDJSON job-mix benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/bench.exe from source with dune (release profile, build
directory .bench_build, no shared dune cache), then runs it. The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Exits non-zero, printing no result, if the checkout cannot be
built or the run fails.

--workload all runs every workload in turn and exits 1 if any output
differed from its reference.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["tweets-narrow", "wide-full", "longtail-messy-j2"]
DEFAULT_SEED = 1
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the root of a schemas_types checkout "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, "--cache", "disabled", TARGET],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    if args.workload != "all":
        return run(args.workload, args)[0]
    incorrect = []
    for workload in WORKLOADS:
        rc, result = run(workload, args, capture=True)
        if rc != 0:
            return rc
        if not result["correct"]:
            incorrect.append(workload)
    if incorrect:
        print("run.py: outputs differ from the reference on " + ", ".join(incorrect),
              file=sys.stderr)
        return 1
    return 0


def run(workload, args, capture=False):
    """Run one workload: its exit code and, with capture, its parsed result."""
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(BUILD_DIR, "perfbench")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3, None
    if not capture:
        return proc.returncode, None
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        return proc.returncode, None
    return 0, json.loads(proc.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    sys.exit(main())
