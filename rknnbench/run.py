#!/usr/bin/env python3
"""Builds the RkNN benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 rknnbench/run.py --workload paper-disk --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/rknnbench, reports and span files to
.bench_build/rknnbench-out. The last line of standard output is the
run's JSON result (see rknnbench/README.md).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-disk", "label-serve", "mixed-update")


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "rknn_bench"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "rknnbench")
    out_dir = os.path.join(root, ".bench_build", "rknnbench-out")
    if not build(build_dir):
        print("rknnbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "rknn_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        print("rknnbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"rknnbench: exit code {proc.returncode}", file=sys.stderr)
        return proc.returncode
    try:
        json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(proc.stdout)
        print("rknnbench: no result line", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
