#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark from source, runs one workload.

    python3 perfbench/run.py --workload <all|replace|replace_shards4|serve> \
        --seed N --seconds S --trace <0|1>

Run it from the repository root. The release build goes to
$CARGO_TARGET_DIR (default .bench_build); the last line of standard output
is the JSON result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("all", "replace", "replace_shards4", "serve")
# The executable enforces its own 170 s deadline; this is the backstop.
RUN_TIMEOUT_S = 178


def main():
    p = argparse.ArgumentParser(description="Pattern-Fusion end-to-end benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1

    cmd = [
        os.path.join(target, "release", "perfbench"), "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--state-dir", os.path.join(target, "perfbench"),
    ]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: the run did not finish in time", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
