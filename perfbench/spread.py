#!/usr/bin/env python3
"""Steadiness check: runs workloads on several seeds and reports, for each
metric, its median and its quartile spread — (Q3 - Q1) / median, with the
quartiles of statistics.quantiles(values, n=4) — against the metric's bound
in BENCHMARK.json.

    python3 perfbench/spread.py [--seeds 1-10] [--workloads all,serve] [--verbose]

Run it from the repository root. A spread above a third of its bound is
marked `!`, above the bound `!!`; set-up time is exempt from the spread
rule and only reported.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--verbose", action="store_true", help="print each run's notes")
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        values, walls = {}, []
        for seed in range(lo, hi + 1):
            t0 = time.monotonic()
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True,
            )
            walls.append(time.monotonic() - t0)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            # `timing:` notes carry wall and CPU medians side by side.
            for line in lines[:-1]:
                if line.startswith("timing: "):
                    for tok in line.split()[1:]:
                        k, v = tok.split("=")
                        values.setdefault(k, []).append(float(v))
            if args.verbose:
                measured = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
                print(f"{workload} seed {seed}: {walls[-1]:.1f} s", *lines[:-1], measured,
                      sep="\n  ")
        print(f"== {workload}: {len(walls)} runs, wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        for name, vs in values.items():
            med = statistics.median(vs)
            spread = 0.0
            if len(vs) >= 2 and med:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / med
            bound = bounds.get(name)
            mark = ""
            if bound and name != "setup_s":
                mark = "!!" if spread > bound else "!" if spread > bound / 3 else ""
            print(f"  {name:28} median {med:12.6g}  spread {spread:7.2%}"
                  f"{'' if bound is None else f'  bound {bound:.0%}'} {mark}")


if __name__ == "__main__":
    main()
