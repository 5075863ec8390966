#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload smallbank --seeds 1 2 3 4 5

Run from the repository root. For every end-to-end metric of
BENCHMARK.json it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to a third of the metric's bound, the steadiness target.
Exits 1 when a run fails or a spread other than setup_s's exceeds it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {}
    ok = True
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, proc.returncode))
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]))

    print("%-30s %14s %8s %8s" % ("metric", "median", "spread", "target"))
    for metric in bench["end_to_end"]:
        vals = values.get(metric["name"], [])
        if len(vals) < 2:
            print("%-30s missing" % metric["name"])
            ok = False
            continue
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        target = metric["bound"] / 3
        steady = spread < target or metric["name"] == "setup_s"
        ok = ok and steady
        print("%-30s %14.6g %7.2f%% %7.2f%% %-6s %s" % (
            metric["name"], median, 100 * spread, 100 * target,
            "" if steady else "SPREAD", " ".join("%.4g" % v for v in vals)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
