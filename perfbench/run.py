#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload smallbank --seed 1 --seconds 10 \
        --trace 0

Run from the repository root. The phase runner is configured from
perfbench/ (which builds the libraries in src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. A workload is
three phases, each run in a process of its own: the workload's own phase
at full size and the other two as probes (README.md). The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; build and progress output goes to stderr. Exits 0 only when every
correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys

# Each workload's own phase; the other phases run as probes.
WORKLOADS = {
    "smallbank": "serve",
    "nemesis_validate": "validate",
    "mc_consensus": "check",
}
PHASES = ("serve", "validate", "check")


def parse_args():
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()  # unknown flags: usage and exit code 2
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    return args


def build(here, build_dir):
    if not os.path.isfile(os.path.join(here, "..", "src", "CMakeLists.txt")):
        print("perfbench: the repository's src/ is missing; run from a full "
              "checkout", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", here, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "--target", "scv_perfbench",
                 "-j", jobs]):
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
            return False
    return True


def run_phase(binary, phase, args, build_dir):
    """Runs one phase; returns its parsed result, or None if it printed
    none."""
    cmd = [binary, "--phase", phase,
           "--primary", "1" if WORKLOADS[args.workload] == phase else "0",
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = "spans-%s-%d-%s.jsonl" % (args.workload, args.seed, phase)
        cmd += ["--spans-out", os.path.join(build_dir, spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: phase %s printed no result (exit %d)" % (
            phase, proc.returncode), file=sys.stderr)
        return None
    result["correct"] = result["correct"] and proc.returncode == 0
    return result


def main():
    args = parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target_root, "perfbench"))
    if not build(here, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "scv_perfbench")

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    setup_s = 0.0
    for phase in PHASES:
        result = run_phase(binary, phase, args, build_dir)
        if result is None:
            return 1
        merged["correct"] = merged["correct"] and result["correct"]
        if WORKLOADS[args.workload] == phase:
            merged["attempted"] = result["attempted"]
            merged["failed"] = result["failed"]
        for name, metric in result["metrics"].items():
            if name == "setup_s":
                setup_s += metric["value"]
            else:
                merged["metrics"][name] = metric
    if not args.trace:
        # The workload's set-up time: every phase's median set-up.
        merged["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
