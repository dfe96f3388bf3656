#!/usr/bin/env python3
"""Benchmark entry point: build the binary, run one workload, print the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark binary (perfbench/perfbench.cpp)
is configured and built from source into $CARGO_TARGET_DIR (default
`.bench_build`); once built, later runs only re-check it. Build output goes
to stderr, and the last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

At the reference seed the per-cell event digests and RunMetrics fingerprints
must also equal the values recorded in perfbench/reference.json; a cell that
differs counts as failed on every cycle it ran. A binary that dies (a failed
simulator assertion) counts all of its operations as failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_SEED = 1


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configure and build the binary (a no-op when up to date); returns
    the binary path."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(out, f"spans-{args.workload}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode < 0:
        # Killed by a signal: a simulator assertion aborted the run.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 0
    if proc.returncode != 0:
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    failed = raw["failed"]
    with open(os.path.join(HERE, "reference.json")) as f:
        recorded = json.load(f).get(args.workload)
    if args.seed == REFERENCE_SEED and recorded is not None:
        cells = raw["cells"]
        cycles = raw["attempted"] // max(1, len(cells))
        if len(cells) != len(recorded):
            failed = raw["attempted"]
        for got, want in zip(cells, recorded):
            if got != want:
                failed += cycles
                print(f"perfbench: {args.workload} cell differs from the "
                      f"reference: {got} != {want}", file=sys.stderr)
    failed = min(failed, raw["attempted"])
    for note in raw["notes"]:
        print(f"perfbench: {note}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": raw["attempted"],
                      "failed": failed, "metrics": raw["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
