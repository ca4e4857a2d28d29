#!/usr/bin/env python3
"""Build the kdv binary and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload cold_render --seed 1 --seconds 10 --trace 0

`--workload all` runs the three workloads in turn. Run from the
repository root. Build products go to $CARGO_TARGET_DIR
(default .bench_build); per-run scratch files go under it too and are
removed when the run ends. Cargo output goes to stderr, so the last line
of stdout is the benchmark's JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(manifest, extra, target):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + extra
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"build failed: {' '.join(cmd)}")


WORKLOADS = ["cold_render", "map_session", "ingest_mix"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(root_manifest):
        sys.exit("no Cargo.toml at the repository root: nothing to benchmark")
    cargo_build(root_manifest, ["-p", "kdv-cli"], target)
    cargo_build(os.path.join(HERE, "Cargo.toml"), [], target)

    def cmd(workload):
        return [
            os.path.join(target, "release", "perfbench"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--kdv", os.path.join(target, "release", "kdv"),
            "--root", ROOT,
            "--work", os.path.join(target, "perfbench-work"),
        ]

    sys.stdout.flush()
    if args.workload != "all":
        sys.exit(subprocess.run(cmd(args.workload), cwd=ROOT).returncode)

    # Every workload in turn; the last line sums them, with each metric
    # prefixed by its workload.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(cmd(workload), cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="", flush=True)
        if done.returncode != 0:
            sys.exit(done.returncode)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))


if __name__ == "__main__":
    main()
