#!/usr/bin/env python3
"""Builds and runs the postblock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload device_mix --seed 1 --seconds 10 --trace 0

--workload is one of the workloads in BENCHMARK.json, or "all" to run
each in turn. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer ones (and writes that run's spans as CSV into the build
directory). The last line of standard output is the result as JSON.

The benchmark is compiled from the sources in this checkout with CMake
into $CARGO_TARGET_DIR (default .bench_build) under the checkout root.
Exits non-zero, without a result, when the build or the run fails or the
result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    target = target.resolve()
    if ROOT not in target.parents:  # never write outside the checkout
        target = ROOT / ".bench_build"
    return target


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no postblock sources under {ROOT / 'src'}")
    cmake_dir = target / "perfbench-cmake"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build logs go to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return cmake_dir / "perfbench"


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the benchmark printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("result attempted no ops")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if [m["name"] for m in want] != list(got):
        fail("printed metrics differ from BENCHMARK.json")
    for m in want:
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"unit of {m['name']} differs from BENCHMARK.json")
    return result


def run_one(binary, target, spec, args):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = target / "perfbench-spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{args.workload}.spans.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    check_result(lines[-1], spec, args.trace)
    return lines[-1]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload}; choose from {names} or all")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = build_dir()
    binary = build(target)
    if args.workload != "all":
        print(run_one(binary, target, spec, args), flush=True)
        return
    results = {}
    for name in names:
        args.workload = name
        start = time.monotonic()
        line = run_one(binary, target, spec, args)
        print(f"{name} ({time.monotonic() - start:.1f} s): {line}", flush=True)
        results[name] = json.loads(line)
    print(json.dumps(results))


if __name__ == "__main__":
    main()
