#!/usr/bin/env python3
"""Builds and runs the optsched benchmark.

    python3 perfbench/run.py --workload production --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds the
benchmark binary, optbench (perfbench/cpp), and the library it links from
src/ into .bench_build/perfbench; later runs rebuild only what changed.
A workload is an executor profile of optbench (production or paper); every
knob of it is a constant of perfbench/cpp/main.cc. The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
with the end-to-end metrics of BENCHMARK.json for --trace 0 and the
per-layer metrics for --trace 1. The traced run also writes a Chrome trace
to .bench_build/traces/<workload>.json.

--max-steal-batch N overrides the profile's steal batch cap; it exists for
the sensitivity check (a forced max_steal_batch=1 must read worse on
steal.items_per_s) and is never used by a normal run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "optbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds optbench; the output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "optbench", "-j", BUILD_JOBS],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-steal-batch", type=int, default=None)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload '{args.workload}'")
    expected = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"build failed: {e}")
        return 1

    command = [BINARY, "--profile", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        command += ["--trace-out", os.path.join(TRACE_DIR, f"{args.workload}.json")]
    if args.max_steal_batch is not None:
        command += ["--max-steal-batch", str(args.max_steal_batch)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"optbench exceeded {RUN_TIMEOUT_S}s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"optbench exited {proc.returncode} without a result")
        return 1
    raw = json.loads(lines[-1])
    missing = sorted(set(units) - set(raw["metrics"]))
    extra = sorted(set(raw["metrics"]) - set(units))
    if missing or extra:
        log(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
        return 1
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": raw["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not raw["correct"]:
        log(f"optbench exited {proc.returncode}; correct={raw['correct']}")
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
