#!/usr/bin/env python3
"""Builds and runs the two-clock benchmark from a source checkout.

    python3 vbench/run.py --workload cold_paint --seed 42 --seconds 40 --trace 0

Run it from the root of a checkout. On first use it configures and builds the
benchmark (CMake, Release) from this checkout's sources into .bench_build/;
later runs rebuild only what changed. Build output goes to stderr. The last
line of stdout is the result: one JSON object with the keys correct,
attempted, failed and metrics. With --trace 1 the traced run's spans are
written to .bench_out/<workload>-seed<N>-trace.json. Without --seconds the
run lasts BENCHMARK.json's run_seconds, the length its bounds were set on.

Before printing, the result is checked against BENCHMARK.json: an untraced
run must report exactly its end_to_end metrics and a traced run exactly its
per_layer metrics, with the listed units. Any mismatch, a failed build or a
failed run exits nonzero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "vbench")
RUN_TIMEOUT_S = 175
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt in the working directory; run from the root of a checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "vbench", "-j", BUILD_JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="measured length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    expected = expected_metrics(spec, args.trace == 1)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        fail("benchmark exited with status %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no JSON result")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, unit mismatch %s"
             % (missing, extra, units))
    for line in lines[:-1]:
        print(line)
    print(lines[-1])


if __name__ == "__main__":
    main()
