#!/usr/bin/env python3
"""Builds and runs the UStore benchmark.

    python3 perfbench/run.py --workload {scale_100k|archive_io|stripes}
                             --seed N --seconds S --trace {0|1}

Run from the repository root. The first call configures and builds the
program's libraries and the benchmark binary in Release mode under
.bench_build/perfbench (later calls rebuild incrementally), then runs the
binary. Its standard output passes through; the last line is one JSON
object with correct/attempted/failed and the metrics, each with the unit
BENCHMARK.json declares for it. The exit code is non-zero if the build
fails, a check fails or the result is malformed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ustore_perf")
WORKLOADS = ("scale_100k", "archive_io", "stripes")


def build():
    """Configures (once) and builds the Release binary; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no UStore sources at %s/src\n" % ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "ustore_perf",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return False
    return os.path.isfile(BINARY)


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("perfbench: the benchmark printed no result line\n")
        return 1
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write("perfbench: correctness checks failed\n")
        print(lines[-1])
        return proc.returncode or 1
    # The binary emits name -> value. Every end-to-end metric must be
    # there; a per-layer metric the workload does not reach reads 0.
    declared = declared_metrics(args.trace == 1)
    values = result["metrics"]
    unknown = sorted(set(values) - set(declared))
    missing = [] if args.trace else sorted(set(declared) - set(values))
    if unknown or missing:
        sys.stderr.write("perfbench: metrics differ from BENCHMARK.json: "
                         "undeclared %s, missing %s\n" % (unknown, missing))
        return 1
    result["metrics"] = {name: {"value": values.get(name, 0), "unit": unit}
                         for name, unit in declared.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
