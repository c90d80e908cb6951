#!/usr/bin/env python3
"""Build and run the E13 end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the checkout's src/ libraries) into
.bench_build/perfbench; later calls rebuild only what changed. The build log
goes to stderr. The last line of stdout is the benchmark's result object:
{"correct", "attempted", "failed", "metrics"}. Exits non-zero, printing no
result, if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
WORKLOADS = ("decl_steady", "baseline_storm", "quota_trunk")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build():
    """Configures (once) and builds the benchmark; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {step[0]} failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: {' '.join(step)} exited {done.returncode}",
                  file=sys.stderr)
            return False
    return True


def valid_result(result):
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict)
            and all(set(m) == {"value", "unit"}
                    for m in result["metrics"].values()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no tenantnet sources next to perfbench/", file=sys.stderr)
        return 2
    if not build():
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"run.py: benchmark exited {done.returncode}", file=sys.stderr)
        return 1
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("run.py: benchmark printed no result", file=sys.stderr)
        return 1
    if not valid_result(result):
        print("run.py: malformed result: " + lines[-1], file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
