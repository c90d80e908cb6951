#!/usr/bin/env python3
"""Write E13's work counts at one seed as gateable bench records.

Usage: e13_counts.py

For each E13 workload, runs

    python3 perfbench/run.py --workload W --seed 711 --seconds 0 --trace 1

(which builds the benchmark first if needed) and writes one record per
workload to BENCH_e13_counts.json in the current directory:

    {"bench": "e13_counts", "workload": W, "seed": 711, FIELD: value, ...}

FIELDS are counts and counts per transaction, which repeat exactly for a
seed on any machine, so bench/baselines/smoke_gates.json pins them with eq
gates. Exit status: 0 when every workload wrote its record, 1 when a run
failed or came out incorrect (nothing is written), 2 on a usage error.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("decl_steady", "baseline_storm", "quota_trunk")
SEED = 711
FIELDS = ("app.workload.attempts", "sim.flow.reallocs_per_tx",
          "sim.flow.reschedules_per_tx", "sim.event_queue.events_per_tx",
          "cloud.path.calls_per_tx")
OUT = "BENCH_e13_counts.json"


def record(workload, result):
    """The record for one run.py result; KeyError if a field is missing."""
    metrics = result["metrics"]
    return {"bench": "e13_counts", "workload": workload, "seed": SEED,
            **{field: metrics[field]["value"] for field in FIELDS}}


def run(workload):
    """run.py's result object for one workload, or None if the run failed
    (its log then goes to stderr)."""
    done = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(done.stdout.splitlines()[-1])


def main(argv):
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    records = []
    for workload in WORKLOADS:
        result = run(workload)
        if result is None or not result["correct"]:
            print(f"e13_counts: {workload} failed", file=sys.stderr)
            return 1
        records.append(record(workload, result))
        print(json.dumps(records[-1]))
    with open(OUT, "w") as f:
        json.dump(records, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
