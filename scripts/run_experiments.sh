#!/usr/bin/env bash
# Regenerates bench_output.txt (all experiment tables) and test_output.txt.
# SMOKE=1 passes --smoke to every bench: the quick CI sizes where a bench has
# them; the other benches run as usual.
# JSON-emitting benches each write BENCH_<name>.json at the repo root, and
# scripts/e13_counts.py writes BENCH_e13_counts.json (E13's work counts, from
# a Release perfbench build); CI checks them with
# scripts/check_bench_regression.py against bench/baselines/smoke_gates.json.
# Exits non-zero if the build, any test or any bench fails.
set -uo pipefail
cd "$(dirname "$0")/.."
cmake -B build && cmake --build build || exit 1
smoke=""
[ "${SMOKE:-0}" = 1 ] && smoke="--smoke"
failed=""
ctest --test-dir build 2>&1 | tee test_output.txt || failed+=" ctest"
: > bench_output.txt
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "### $(basename "$b")" | tee -a bench_output.txt
  "$b" $smoke 2>&1 | tee -a bench_output.txt || failed+=" $(basename "$b")"
done
echo "### e13_counts" | tee -a bench_output.txt
python3 scripts/e13_counts.py 2>&1 | tee -a bench_output.txt || failed+=" e13_counts"
if [ -n "$failed" ]; then
  echo "FAILED:$failed" >&2
  exit 1
fi
