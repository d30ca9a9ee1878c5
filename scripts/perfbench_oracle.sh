#!/usr/bin/env bash
# FHN1 correctness oracle: builds the end-to-end benchmark (perfbench/),
# runs its helper self-tests, then one short run of each workload below.
# The benchmark compares every answer it receives over the wire with a
# direct Factorizer::factorize, so a run passes only when its last line
# reports "correct": true and "failed": 0. About 7 s per workload on a
# 4-core box once built.
#
# Usage: scripts/perfbench_oracle.sh [SECONDS]   (default 2 per workload)
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_SECONDS=${1:-2}
# perfbench/run.py builds into the same directory.
BUILD_DIR=${CARGO_TARGET_DIR:-.bench_build}

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -S perfbench -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" --target perfbench_selftest
"$BUILD_DIR/perfbench_selftest"

for workload in paper_open scene_hot_mix; do
  last=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
           --seconds "$RUN_SECONDS" --trace 0 | tail -n 1)
  python3 - "$workload" "$last" <<'PY'
import json
import sys

workload, line = sys.argv[1], sys.argv[2]
result = json.loads(line)
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit(f"perfbench {workload}: correct={result.get('correct')} "
             f"failed={result.get('failed')} of {result.get('attempted')}")
print(f"perfbench {workload}: correct, 0 failed of {result['attempted']}")
PY
done
