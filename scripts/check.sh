#!/usr/bin/env bash
# Tier-1 verify, end to end: configure, build, run the full CTest corpus.
# The default (full) mode additionally validates the committed bench
# baselines (BENCH_kernels.json, BENCH_service.json, BENCH_latency.json)
# against their schemas, link-checks the markdown
# docs, runs a scripted factorhd_serve session with tracing on,
# validating the Prometheus scrapes and the Chrome trace dump with
# scripts/check_obs.py, and runs the FHN1 oracle of
# scripts/perfbench_oracle.sh (perfbench self-tests plus a short run of
# each workload, every wire answer checked against a direct factorize).
#
# Usage:
#   scripts/check.sh          # full corpus (the ROADMAP tier-1 gate)
#   scripts/check.sh --fast   # unit-labelled suites only (pre-commit loop)
#   scripts/check.sh --asan   # Debug + ASan/UBSan + -Werror, full corpus
#   scripts/check.sh --tsan   # Debug + ThreadSanitizer + -Werror, the
#                             # threading suites (parallel_for, batch
#                             # determinism, kernel fuzz, batch, service
#                             # soak, sharded scatter-gather, metrics,
#                             # trace ring, network faults, service
#                             # engine, network differential) only, each
#                             # up to 20 times
#
# Extra arguments after the mode are forwarded to ctest.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
CHECK_BASELINES=1
CMAKE_ARGS=()
CTEST_ARGS=(--output-on-failure -j "$(nproc)")

case "${1:-}" in
  --fast)
    shift
    CHECK_BASELINES=0
    CTEST_ARGS+=(-L unit)
    ;;
  --asan)
    shift
    CHECK_BASELINES=0
    BUILD_DIR=build-asan
    CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE=Debug -DFACTORHD_SANITIZE=ON -DFACTORHD_WERROR=ON)
    ;;
  --tsan)
    shift
    CHECK_BASELINES=0
    BUILD_DIR=build-tsan
    CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE=Debug -DFACTORHD_TSAN=ON -DFACTORHD_WERROR=ON)
    # The suites that exercise the worker pools (util::parallel_for and its
    # callers: BatchFactorizer, the parallel plane scans, the sharded
    # scatter-gather, the serving engine and its queue, the wait-free
    # metrics/trace plumbing, and the network front end's event loop
    # submitting to the engine over real sockets), each repeated until it
    # fails, at most 20 times; everything else is single-threaded.
    CTEST_ARGS+=(--repeat until-fail:20 -R 'ParallelFor|BatchDeterminism|KernelFuzz|BatchTest|ServiceSoak|ShardedMemory|ShardedSoak|MetricsConcurrency|TraceRing|NetFaults|ServiceEngineTest|ServiceMetrics|NetDifferentialTest')
    ;;
esac
CTEST_ARGS+=("$@")

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" "${CTEST_ARGS[@]}"

if [[ "$CHECK_BASELINES" == 1 ]]; then
  python3 scripts/bench_json.py --check BENCH_kernels.json
  python3 scripts/bench_json.py --check BENCH_service.json
  python3 scripts/bench_json.py --check BENCH_latency.json
  python3 scripts/check_links.py

  # Observability gate: drive a traced serve session, scrape Prometheus
  # twice (no reset in between), dump the Chrome trace, and validate all
  # three exports. Catches exposition-grammar drift, counters that go
  # backwards, and stage spans that stop being emitted.
  OBS_DIR=$(mktemp -d)
  trap 'rm -rf "$OBS_DIR"' EXIT
  printf '%s\n' \
    'model gen obs 3 8,4 2048 7' \
    'serve obs 8 100' \
    'burst 24 1' \
    "stats prom $OBS_DIR/prom1.txt" \
    'burst 24 2' \
    "stats prom $OBS_DIR/prom2.txt" \
    "trace dump $OBS_DIR/trace.json" \
    'quit' \
    | FACTORHD_TRACE_SAMPLE=1 "$BUILD_DIR/bin/factorhd_serve" > "$OBS_DIR/session.log"
  python3 scripts/check_obs.py \
    --prom "$OBS_DIR/prom1.txt" "$OBS_DIR/prom2.txt" \
    --trace "$OBS_DIR/trace.json"

  scripts/perfbench_oracle.sh 2
fi
