#include "util/env.hpp"

#include <algorithm>
#include <cstdlib>

namespace factorhd::util {

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return v;
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v) return fallback;
  return parsed;
}

std::size_t env_size_t(const char* name, std::size_t fallback,
                       std::size_t min_value, std::size_t max_value) {
  const std::int64_t parsed = env_int(name, -1);
  if (parsed < 0) return fallback;
  return std::clamp(static_cast<std::size_t>(parsed), min_value, max_value);
}

std::span<const EnvKnob> env_knobs() {
  // One row per knob, alphabetical. Keep in sync with the call sites (the
  // parsers cite this registry) and the table in docs/TUNING.md.
  static const EnvKnob kKnobs[] = {
      {"FACTORHD_BENCH_SCALE", "quick | full", "quick",
       "bench sweep sizes: reduced laptop-scale vs paper-scale"},
      {"FACTORHD_CSV_DIR", "directory path", "unset = no CSV",
       "bench harness: also write per-bench CSVs here"},
      {"FACTORHD_NET_CLIENT_QUOTA", "1 .. 2^20", "32",
       "net server: per-client in-flight request quota; exceeding it "
       "answers overload (quota) frames"},
      {"FACTORHD_NET_IDLE_TIMEOUT_MS", "10 .. 86400000", "30000",
       "net server: disconnect connections making no protocol progress "
       "(no complete frame parsed, no response bytes flushed) for this long"},
      {"FACTORHD_NET_MAX_FRAME", "1024 .. 2^30", "1048576",
       "net server: per-frame payload byte bound (mirrors the io.cpp "
       "pre-allocation guard); oversized length prefixes disconnect"},
      {"FACTORHD_NET_POLLER", "epoll | poll", "epoll",
       "net server: readiness backend; poll forces the portable poll(2) "
       "fallback even where epoll is available"},
      {"FACTORHD_NET_PORT", "0 (ephemeral) .. 65535", "0",
       "net server: TCP port bound on 127.0.0.1 by `listen`; 0 asks the "
       "kernel for an ephemeral port (printed on start)"},
      {"FACTORHD_NET_WRITE_BUF", "4096 .. 2^30", "8388608",
       "net server: per-connection write-buffer byte bound; clients not "
       "draining responses are disconnected at the limit"},
      {"FACTORHD_SCAN_THREADS", "0 (auto) .. 256", "0 = min(hardware, 8)",
       "width cap of every worker pool (plane scans, shard scatters, "
       "auto-width batches); 1 disables threading"},
      {"FACTORHD_SEED", "any u64", "42", "global experiment seed"},
      {"FACTORHD_SERVE_CACHE_CAP", "0 (off) .. 2^24", "4096",
       "factorhd_serve: ResultCache entries"},
      {"FACTORHD_SERVE_MAX_BATCH", "1 .. 4096", "64",
       "factorhd_serve: micro-batch flush size"},
      {"FACTORHD_SERVE_MAX_DELAY_US", "0 .. 10^6", "0",
       "factorhd_serve: how long a partial micro-batch waits for more "
       "requests (us); 0 dispatches at once"},
      {"FACTORHD_SERVE_QUEUE_CAP", "1 .. 2^20", "1024",
       "factorhd_serve: bounded engine request-queue capacity, the one "
       "depth bound; a full queue answers net overload (queue-full) frames"},
      {"FACTORHD_SHARDS", "1 .. 1024", "1 = unsharded",
       "codebook shard count of the scatter-gather scan partition "
       "(bit-identical results at any count)"},
      {"FACTORHD_SHARD_MIN_ROWS", "0 (never) .. 2^30", "65536",
       "codebook row count at which kAuto memories honour the env-requested "
       "shard count"},
      {"FACTORHD_SIMD", "auto | scalar | words | avx2 | avx512 | neon", "auto",
       "clamps the dispatched SIMD tier of packed codebook scans"},
      {"FACTORHD_SLOW_QUERY_US", "0 (off) .. 2^40", "0",
       "serve-side slow-query log: requests whose end-to-end latency exceeds "
       "this many microseconds emit a rate-limited JSONL stage breakdown"},
      {"FACTORHD_TRACE_RING", "1 .. 2^24", "4096",
       "serve-side trace-ring capacity: sampled request traces retained for "
       "`trace dump` (Chrome trace-event JSON)"},
      {"FACTORHD_TRACE_SAMPLE", "0 (off) .. 2^30", "0",
       "deterministic 1-in-N request tracing; the sampled id set depends "
       "only on the request count, not on dispatcher/thread counts"},
      {"FACTORHD_TRIALS", "0 (auto) .. any", "per-bench",
       "overrides per-point trial counts in the bench harness"},
  };
  return kKnobs;
}

bool bench_full_scale() {
  return env_string("FACTORHD_BENCH_SCALE", "") == "full";
}

std::uint64_t experiment_seed() {
  // Parsed unsigned so the full u64 range the registry documents is
  // honored (env_int's strtoll would saturate seeds above 2^63-1).
  const std::string v = env_string("FACTORHD_SEED", "");
  if (v.empty()) return 42;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
  if (end == v.c_str()) return 42;
  return static_cast<std::uint64_t>(parsed);
}

}  // namespace factorhd::util
