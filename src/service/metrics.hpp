// Serving-runtime metrics: lock-free counters plus latency histograms —
// end-to-end and per pipeline stage — snapshotable at any time while the
// engine is serving.
//
// Everything is a relaxed atomic — metrics never synchronize the hot path,
// they only observe it. Counters and histograms only ever grow, as
// Prometheus counters must: an operator who wants a fresh epoch keeps an
// earlier snapshot as a baseline and reads current.since(baseline). Latency percentiles come from power-of-two bucket
// histograms (64 buckets over nanoseconds); a snapshot's p50/p99/p99.9
// report the geometric midpoint of the quantile's bucket (2^(i+0.5) ns for
// bucket i), so the reported value is within a factor of sqrt(2) (~1.41x)
// of the true bucketed quantile in either direction — the bucket upper
// bound would instead overstate a single-latency stream by up to 2x. That
// fidelity is right for a serving dashboard and keeps recording allocation-
// and lock-free.
//
// Exports: MetricsSnapshot::to_string() renders the human `stats` view;
// to_prometheus() renders the Prometheus text exposition format
// (counters as factorhd_*_total, stage latencies as summaries with
// quantile labels, per-shard scan counts with shard labels) — linted by
// scripts/check_obs.py.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace factorhd::service {

/// Pipeline stages request latency is attributed to. kCacheLookup is
/// recorded for every request (hit or miss); kScan and kMerge for every
/// computed (cache-miss) request; kQueueWait and kBatchAssembly only for
/// computed requests that went through the queue (not in-place runs). The kNet* stages are recorded
/// by the network front end (net::NetServer keeps its own Metrics set);
/// engine-owned Metrics leave them empty.
enum class Stage : std::size_t {
  kCacheLookup = 0,  ///< submit() → ResultCache probe done
  kQueueWait,        ///< enqueue → popped by a dispatcher
  kBatchAssembly,    ///< popped → batch handed to BatchFactorizer
  kScan,             ///< BatchFactorizer::factorize_all wall time
  kMerge,            ///< results back → completion run (+ cache insert)
  kNetRead,          ///< socket bytes → frame parsed + request decoded
  kAdmission,        ///< frame decoded → admitted + handed to the engine
  kNetWrite,         ///< engine completion → response bytes buffered
};
inline constexpr std::size_t kNumStages = 8;

/// Stable snake_case stage name (the Prometheus label / trace span name).
[[nodiscard]] const char* to_string(Stage stage) noexcept;

/// One consistent-enough view of the engine's counters (individual counters
/// are read relaxed; a snapshot taken while serving may be mid-request, but
/// after a drain it is exact).
struct MetricsSnapshot {
  /// Raw counts of one power-of-2 latency histogram: bucket i counts
  /// latencies in [2^i, 2^(i+1)) ns (see Metrics::bucket_of).
  using Buckets = std::array<std::uint64_t, 64>;

  std::uint64_t submitted = 0;      ///< accepted submit() calls
  std::uint64_t rejected = 0;       ///< submits refused by backpressure
  std::uint64_t completed = 0;      ///< completions run (incl. cache hits)
  std::uint64_t cache_hits = 0;     ///< served straight from the ResultCache
  std::uint64_t cache_misses = 0;   ///< enqueued for computation
  std::uint64_t batches = 0;        ///< micro-batches dispatched
  std::uint64_t batched_requests = 0;  ///< requests carried by those batches
  std::uint64_t coalesced = 0;      ///< duplicate requests deduped in-batch
  /// Cache misses computed on the submitting thread instead of a dispatcher
  /// (not counted in batches).
  std::uint64_t in_place = 0;
  std::size_t queue_depth = 0;      ///< pending requests at snapshot time
  std::size_t max_batch_observed = 0;
  double mean_batch = 0.0;          ///< batched_requests / batches
  /// submit→completion latency quantiles, bucket-quantized to the geometric
  /// midpoint of the power-of-2 bucket (within sqrt(2) of the true bucketed
  /// quantile).
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double p999_latency_us = 0.0;
  /// Approximate latency sum (bucket geometric midpoints x counts) — the
  /// Prometheus summary _sum line; same sqrt(2) fidelity as the quantiles.
  double latency_sum_us = 0.0;
  /// The end-to-end histogram the latency digest above is computed from.
  Buckets latency_buckets{};

  /// One stage's latency digest (same bucket quantization as above).
  struct StageLatency {
    std::uint64_t count = 0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double p999_us = 0.0;
    double sum_us = 0.0;  ///< approximate (bucket midpoints x counts)
    Buckets buckets{};    ///< the histogram the digest is computed from
  };
  /// Per-stage digests, indexed by Stage.
  std::array<StageLatency, kNumStages> stages{};

  /// Cumulative similarity measurements charged to each scan shard (empty
  /// when the served model is unsharded) — hot shards stand out here.
  std::vector<std::uint64_t> shard_rows_scanned;

  /// The activity between `baseline` (an earlier snapshot of the same
  /// counters) and this snapshot: counters, histograms and per-shard scan
  /// counts subtract (saturating at 0), and the latency digests are
  /// recomputed from the subtracted histograms. queue_depth and
  /// max_batch_observed are gauges and keep this snapshot's values. This is
  /// how factorhd_serve's `stats reset` starts a fresh epoch without ever
  /// decrementing a live counter.
  [[nodiscard]] MetricsSnapshot since(const MetricsSnapshot& baseline) const;

  /// Multi-line human-readable rendering (the `stats` command of
  /// factorhd_serve and the bench reports).
  [[nodiscard]] std::string to_string() const;

  /// Prometheus text exposition format: # HELP/# TYPE lines, counters as
  /// factorhd_*_total, gauges for queue depth, one summary family
  /// factorhd_stage_latency_us{stage=...} plus the end-to-end
  /// factorhd_request_latency_us summary, and
  /// factorhd_shard_rows_scanned_total{shard="N"} per shard.
  [[nodiscard]] std::string to_prometheus() const;
};

/// The engine's mutable counter set. All methods are thread-safe and
/// wait-free; const methods only read.
class Metrics {
 public:
  void on_submitted() noexcept { inc(submitted_); }
  void on_rejected() noexcept { inc(rejected_); }
  void on_cache_hit() noexcept { inc(cache_hits_); }
  void on_cache_miss() noexcept { inc(cache_misses_); }
  void on_coalesced() noexcept { inc(coalesced_); }
  void on_in_place() noexcept { inc(in_place_); }

  /// Records one dispatched micro-batch of `requests` requests.
  void on_batch(std::size_t requests) noexcept;

  /// Records one completed request and its submit→completion latency.
  void on_completed(double latency_us) noexcept;

  /// Records one request's dwell time in pipeline stage `stage`.
  void on_stage(Stage stage, double latency_us) noexcept;

  /// \param queue_depth The engine's current pending-queue length (the one
  ///   piece of state the metrics do not own).
  [[nodiscard]] MetricsSnapshot snapshot(std::size_t queue_depth) const;

  /// Convenience: snapshot(queue_depth).to_prometheus().
  [[nodiscard]] std::string to_prometheus(std::size_t queue_depth) const {
    return snapshot(queue_depth).to_prometheus();
  }

  /// Adds `other`'s counters (and latency histograms, bucket-wise; max for
  /// the batch high-water mark) into this set — how the engine aggregates
  /// its per-dispatcher metrics into one snapshot without double-counting:
  /// each event is recorded in exactly one Metrics instance and merged
  /// exactly once per aggregate. Reads `other` in the same downstream-first
  /// acquire order as snapshot(), so a live merge keeps the
  /// completed <= submitted inequalities when the submit-side set is merged
  /// last. Not atomic with respect to writers of *this* — merge into a
  /// local Metrics, as the engine does.
  void merge(const Metrics& other) noexcept;

  /// Histogram bucket for a latency: floor(log2(ns)), saturated into
  /// [0, 63]. Bucket i covers [2^i, 2^(i+1)) ns; sub-nanosecond (and NaN)
  /// latencies land in bucket 0. Exposed for the histogram edge tests.
  [[nodiscard]] static std::size_t bucket_of(double latency_us) noexcept;

 private:
  using Histogram = std::array<std::atomic<std::uint64_t>, 64>;

  // Release increments pair with snapshot()'s acquire loads: a snapshot
  // that sees a request's downstream counter (hit/miss/completion) is
  // guaranteed to also see its earlier `submitted` increment.
  static void inc(std::atomic<std::uint64_t>& c) noexcept {
    c.fetch_add(1, std::memory_order_release);
  }

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> in_place_{0};
  std::atomic<std::uint64_t> max_batch_{0};
  /// latency_ns histogram: bucket i counts latencies in [2^i, 2^(i+1)) ns.
  Histogram latency_buckets_{};
  /// Per-stage latency histograms, same bucketing, indexed by Stage.
  std::array<Histogram, kNumStages> stage_buckets_{};
};

}  // namespace factorhd::service
