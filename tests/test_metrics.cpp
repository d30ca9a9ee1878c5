// service::Metrics: histogram bucket edges, per-stage digests, baseline
// subtraction, the Prometheus renderer, and — the TSan-gated part —
// merge/snapshot under concurrent writers.
//
// The wait-free contract under test: recording never locks, counters never
// decrease, snapshot() can run at any time while writers are live and must
// preserve the completed <= submitted ordering (release increments paired
// with downstream-first acquire reads), and a merge taken after all writers
// joined is exact — every event counted once. Writer threads are jthreads,
// so a failed ASSERT returns through their joining destructors instead of
// aborting on a joinable std::thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "service/metrics.hpp"

namespace {

using factorhd::service::kNumStages;
using factorhd::service::Metrics;
using factorhd::service::MetricsSnapshot;
using factorhd::service::Stage;

/// The geometric midpoint metrics.cpp reports for bucket i, in us.
double bucket_midpoint_us(int i) {
  return std::ldexp(std::sqrt(2.0), i) / 1e3;
}

// ---------------------------------------------------------------------------
// bucket_of edges. Bucket i covers [2^i, 2^(i+1)) ns; the argument is us.

TEST(MetricsBucket, ZeroNegativeAndNaNLandInBucketZero) {
  EXPECT_EQ(Metrics::bucket_of(0.0), 0u);
  EXPECT_EQ(Metrics::bucket_of(-1.0), 0u);
  EXPECT_EQ(Metrics::bucket_of(std::numeric_limits<double>::quiet_NaN()), 0u);
  // Sub-nanosecond: 0.5 ns.
  EXPECT_EQ(Metrics::bucket_of(0.0005), 0u);
}

TEST(MetricsBucket, ExactPowersOfTwoNs) {
  // 1 ns -> bucket 0, and each doubling advances exactly one bucket.
  for (int i = 0; i < 40; ++i) {
    const double us = std::ldexp(1.0, i) / 1e3;  // 2^i ns in us
    EXPECT_EQ(Metrics::bucket_of(us), static_cast<std::size_t>(i))
        << "2^" << i << " ns";
  }
}

TEST(MetricsBucket, BucketBoundariesAreHalfOpen) {
  // 1023 ns is the last value of bucket 9; 1024 ns opens bucket 10.
  EXPECT_EQ(Metrics::bucket_of(1023.0 / 1e3), 9u);
  EXPECT_EQ(Metrics::bucket_of(1024.0 / 1e3), 10u);
  // 1 us = 1000 ns sits in [512, 1024) -> bucket 9.
  EXPECT_EQ(Metrics::bucket_of(1.0), 9u);
}

TEST(MetricsBucket, HugeLatenciesSaturateAtSixtyThree) {
  EXPECT_EQ(Metrics::bucket_of(1e18), 63u);
  EXPECT_EQ(Metrics::bucket_of(std::numeric_limits<double>::infinity()), 63u);
  EXPECT_EQ(Metrics::bucket_of(std::numeric_limits<double>::max()), 63u);
}

// ---------------------------------------------------------------------------
// Stage digests and renderers (single-threaded behavior).

TEST(MetricsStages, SingleSamplePerStageReportsItsBucketMidpoint) {
  Metrics m;
  // One 1 us sample (bucket 9) in every stage.
  for (std::size_t s = 0; s < kNumStages; ++s) {
    m.on_stage(static_cast<Stage>(s), 1.0);
  }
  const MetricsSnapshot snap = m.snapshot(0);
  for (std::size_t s = 0; s < kNumStages; ++s) {
    const auto& d = snap.stages[s];
    EXPECT_EQ(d.count, 1u) << to_string(static_cast<Stage>(s));
    EXPECT_DOUBLE_EQ(d.p50_us, bucket_midpoint_us(9));
    EXPECT_DOUBLE_EQ(d.p99_us, d.p50_us);
    EXPECT_DOUBLE_EQ(d.p999_us, d.p50_us);
    EXPECT_DOUBLE_EQ(d.sum_us, d.p50_us);
  }
}

TEST(MetricsStages, QuantilesAreMonotoneOnASpreadStream) {
  Metrics m;
  // 989 fast samples (~1 us), 9 at ~100 us, 2 at ~10 ms: the p50 rank lands
  // in the fast bucket, the p99 rank (990) in the 100 us bucket, and the
  // p99.9 rank (999) in the 10 ms bucket.
  for (int i = 0; i < 989; ++i) m.on_stage(Stage::kScan, 1.0);
  for (int i = 0; i < 9; ++i) m.on_stage(Stage::kScan, 100.0);
  m.on_stage(Stage::kScan, 10000.0);
  m.on_stage(Stage::kScan, 10000.0);
  const MetricsSnapshot snap = m.snapshot(0);
  const auto& d = snap.stages[static_cast<std::size_t>(Stage::kScan)];
  EXPECT_EQ(d.count, 1000u);
  EXPECT_LT(d.p50_us, d.p99_us);
  EXPECT_LT(d.p99_us, d.p999_us);
  EXPECT_GE(d.sum_us, d.p999_us);
}

TEST(MetricsStages, StageNamesAreStableSnakeCase) {
  EXPECT_STREQ(to_string(Stage::kCacheLookup), "cache_lookup");
  EXPECT_STREQ(to_string(Stage::kQueueWait), "queue_wait");
  EXPECT_STREQ(to_string(Stage::kBatchAssembly), "batch_assembly");
  EXPECT_STREQ(to_string(Stage::kScan), "scan");
  EXPECT_STREQ(to_string(Stage::kMerge), "merge");
}

TEST(MetricsStages, PrometheusRendererEmitsEveryFamily) {
  Metrics m;
  m.on_submitted();
  m.on_cache_miss();
  m.on_batch(1);
  m.on_stage(Stage::kScan, 3.0);
  m.on_completed(5.0);
  MetricsSnapshot snap = m.snapshot(2);
  snap.shard_rows_scanned = {100, 200};
  const std::string prom = snap.to_prometheus();
  for (const char* needle :
       {"# TYPE factorhd_requests_submitted_total counter",
        "factorhd_requests_submitted_total 1",
        "# TYPE factorhd_queue_depth gauge", "factorhd_queue_depth 2",
        "# TYPE factorhd_request_latency_us summary",
        "factorhd_request_latency_us{quantile=\"0.999\"}",
        "factorhd_request_latency_us_count 1",
        "factorhd_stage_latency_us{stage=\"scan\",quantile=\"0.5\"}",
        "factorhd_shard_rows_scanned_total{shard=\"0\"} 100",
        "factorhd_shard_rows_scanned_total{shard=\"1\"} 200"}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << needle;
  }
}

TEST(MetricsStages, SinceBaselineCountsOnlyLaterEvents) {
  Metrics m;
  m.on_submitted();
  m.on_cache_miss();
  m.on_batch(3);
  m.on_stage(Stage::kMerge, 2.0);
  m.on_completed(4.0);
  MetricsSnapshot baseline = m.snapshot(0);
  baseline.shard_rows_scanned = {10, 20};

  // The second epoch records different latencies, so every digest of the
  // difference must come from these samples alone.
  m.on_submitted();
  m.on_submitted();
  m.on_cache_hit();
  m.on_cache_miss();
  m.on_batch(1);
  m.on_stage(Stage::kScan, 100.0);
  m.on_completed(1000.0);
  m.on_completed(1000.0);
  MetricsSnapshot now = m.snapshot(5);
  now.shard_rows_scanned = {15, 50};

  const MetricsSnapshot d = now.since(baseline);
  EXPECT_EQ(d.submitted, 2u);
  EXPECT_EQ(d.completed, 2u);
  EXPECT_EQ(d.cache_hits, 1u);
  EXPECT_EQ(d.cache_misses, 1u);
  EXPECT_EQ(d.batches, 1u);
  EXPECT_EQ(d.batched_requests, 1u);
  EXPECT_DOUBLE_EQ(d.mean_batch, 1.0);
  // Gauges are not differences: they keep the current reading.
  EXPECT_EQ(d.queue_depth, 5u);
  EXPECT_EQ(d.max_batch_observed, 3u);
  const double slow_us =
      bucket_midpoint_us(static_cast<int>(Metrics::bucket_of(1000.0)));
  EXPECT_DOUBLE_EQ(d.p50_latency_us, slow_us);
  EXPECT_DOUBLE_EQ(d.p999_latency_us, slow_us);
  EXPECT_DOUBLE_EQ(d.latency_sum_us, 2 * slow_us);
  EXPECT_EQ(d.stages[static_cast<std::size_t>(Stage::kMerge)].count, 0u);
  EXPECT_EQ(d.stages[static_cast<std::size_t>(Stage::kScan)].count, 1u);
  EXPECT_EQ(d.shard_rows_scanned, (std::vector<std::uint64_t>{5, 30}));

  // The live counters never went down, and a snapshot minus itself is empty.
  EXPECT_EQ(m.snapshot(0).submitted, 3u);
  const MetricsSnapshot none = now.since(now);
  EXPECT_EQ(none.submitted, 0u);
  EXPECT_DOUBLE_EQ(none.p50_latency_us, 0.0);
  for (const auto& stage : none.stages) EXPECT_EQ(stage.count, 0u);
}

// ---------------------------------------------------------------------------
// Concurrency (runs under TSan via check.sh --tsan / the CI TSan job).

TEST(MetricsConcurrency, MergeAfterConcurrentWritersIsExact) {
  constexpr int kWriters = 4;
  constexpr int kEventsPerWriter = 5000;
  // One Metrics per writer, as the engine keeps one per dispatcher.
  std::vector<Metrics> per_writer(kWriters);
  std::vector<std::jthread> threads;
  threads.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&per_writer, w] {
      Metrics& m = per_writer[static_cast<std::size_t>(w)];
      for (int i = 0; i < kEventsPerWriter; ++i) {
        m.on_submitted();
        m.on_cache_miss();
        m.on_batch(2);
        m.on_stage(Stage::kQueueWait, 1.0 + static_cast<double>(i % 7));
        m.on_stage(Stage::kScan, 10.0);
        m.on_completed(static_cast<double>(1 + i % 100));
      }
    });
  }
  // Live merges while writers run: totals are transient but must never
  // violate completed <= submitted (downstream-first merge order).
  for (int probe = 0; probe < 50; ++probe) {
    Metrics agg;
    for (const Metrics& m : per_writer) agg.merge(m);
    const MetricsSnapshot snap = agg.snapshot(0);
    ASSERT_LE(snap.completed, snap.submitted);
    ASSERT_LE(snap.cache_hits + snap.cache_misses, snap.submitted);
  }
  for (std::jthread& t : threads) t.join();
  // After the join, one more merge must be exact.
  Metrics agg;
  for (const Metrics& m : per_writer) agg.merge(m);
  const MetricsSnapshot snap = agg.snapshot(0);
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kWriters) * kEventsPerWriter;
  EXPECT_EQ(snap.submitted, kTotal);
  EXPECT_EQ(snap.completed, kTotal);
  EXPECT_EQ(snap.cache_misses, kTotal);
  EXPECT_EQ(snap.batches, kTotal);
  EXPECT_EQ(snap.batched_requests, 2 * kTotal);
  const auto& queue = snap.stages[static_cast<std::size_t>(Stage::kQueueWait)];
  const auto& scan = snap.stages[static_cast<std::size_t>(Stage::kScan)];
  EXPECT_EQ(queue.count, kTotal);
  EXPECT_EQ(scan.count, kTotal);
  EXPECT_DOUBLE_EQ(scan.p50_us, bucket_midpoint_us(13));  // 10 us -> bucket 13
}

TEST(MetricsConcurrency, SnapshotUnderPollerKeepsCompletedLeSubmitted) {
  Metrics m;
  std::atomic<bool> stop{false};
  std::jthread writer([&m, &stop] {
    for (int i = 0; i < 20000 && !stop.load(std::memory_order_relaxed); ++i) {
      m.on_submitted();
      m.on_cache_miss();
      m.on_stage(Stage::kMerge, 2.0);
      m.on_completed(3.0);
    }
    stop.store(true, std::memory_order_relaxed);
  });
  while (!stop.load(std::memory_order_relaxed)) {
    const MetricsSnapshot snap = m.snapshot(0);
    ASSERT_LE(snap.completed, snap.submitted);
    ASSERT_LE(snap.cache_misses, snap.submitted);
  }
  writer.join();
  const MetricsSnapshot snap = m.snapshot(0);
  EXPECT_EQ(snap.submitted, 20000u);
  EXPECT_EQ(snap.completed, 20000u);
}

}  // namespace
