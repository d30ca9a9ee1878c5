// service::TraceRing / chrome_trace_json / SlowQueryLog.
//
// The load-bearing guarantees: (1) the sampled-id SET is a pure function of
// the request count — identical whether ids are claimed by one thread or
// many, so traced workloads are comparable across dispatcher counts; (2)
// record() is wait-free and never tears a trace visible to collect();
// (3) the Chrome export covers every pipeline stage a request went through
// and skips the stages it never reached (cache hits).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/trace.hpp"

namespace {

using factorhd::service::chrome_trace_json;
using factorhd::service::RequestTrace;
using factorhd::service::SlowQueryLog;
using factorhd::service::TraceRing;

/// A fully-populated computed-request trace with plausible stage ordering.
RequestTrace make_trace(std::uint64_t id) {
  RequestTrace t;
  t.id = id;
  t.submit_ns = 1000;
  t.cache_done_ns = 1500;
  t.enqueue_ns = 1600;
  t.dequeue_ns = 2500;
  t.scan_start_ns = 2700;
  t.scan_end_ns = 9000;
  t.complete_ns = 9400;
  t.batch_size = 4;
  t.shards = 1;
  t.rows_scanned = 1234;
  t.rounds = 3;
  return t;
}

/// The set of ids a workload of `total` requests samples at 1-in-N, claimed
/// from `ring` by `threads` concurrent claimants.
std::set<std::uint64_t> sampled_ids(TraceRing& ring, std::size_t total,
                                    unsigned threads) {
  std::vector<std::set<std::uint64_t>> per_thread(threads);
  std::atomic<std::size_t> remaining{total};
  std::vector<std::jthread> pool;
  pool.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    pool.emplace_back([&ring, &remaining, &per_thread, w] {
      while (true) {
        std::size_t r = remaining.load(std::memory_order_relaxed);
        if (r == 0 ||
            !remaining.compare_exchange_weak(r, r - 1,
                                             std::memory_order_relaxed)) {
          if (r == 0) break;
          continue;
        }
        const std::uint64_t id = ring.next_id();
        if (ring.sampled(id)) per_thread[w].insert(id);
      }
    });
  }
  for (std::jthread& t : pool) t.join();
  std::set<std::uint64_t> all;
  for (const auto& s : per_thread) all.insert(s.begin(), s.end());
  return all;
}

// ---------------------------------------------------------------------------
// Sampling determinism.

TEST(TraceRing, SampledIdSetIsIdenticalAcrossThreadCounts) {
  constexpr std::size_t kRequests = 4000;
  constexpr std::size_t kEvery = 8;
  TraceRing solo(64, kEvery);
  TraceRing pooled(64, kEvery);
  const std::set<std::uint64_t> one = sampled_ids(solo, kRequests, 1);
  const std::set<std::uint64_t> four = sampled_ids(pooled, kRequests, 4);
  // Expected: exactly the multiples of kEvery below kRequests.
  std::set<std::uint64_t> expected;
  for (std::uint64_t id = 0; id < kRequests; id += kEvery) expected.insert(id);
  EXPECT_EQ(one, expected);
  EXPECT_EQ(four, expected);
}

TEST(TraceRing, DisabledRingSamplesNothing) {
  TraceRing ring(16, 0);
  EXPECT_FALSE(ring.enabled());
  for (std::uint64_t id = 0; id < 100; ++id) EXPECT_FALSE(ring.sampled(id));
}

TEST(TraceRing, SampleEveryOneSamplesEverything) {
  TraceRing ring(16, 1);
  EXPECT_TRUE(ring.enabled());
  for (std::uint64_t id = 0; id < 100; ++id) EXPECT_TRUE(ring.sampled(id));
}

// ---------------------------------------------------------------------------
// Ring semantics.

TEST(TraceRing, RecordCollectRoundTripsSortedById) {
  TraceRing ring(32, 1);
  for (std::uint64_t id : {7u, 3u, 11u, 0u}) ring.record(make_trace(id));
  EXPECT_EQ(ring.occupancy(), 4u);
  EXPECT_EQ(ring.recorded(), 4u);
  EXPECT_EQ(ring.dropped(), 0u);
  const std::vector<RequestTrace> out = ring.collect();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_TRUE(std::is_sorted(
      out.begin(), out.end(),
      [](const RequestTrace& a, const RequestTrace& b) { return a.id < b.id; }));
  EXPECT_EQ(out.front().id, 0u);
  EXPECT_EQ(out.back().id, 11u);
  EXPECT_EQ(out.front().rows_scanned, 1234u);
}

TEST(TraceRing, WrapAroundRetainsTheLastCapacityTraces) {
  TraceRing ring(8, 1);
  for (std::uint64_t id = 0; id < 20; ++id) ring.record(make_trace(id));
  EXPECT_EQ(ring.occupancy(), 8u);
  const std::vector<RequestTrace> out = ring.collect();
  ASSERT_EQ(out.size(), 8u);
  // The ring overwrites round-robin: the survivors are the newest 8.
  EXPECT_EQ(out.front().id, 12u);
  EXPECT_EQ(out.back().id, 19u);
}

TEST(TraceRing, ConcurrentRecordAndCollectNeverTearATrace) {
  TraceRing ring(16, 1);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::vector<std::jthread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        ring.record(make_trace(static_cast<std::uint64_t>(w) * kPerWriter + i));
      }
    });
  }
  std::jthread reader([&ring, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const RequestTrace& t : ring.collect()) {
        // Payload fields travel together: a torn copy would show the
        // make_trace constants out of sync with each other.
        ASSERT_EQ(t.submit_ns, 1000u);
        ASSERT_EQ(t.complete_ns, 9400u);
        ASSERT_EQ(t.rows_scanned, 1234u);
      }
    }
  });
  for (std::jthread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  // Every record attempt is accounted for exactly once.
  EXPECT_EQ(ring.recorded() + ring.dropped(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_GT(ring.recorded(), 0u);
  EXPECT_LE(ring.occupancy(), ring.capacity());
}

// ---------------------------------------------------------------------------
// Chrome trace export.

TEST(TraceRing, ChromeJsonCoversEveryStageOfAComputedRequest) {
  const std::vector<RequestTrace> traces = {make_trace(42)};
  const std::string json = chrome_trace_json(traces);
  for (const char* needle :
       {"\"traceEvents\":[", "\"name\":\"request\"",
        "\"name\":\"cache_lookup\"", "\"name\":\"queue_wait\"",
        "\"name\":\"batch_assembly\"", "\"name\":\"scan\"",
        "\"name\":\"merge\"", "\"ph\":\"X\"", "\"tid\":42",
        "\"rows_scanned\":1234", "\"displayTimeUnit\":\"ns\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST(TraceRing, ChromeJsonSkipsStagesACacheHitNeverReached) {
  RequestTrace hit;
  hit.id = 7;
  hit.submit_ns = 100;
  hit.cache_done_ns = 300;
  hit.complete_ns = 300;
  hit.cache_hit = true;
  const std::string json = chrome_trace_json(std::vector<RequestTrace>{hit});
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"cache_lookup\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit\":true"), std::string::npos);
  for (const char* absent : {"\"name\":\"queue_wait\"",
                             "\"name\":\"batch_assembly\"", "\"name\":\"scan\"",
                             "\"name\":\"merge\""}) {
    EXPECT_EQ(json.find(absent), std::string::npos) << absent;
  }
}

// ---------------------------------------------------------------------------
// Slow-query log.

TEST(TraceRing, SlowQueryLogEmitsOverThresholdAndRateLimits) {
  std::ostringstream sink;
  // 1 us threshold, 1 ms min interval; make_trace's e2e is 8.4 us.
  SlowQueryLog log(1, &sink, 1);
  RequestTrace a = make_trace(1);
  log.observe(a);
  EXPECT_EQ(log.emitted(), 1u);
  // Same completion window -> suppressed by the rate limiter.
  RequestTrace b = make_trace(2);
  log.observe(b);
  EXPECT_EQ(log.emitted(), 1u);
  EXPECT_EQ(log.suppressed(), 1u);
  // A completion 2 ms later clears the interval.
  RequestTrace c = make_trace(3);
  c.submit_ns += 2'000'000;
  c.cache_done_ns += 2'000'000;
  c.enqueue_ns += 2'000'000;
  c.dequeue_ns += 2'000'000;
  c.scan_start_ns += 2'000'000;
  c.scan_end_ns += 2'000'000;
  c.complete_ns += 2'000'000;
  log.observe(c);
  EXPECT_EQ(log.emitted(), 2u);
  const std::string lines = sink.str();
  EXPECT_NE(lines.find("\"slow_query\":{\"id\":1"), std::string::npos);
  EXPECT_EQ(lines.find("\"slow_query\":{\"id\":2"), std::string::npos);
  EXPECT_NE(lines.find("\"slow_query\":{\"id\":3"), std::string::npos);
  EXPECT_NE(lines.find("\"stages_us\":{\"cache_lookup\":"), std::string::npos);
}

TEST(TraceRing, SlowQueryLogIgnoresFastRequestsAndDisabledThreshold) {
  std::ostringstream sink;
  SlowQueryLog log(1000, &sink, 1);  // 1 ms threshold
  log.observe(make_trace(1));       // 8.4 us e2e: not slow
  EXPECT_EQ(log.emitted(), 0u);
  EXPECT_EQ(log.suppressed(), 0u);
  SlowQueryLog off(0, &sink, 1);
  EXPECT_FALSE(off.enabled());
  off.observe(make_trace(2));
  EXPECT_EQ(off.emitted(), 0u);
  EXPECT_TRUE(sink.str().empty());
}

}  // namespace
