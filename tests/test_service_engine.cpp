// Differential and behavioral tests for service::FactorizationEngine.
//
// The load-bearing guarantee (ISSUE 4 acceptance): every future the engine
// fulfills carries a FactorizeResult bit-identical to a direct
// Factorizer::factorize call with the same (target, options) — regardless
// of micro-batch composition, BatchFactorizer thread count, duplicate
// coalescing, or cache state. The differential suites assert exact equality
// (FactorizeResult::operator==, doubles included) across engine
// configurations on a seeded workload.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/factorhd.hpp"
#include "service/service.hpp"

namespace {

using namespace factorhd;

struct WorkItem {
  hdc::Hypervector target;
  core::FactorizeOptions opts;
  core::FactorizeResult expected;
};

/// A seeded mixed workload (Rep-1 objects and Rep-3 scenes, some repeated,
/// some with partial-factorization options) with direct-call ground truth.
class ServiceEngineTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kDim = 1024;

  void SetUp() override {
    util::Xoshiro256 rng(1234);
    model_ = service::Model::make(
        "test", tax::TaxonomyCodebooks(tax::Taxonomy(3, {8, 4}), kDim, rng));

    core::FactorizeOptions single;
    core::FactorizeOptions partial;
    partial.selected_classes = {0, 2};
    partial.max_depth = 1;
    core::FactorizeOptions multi;
    multi.multi_object = true;
    multi.num_objects_hint = 2;

    const tax::Taxonomy& taxonomy = model_->books().taxonomy();
    for (std::size_t i = 0; i < 18; ++i) {
      WorkItem item;
      if (i % 3 == 2) {
        const tax::Scene scene = tax::random_scene(
            taxonomy, rng,
            {.num_objects = 2, .object = {}, .allow_duplicates = true});
        item.target = model_->encoder().encode_scene(scene);
        item.opts = multi;
      } else {
        item.target = model_->encoder().encode_object(
            tax::random_object(taxonomy, rng));
        item.opts = (i % 3 == 1) ? partial : single;
      }
      item.expected = model_->factorizer().factorize(item.target, item.opts);
      work_.push_back(std::move(item));
    }
    // Repeats (same target and options) exercise coalescing and caching.
    work_.push_back(work_[0]);
    work_.push_back(work_[2]);
    work_.push_back(work_[0]);
  }

  /// Submits the whole workload, waits, and asserts exact equality.
  void run_differential(service::FactorizationEngine& engine) {
    std::vector<std::future<core::FactorizeResult>> futures;
    futures.reserve(work_.size());
    for (const WorkItem& item : work_) {
      futures.push_back(engine.submit(item.target, item.opts));
    }
    for (std::size_t i = 0; i < work_.size(); ++i) {
      EXPECT_TRUE(futures[i].get() == work_[i].expected)
          << "engine result differs from direct factorize at item " << i;
    }
  }

  std::shared_ptr<const service::Model> model_;
  std::vector<WorkItem> work_;
};

TEST_F(ServiceEngineTest, NoBatchingMatchesDirect) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 1, .max_delay_us = 0, .cache_capacity = 0});
  run_differential(engine);
}

TEST_F(ServiceEngineTest, MicroBatchingMatchesDirect) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 8, .max_delay_us = 500, .cache_capacity = 0});
  run_differential(engine);
}

TEST_F(ServiceEngineTest, LargeBatchManyThreadsMatchesDirect) {
  service::FactorizationEngine engine(model_, {.max_batch = 64,
                                               .max_delay_us = 2000,
                                               .batch_threads = 4,
                                               .cache_capacity = 0});
  run_differential(engine);
}

TEST_F(ServiceEngineTest, MultipleDispatchersMatchDirect) {
  // MPMC: several queue-consumer threads forming flights concurrently.
  service::FactorizationEngine engine(model_, {.max_batch = 4,
                                               .max_delay_us = 100,
                                               .dispatchers = 3,
                                               .cache_capacity = 64});
  run_differential(engine);
  run_differential(engine);
}

TEST_F(ServiceEngineTest, CachingAndCoalescingMatchDirect) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 8, .max_delay_us = 500, .cache_capacity = 128});
  run_differential(engine);
  // Replay the whole workload: now largely cache-served — still identical.
  run_differential(engine);
  const auto m = engine.metrics();
  EXPECT_GT(m.cache_hits + m.coalesced, 0u)
      << "repeated workload should exercise reuse";
}

TEST_F(ServiceEngineTest, SequentialRepeatIsACacheHit) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 4, .max_delay_us = 100, .cache_capacity = 64});
  auto first = engine.submit(work_[0].target, work_[0].opts);
  EXPECT_TRUE(first.get() == work_[0].expected);
  // The first result is now cached; an identical request must hit and be
  // byte-identical.
  auto second = engine.submit(work_[0].target, work_[0].opts);
  EXPECT_TRUE(second.get() == work_[0].expected);
  EXPECT_GE(engine.metrics().cache_hits, 1u);
}

TEST_F(ServiceEngineTest, MetricsInvariantsAfterDrain) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 8, .max_delay_us = 200, .cache_capacity = 64});
  std::vector<std::future<core::FactorizeResult>> futures;
  for (const WorkItem& item : work_) {
    futures.push_back(engine.submit(item.target, item.opts));
  }
  for (auto& f : futures) (void)f.get();
  engine.stop();
  const auto m = engine.metrics();
  EXPECT_EQ(m.submitted, work_.size());
  EXPECT_EQ(m.completed, work_.size());
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.cache_hits + m.cache_misses, m.submitted);
  // Every miss was dispatched in some batch.
  EXPECT_EQ(m.batched_requests, m.cache_misses);
  EXPECT_GE(m.batches, 1u);
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_GT(m.p99_latency_us, 0.0);
  EXPECT_GE(m.p99_latency_us, m.p50_latency_us);
}

TEST_F(ServiceEngineTest, SubmitAfterStopThrowsEvenOnACachedTarget) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 4, .max_delay_us = 100, .cache_capacity = 64});
  auto fut = engine.submit(work_[0].target, work_[0].opts);
  (void)fut.get();  // result is now cached
  engine.stop();
  EXPECT_THROW((void)engine.submit(work_[0].target, work_[0].opts),
               service::EngineStoppedError)
      << "a stopped engine must refuse cache-answerable submits too";
}

TEST_F(ServiceEngineTest, StopDrainsEveryInFlightRequest) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 4, .max_delay_us = 100000, .cache_capacity = 0});
  std::vector<std::future<core::FactorizeResult>> futures;
  for (const WorkItem& item : work_) {
    futures.push_back(engine.submit(item.target, item.opts));
  }
  engine.stop();  // must drain, not abandon
  for (std::size_t i = 0; i < work_.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "future " << i << " not fulfilled by stop()";
    EXPECT_TRUE(futures[i].get() == work_[i].expected);
  }
  EXPECT_THROW((void)engine.submit(work_[0].target, work_[0].opts),
               service::EngineStoppedError);
  engine.stop();  // idempotent
}

TEST_F(ServiceEngineTest, RejectsWhenQueueFull) {
  // A huge max_batch with a long delay parks the batcher waiting on the
  // flush deadline while the queue (capacity 2) fills: deterministic
  // backpressure.
  service::FactorizationEngine engine(model_, {.max_batch = 1000,
                                               .max_delay_us = 5000000,
                                               .queue_capacity = 2,
                                               .reject_when_full = true,
                                               .cache_capacity = 0});
  std::vector<std::future<core::FactorizeResult>> accepted;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    try {
      accepted.push_back(engine.submit(work_[0].target, work_[0].opts));
    } catch (const service::QueueFullError&) {
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1u);
  EXPECT_LE(accepted.size(), 8u - rejected);
  engine.stop();  // drains the accepted ones
  for (auto& f : accepted) {
    EXPECT_TRUE(f.get() == work_[0].expected);
  }
  EXPECT_EQ(engine.metrics().rejected, rejected);
}

TEST_F(ServiceEngineTest, StopWhileBlockedOnBackpressureThrowsStoppedError) {
  // A parked batcher (huge max_batch + long flush deadline) with a
  // capacity-1 queue: the first submit fills the queue, the second blocks
  // on backpressure. stop() must wake it with EngineStoppedError — the
  // request was never enqueued, so fulfilling it is impossible.
  service::FactorizationEngine engine(model_, {.max_batch = 1000,
                                               .max_delay_us = 5000000,
                                               .queue_capacity = 1,
                                               .reject_when_full = false,
                                               .cache_capacity = 0});
  auto queued = engine.submit(work_[0].target, work_[0].opts);
  auto blocked = std::async(std::launch::async, [&] {
    return engine.submit(work_[1].target, work_[1].opts);
  });
  // Give the async submit a moment to reach the backpressure wait; if stop()
  // wins the race anyway, submit still throws EngineStoppedError, just from
  // the earlier stopped check.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.stop();
  EXPECT_THROW((void)blocked.get(), service::EngineStoppedError);
  EXPECT_TRUE(queued.get() == work_[0].expected)
      << "stop() must still drain the request that did get enqueued";
}

TEST_F(ServiceEngineTest, BlockingBackpressureEventuallyServesEverything) {
  service::FactorizationEngine engine(model_, {.max_batch = 2,
                                               .max_delay_us = 100,
                                               .queue_capacity = 2,
                                               .reject_when_full = false,
                                               .cache_capacity = 0});
  std::vector<std::future<core::FactorizeResult>> futures;
  for (std::size_t i = 0; i < 10; ++i) {  // > queue capacity: submit blocks
    futures.push_back(engine.submit(work_[i % 4].target, work_[i % 4].opts));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_TRUE(futures[i].get() == work_[i % 4].expected);
  }
  EXPECT_EQ(engine.metrics().rejected, 0u);
}

TEST_F(ServiceEngineTest, FailedFlightPropagatesExceptionAndStaysConsistent) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 4, .max_delay_us = 100, .cache_capacity = 64});
  // Passes submit (dimension is fine) but throws inside the dispatched
  // factorize_all: a selected class out of range.
  core::FactorizeOptions bad;
  bad.selected_classes = {99};
  auto poisoned = engine.submit(work_[0].target, bad);
  auto healthy = engine.submit(work_[1].target, work_[1].opts);
  EXPECT_THROW((void)poisoned.get(), std::invalid_argument);
  EXPECT_TRUE(healthy.get() == work_[1].expected)
      << "a failing options-group must not take down its flight-mates";
  engine.stop();
  const auto m = engine.metrics();
  EXPECT_EQ(m.submitted, 2u);
  EXPECT_EQ(m.completed, 2u)
      << "exceptionally fulfilled requests still count as completed";
  EXPECT_EQ(m.queue_depth, 0u);
}

// ---------------------------------------------------------------------------
// Completion callbacks: the engine's one completion path (the future submit
// wraps it). Every accepted request completes exactly once; a refused one
// never does.
// ---------------------------------------------------------------------------

TEST_F(ServiceEngineTest, CallbackSubmitMatchesDirectAndCompletesOnce) {
  service::FactorizationEngine engine(model_, {.max_batch = 8,
                                               .max_delay_us = 500,
                                               .dispatchers = 2,
                                               .cache_capacity = 64});
  // Two passes: the second is largely cache-served, so hits, coalesced
  // duplicates and computed results all go through the callback.
  const std::size_t n = 2 * work_.size();
  std::vector<std::atomic<int>> calls(n);
  std::vector<core::FactorizeResult> got(n);
  for (std::size_t i = 0; i < n; ++i) {
    const WorkItem& item = work_[i % work_.size()];
    engine.submit(item.target, item.opts,
                  [&, i](std::exception_ptr error,
                         const core::FactorizeResult& result) {
                    EXPECT_FALSE(error);
                    got[i] = result;
                    calls[i].fetch_add(1);
                  });
  }
  engine.stop();  // drains: every completion has run afterwards
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(calls[i].load(), 1) << "request " << i;
    EXPECT_TRUE(got[i] == work_[i % work_.size()].expected)
        << "callback result differs from direct factorize at request " << i;
  }
  EXPECT_EQ(engine.metrics().completed, n);
}

TEST_F(ServiceEngineTest, CacheHitCompletesInlineOnTheSubmittingThread) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 4, .max_delay_us = 100, .cache_capacity = 64});
  (void)engine.submit(work_[0].target, work_[0].opts).get();  // now cached
  bool ran = false;
  std::thread::id ran_on;
  engine.submit(work_[0].target, work_[0].opts,
                [&](std::exception_ptr error,
                    const core::FactorizeResult& result) {
                  EXPECT_FALSE(error);
                  EXPECT_TRUE(result == work_[0].expected);
                  ran = true;
                  ran_on = std::this_thread::get_id();
                });
  EXPECT_TRUE(ran) << "a cache hit must complete before submit returns";
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST_F(ServiceEngineTest, FailedFlightCompletesWithTheError) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 4, .max_delay_us = 100, .cache_capacity = 64});
  core::FactorizeOptions bad;
  bad.selected_classes = {99};  // throws inside the dispatched flight
  std::promise<std::exception_ptr> seen;
  engine.submit(work_[0].target, bad,
                [&](std::exception_ptr error,
                    const core::FactorizeResult& result) {
                  EXPECT_TRUE(result.objects.empty());
                  seen.set_value(std::move(error));
                });
  const std::exception_ptr error = seen.get_future().get();
  ASSERT_TRUE(error);
  EXPECT_THROW(std::rethrow_exception(error), std::invalid_argument);
}

TEST_F(ServiceEngineTest, RefusedSubmitNeverCallsBack) {
  std::atomic<int> calls{0};
  const service::Completion count = [&](std::exception_ptr,
                                        const core::FactorizeResult&) {
    calls.fetch_add(1);
  };
  {
    service::FactorizationEngine engine(model_, {});
    EXPECT_THROW(engine.submit(hdc::Hypervector(kDim + 1), {}, count),
                 std::invalid_argument);
  }
  {
    // A parked batcher and a capacity-1 queue: the second submit is full.
    service::FactorizationEngine engine(model_, {.max_batch = 1000,
                                                 .max_delay_us = 5000000,
                                                 .queue_capacity = 1,
                                                 .reject_when_full = true,
                                                 .cache_capacity = 0});
    engine.submit(work_[0].target, work_[0].opts, count);
    EXPECT_THROW(engine.submit(work_[1].target, work_[1].opts, count),
                 service::QueueFullError);
    engine.stop();  // drains the accepted one: exactly one call so far
    EXPECT_EQ(calls.load(), 1);
    EXPECT_THROW(engine.submit(work_[0].target, work_[0].opts, count),
                 service::EngineStoppedError);
  }
  EXPECT_EQ(calls.load(), 1) << "a refused submit must never complete";
}

TEST_F(ServiceEngineTest, DeadlineOrderDispatchesEarliestFirstAndTiesFifo) {
  // The batcher is held inside the first request's completion while six
  // more queue up; max_batch 1 then dispatches (and completes) them one at
  // a time, in queue order.
  service::FactorizationEngine engine(model_,
                                      {.max_batch = 1, .cache_capacity = 0});
  std::promise<void> holding;
  std::promise<void> release;
  engine.submit(work_[0].target, work_[0].opts,
                [&](std::exception_ptr, const core::FactorizeResult&) {
                  holding.set_value();
                  release.get_future().wait();
                });
  holding.get_future().wait();

  std::mutex mu;
  std::vector<int> order;
  const auto t0 = std::chrono::steady_clock::now();
  // {tag, deadline offset in us}: three ties at +100, in submit order.
  const std::pair<int, int> plan[] = {{0, 300}, {1, 100}, {2, 50},
                                      {3, 100}, {4, 0},   {5, 100}};
  for (const auto& [tag, offset] : plan) {
    const WorkItem& item = work_[1 + tag];
    ASSERT_EQ(engine.try_submit(
                  item.target, item.opts,
                  t0 + std::chrono::microseconds(offset),
                  [&, tag](std::exception_ptr error,
                           const core::FactorizeResult& result) {
                    EXPECT_FALSE(error);
                    EXPECT_TRUE(result == work_[1 + tag].expected);
                    std::lock_guard lock(mu);
                    order.push_back(tag);
                  }),
              service::SubmitStatus::kAccepted);
  }
  release.set_value();
  engine.stop();
  EXPECT_EQ(order, (std::vector<int>{4, 2, 1, 3, 5, 0}));
}

TEST_F(ServiceEngineTest, TrySubmitReportsQueueFullInsteadOfBlocking) {
  // reject_when_full = false makes submit() wait for space; try_submit()
  // on the same full queue must report kQueueFull at once. A parked
  // batcher (huge max_batch, 5 s hold) keeps the capacity-1 queue full.
  service::FactorizationEngine engine(model_, {.max_batch = 1000,
                                               .max_delay_us = 5000000,
                                               .queue_capacity = 1,
                                               .reject_when_full = false,
                                               .cache_capacity = 0});
  std::atomic<int> calls{0};
  const service::Completion count = [&](std::exception_ptr,
                                        const core::FactorizeResult&) {
    calls.fetch_add(1);
  };
  const auto now = std::chrono::steady_clock::now();
  ASSERT_EQ(engine.try_submit(work_[0].target, work_[0].opts, now, count),
            service::SubmitStatus::kAccepted);
  EXPECT_EQ(engine.try_submit(work_[1].target, work_[1].opts, now, count),
            service::SubmitStatus::kQueueFull);
  EXPECT_LT(std::chrono::steady_clock::now() - now, std::chrono::seconds(4))
      << "try_submit waited for the parked batcher";
  EXPECT_EQ(engine.metrics().rejected, 1u);
  engine.stop();  // drains the accepted one
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(engine.try_submit(work_[0].target, work_[0].opts, now, count),
            service::SubmitStatus::kStopped);
  EXPECT_EQ(calls.load(), 1) << "a refused try_submit must never complete";
}

TEST_F(ServiceEngineTest, ValidatesArguments) {
  EXPECT_THROW(service::FactorizationEngine(nullptr), std::invalid_argument);
  EXPECT_THROW(service::FactorizationEngine(model_, {.max_batch = 0}),
               std::invalid_argument);
  EXPECT_THROW(service::FactorizationEngine(model_, {.queue_capacity = 0}),
               std::invalid_argument);
  service::FactorizationEngine engine(model_, {});
  EXPECT_THROW((void)engine.submit(hdc::Hypervector(kDim + 1)),
               std::invalid_argument);
}

TEST_F(ServiceEngineTest, DispatcherZeroResolvesToModelShardCount) {
  // dispatchers = 0 is shard affinity: one dispatcher per shard of the
  // model's widest partition. Unsharded model → 1; a 3-way sharded rebuild
  // of the same codebooks → 3 — and results stay bit-identical throughout.
  service::FactorizationEngine plain(model_, {.dispatchers = 0});
  EXPECT_EQ(plain.options().dispatchers, 1u);
  run_differential(plain);

  util::Xoshiro256 rng(1234);  // same seed → same codebooks as model_
  hdc::kernels::ShardedConfig cfg;
  cfg.shards = 3;
  auto sharded = service::Model::make(
      "sharded", tax::TaxonomyCodebooks(tax::Taxonomy(3, {8, 4}), kDim, rng),
      hdc::ScanBackend::kAuto, cfg);
  EXPECT_EQ(sharded->factorizer().scan_backend(), hdc::ScanBackend::kSharded);
  EXPECT_EQ(sharded->factorizer().shards(), 3u);
  service::FactorizationEngine affine(sharded, {.dispatchers = 0});
  EXPECT_EQ(affine.options().dispatchers, 3u);
  run_differential(affine);
}

TEST_F(ServiceEngineTest, ShardedModelServesBitIdenticalResults) {
  // The serving differential over a scatter-gather model: every future must
  // carry the same bits as the direct unsharded factorize that produced the
  // ground truth — at several shard counts, with caching and multiple
  // dispatchers in play.
  util::Xoshiro256 rng(1234);  // same seed → same codebooks as model_
  for (const std::size_t shards : {2u, 3u, 5u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    hdc::kernels::ShardedConfig cfg;
    cfg.shards = shards;
    util::Xoshiro256 fresh(1234);
    auto sharded = service::Model::make(
        "sharded",
        tax::TaxonomyCodebooks(tax::Taxonomy(3, {8, 4}), kDim, fresh),
        hdc::ScanBackend::kAuto, cfg);
    service::FactorizationEngine engine(sharded, {.max_batch = 8,
                                                  .max_delay_us = 200,
                                                  .dispatchers = 2,
                                                  .cache_capacity = 64});
    run_differential(engine);
    run_differential(engine);  // replay: cache-served, still identical
  }
}

TEST_F(ServiceEngineTest, CoalescingKeysOnGlobalIdentityUnderSharding) {
  // The coalescing pin under kSharded: the dedup key is the full global
  // (target, opts) identity, independent of the model's shard partition —
  // a flight of k duplicates must compute once and coalesce k-1, exactly
  // as an unsharded engine would. A parked batcher (huge max_batch + long
  // flush deadline) plus stop()'s drain makes the flight composition
  // deterministic; the cache is off so coalescing is the only reuse path.
  util::Xoshiro256 rng(1234);  // same seed → same codebooks as model_
  hdc::kernels::ShardedConfig cfg;
  cfg.shards = 4;
  auto sharded = service::Model::make(
      "sharded", tax::TaxonomyCodebooks(tax::Taxonomy(3, {8, 4}), kDim, rng),
      hdc::ScanBackend::kAuto, cfg);
  for (const auto& model : {model_, sharded}) {
    SCOPED_TRACE(model == model_ ? "unsharded" : "4-way sharded");
    service::FactorizationEngine engine(model, {.max_batch = 1000,
                                                .max_delay_us = 5000000,
                                                .dispatchers = 1,
                                                .cache_capacity = 0});
    std::vector<std::future<core::FactorizeResult>> futures;
    for (int i = 0; i < 5; ++i) {
      futures.push_back(engine.submit(work_[0].target, work_[0].opts));
    }
    futures.push_back(engine.submit(work_[1].target, work_[1].opts));
    engine.stop();  // drains the parked queue as one flight
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_TRUE(futures[i].get() == work_[0].expected);
    }
    EXPECT_TRUE(futures[5].get() == work_[1].expected);
    const auto m = engine.metrics();
    EXPECT_EQ(m.coalesced, 4u)
        << "5 identical requests in one flight must coalesce to 1 compute";
    EXPECT_EQ(m.completed, 6u);
  }
}

// ---------------------------------------------------------------------------
// In-place runs: try_submit with Placement::kInPlaceIfIdle computes a cheap
// single-object request on the calling thread when the engine is idle, and
// queues everything else exactly as before.
// ---------------------------------------------------------------------------

/// Where and how often one request's completion ran.
struct Landing {
  std::atomic<int> calls{0};
  std::thread::id thread;
  core::FactorizeResult result;
  std::exception_ptr error;
};

service::Completion record_into(Landing& landing) {
  return [&landing](std::exception_ptr error,
                    const core::FactorizeResult& result) {
    landing.thread = std::this_thread::get_id();
    landing.result = result;
    landing.error = std::move(error);
    landing.calls.fetch_add(1);
  };
}

TEST_F(ServiceEngineTest, InPlaceRunMatchesDirectOnTheCallingThreadOnce) {
  service::FactorizationEngine engine(
      model_, {.cache_capacity = 0, .trace_sample = 1});
  std::size_t singles = 0;
  for (const WorkItem& item : work_) {
    if (item.opts.multi_object) continue;
    ++singles;
    Landing landing;
    ASSERT_EQ(engine.try_submit(item.target, item.opts,
                                std::chrono::steady_clock::now(),
                                record_into(landing),
                                service::Placement::kInPlaceIfIdle),
              service::SubmitStatus::kAccepted);
    EXPECT_EQ(landing.calls.load(), 1)
        << "an in-place run completes before try_submit returns";
    EXPECT_EQ(landing.thread, std::this_thread::get_id());
    EXPECT_FALSE(landing.error);
    EXPECT_TRUE(landing.result == item.expected)
        << "in-place result differs from direct factorize";
  }
  engine.stop();
  const auto m = engine.metrics();
  EXPECT_EQ(m.in_place, singles);
  EXPECT_EQ(m.submitted, singles);
  EXPECT_EQ(m.completed, singles);
  EXPECT_EQ(m.cache_misses, singles);
  EXPECT_EQ(m.batches, 0u) << "in-place runs are not dispatcher batches";
  const auto stage = [&](service::Stage s) {
    return m.stages[static_cast<std::size_t>(s)].count;
  };
  EXPECT_EQ(stage(service::Stage::kCacheLookup), singles);
  EXPECT_EQ(stage(service::Stage::kScan), singles);
  EXPECT_EQ(stage(service::Stage::kMerge), singles);
  EXPECT_EQ(stage(service::Stage::kQueueWait), 0u);
  EXPECT_EQ(stage(service::Stage::kBatchAssembly), 0u);
  const auto traces = engine.trace_samples();
  ASSERT_EQ(traces.size(), singles);
  for (const service::RequestTrace& t : traces) {
    EXPECT_TRUE(t.in_place);
    EXPECT_EQ(t.enqueue_ns, 0u);
    EXPECT_EQ(t.dequeue_ns, 0u);
    EXPECT_GT(t.scan_end_ns, 0u);
  }
  EXPECT_NE(service::chrome_trace_json(traces).find("\"in_place\":true"),
            std::string::npos);
  EXPECT_NE(m.to_prometheus().find("factorhd_in_place_total " +
                                   std::to_string(singles)),
            std::string::npos);
}

TEST_F(ServiceEngineTest, InPlaceRunThatThrowsCompletesWithTheErrorOnce) {
  service::FactorizationEngine engine(model_, {.cache_capacity = 64});
  core::FactorizeOptions bad;
  bad.selected_classes = {99};  // factorize throws
  Landing landing;
  ASSERT_EQ(engine.try_submit(work_[0].target, bad,
                              std::chrono::steady_clock::now(),
                              record_into(landing),
                              service::Placement::kInPlaceIfIdle),
            service::SubmitStatus::kAccepted);
  EXPECT_EQ(landing.calls.load(), 1);
  ASSERT_TRUE(landing.error);
  EXPECT_THROW(std::rethrow_exception(landing.error), std::invalid_argument);
  engine.stop();
  const auto m = engine.metrics();
  EXPECT_EQ(m.submitted, 1u);
  EXPECT_EQ(m.completed, 1u);
}

/// Submits `target` and waits for its completion, which must come from a
/// batcher thread (the request was queued, not run in place).
void expect_queued(service::FactorizationEngine& engine,
                   const hdc::Hypervector& target,
                   const core::FactorizeOptions& opts,
                   const core::FactorizeResult& expected, bool plain_submit) {
  Landing landing;
  if (plain_submit) {
    engine.submit(target, opts, record_into(landing));
  } else {
    ASSERT_EQ(engine.try_submit(target, opts, std::chrono::steady_clock::now(),
                                record_into(landing),
                                service::Placement::kInPlaceIfIdle),
              service::SubmitStatus::kAccepted);
  }
  engine.stop();  // drains: the completion has run afterwards
  ASSERT_EQ(landing.calls.load(), 1);
  EXPECT_NE(landing.thread, std::this_thread::get_id())
      << "the request should have completed on a batcher thread";
  EXPECT_FALSE(landing.error);
  EXPECT_TRUE(landing.result == expected);
  const auto m = engine.metrics();
  EXPECT_EQ(m.in_place, 0u);
  EXPECT_EQ(m.batched_requests, 1u);
}

TEST_F(ServiceEngineTest, InPlaceDeclinedForAMultiObjectTarget) {
  const WorkItem& scene = work_[2];
  ASSERT_TRUE(scene.opts.multi_object);
  service::FactorizationEngine engine(model_, {.cache_capacity = 0});
  expect_queued(engine, scene.target, scene.opts, scene.expected, false);
}

TEST_F(ServiceEngineTest, InPlaceDeclinedWhenTheEngineWaitsToBatch) {
  service::FactorizationEngine engine(
      model_, {.max_delay_us = 100, .cache_capacity = 0});
  expect_queued(engine, work_[0].target, work_[0].opts, work_[0].expected,
                false);
}

TEST_F(ServiceEngineTest, PlainSubmitNeverRunsInPlace) {
  service::FactorizationEngine engine(model_, {.cache_capacity = 0});
  expect_queued(engine, work_[0].target, work_[0].opts, work_[0].expected,
                true);
}

TEST_F(ServiceEngineTest, InPlaceDeclinedForALargeCodebookModel) {
  // The 3 x 65536-row model of test_item_memory_large: one object scans
  // 196608 rows, about 1 ms, far above the break-even.
  util::Xoshiro256 rng(4242);
  const auto large = service::Model::make(
      "large", tax::TaxonomyCodebooks(tax::Taxonomy(3, {65536}), 64, rng));
  EXPECT_GT(large->factorizer().estimate_ns({}), core::kBreakEvenNs);
  const hdc::Hypervector target = large->encoder().encode_object(
      tax::random_object(large->books().taxonomy(), rng));
  service::FactorizationEngine engine(large, {.cache_capacity = 0});
  expect_queued(engine, target, {}, large->factorizer().factorize(target),
                false);
}

TEST_F(ServiceEngineTest, InPlaceDeclinedBehindAQueuedEarlierDeadline) {
  // The batcher is held inside a first request's completion, so a request
  // queued behind it keeps the queue non-empty: the in-place candidate must
  // queue too, and dispatch after the earlier deadline.
  service::FactorizationEngine engine(model_,
                                      {.max_batch = 1, .cache_capacity = 0});
  std::promise<void> holding;
  std::promise<void> release;
  engine.submit(work_[0].target, work_[0].opts,
                [&](std::exception_ptr, const core::FactorizeResult&) {
                  holding.set_value();
                  release.get_future().wait();
                });
  holding.get_future().wait();

  std::mutex mu;
  std::vector<int> order;
  std::vector<std::thread::id> threads;
  const auto record = [&](int tag) {
    return [&, tag](std::exception_ptr error,
                    const core::FactorizeResult& result) {
      EXPECT_FALSE(error);
      EXPECT_TRUE(result == work_[tag].expected);
      std::lock_guard lock(mu);
      order.push_back(tag);
      threads.push_back(std::this_thread::get_id());
    };
  };
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_EQ(engine.try_submit(work_[1].target, work_[1].opts, t0, record(1)),
            service::SubmitStatus::kAccepted);
  ASSERT_EQ(engine.try_submit(work_[3].target, work_[3].opts,
                              t0 + std::chrono::microseconds(100), record(3),
                              service::Placement::kInPlaceIfIdle),
            service::SubmitStatus::kAccepted);
  {
    std::lock_guard lock(mu);
    EXPECT_TRUE(order.empty()) << "nothing may complete while the batcher "
                                  "is held";
  }
  release.set_value();
  engine.stop();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  for (const std::thread::id id : threads) {
    EXPECT_NE(id, std::this_thread::get_id());
  }
  EXPECT_EQ(engine.metrics().in_place, 0u);
}

TEST(ServiceMetrics, QuantilesReportGeometricBucketMidpoints) {
  // Regression for the bucket-upper-bound bug: a stream of identical
  // latencies used to report p50 = p99 = the bucket's upper bound — up to
  // 2x the true value. The midpoint 2^(i+0.5) ns is within sqrt(2) of any
  // latency in bucket [2^i, 2^(i+1)).
  for (const double us : {0.5, 3.0, 10.0, 147.0, 2048.0, 100000.0}) {
    SCOPED_TRACE("latency_us=" + std::to_string(us));
    service::Metrics m;
    for (int i = 0; i < 100; ++i) m.on_completed(us);
    const auto s = m.snapshot(0);
    EXPECT_EQ(s.p50_latency_us, s.p99_latency_us)
        << "single-latency stream: every quantile lands in one bucket";
    const double kSqrt2 = std::sqrt(2.0);
    EXPECT_GE(s.p50_latency_us, us / kSqrt2)
        << "midpoint must be within sqrt(2) below the true latency";
    EXPECT_LE(s.p50_latency_us, us * kSqrt2)
        << "midpoint must be within sqrt(2) above the true latency";
  }
  // Exact bucket arithmetic: 10 us = 10000 ns lands in bucket 13
  // ([8192, 16384) ns); the midpoint is 2^13.5 ns.
  service::Metrics m;
  m.on_completed(10.0);
  EXPECT_DOUBLE_EQ(m.snapshot(0).p50_latency_us,
                   std::ldexp(std::sqrt(2.0), 13) / 1e3);
}

TEST(ServiceMetrics, MergeAggregatesEveryCounterWithoutDoubleCounting) {
  service::Metrics submit_side;
  service::Metrics d0;
  service::Metrics d1;
  for (int i = 0; i < 7; ++i) submit_side.on_submitted();
  submit_side.on_rejected();
  submit_side.on_cache_hit();
  submit_side.on_cache_miss();
  submit_side.on_cache_miss();
  submit_side.on_completed(5.0);  // the cache-hit completion
  d0.on_batch(3);
  d0.on_coalesced();
  d0.on_completed(10.0);
  d0.on_completed(10.0);
  d1.on_batch(5);
  d1.on_completed(40.0);

  service::Metrics agg;
  agg.merge(d0);
  agg.merge(d1);
  agg.merge(submit_side);  // submit-side set last, as the engine does
  const auto s = agg.snapshot(2);
  EXPECT_EQ(s.submitted, 7u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 2u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.batched_requests, 8u);
  EXPECT_EQ(s.coalesced, 1u);
  EXPECT_EQ(s.max_batch_observed, 5u) << "high-water mark merges as max";
  EXPECT_EQ(s.queue_depth, 2u);
  EXPECT_DOUBLE_EQ(s.mean_batch, 4.0);
  // The merged histogram carries all four completions: p50 in the 10 us
  // bucket region, p99 in the 40 us one.
  EXPECT_GT(s.p50_latency_us, 0.0);
  EXPECT_GT(s.p99_latency_us, s.p50_latency_us);
  // Merging an empty set is a no-op.
  service::Metrics empty;
  agg.merge(empty);
  const auto s2 = agg.snapshot(2);
  EXPECT_EQ(s2.submitted, s.submitted);
  EXPECT_EQ(s2.completed, s.completed);
  EXPECT_DOUBLE_EQ(s2.p99_latency_us, s.p99_latency_us);
}

TEST(ServiceMetrics, InPlaceCounterMergesSubtractsAndExports) {
  service::Metrics submit_side;
  for (int i = 0; i < 3; ++i) submit_side.on_in_place();
  service::Metrics agg;
  agg.merge(submit_side);
  const auto base = agg.snapshot(0);
  EXPECT_EQ(base.in_place, 3u);
  agg.on_in_place();
  const auto later = agg.snapshot(0);
  EXPECT_EQ(later.since(base).in_place, 1u);
  EXPECT_NE(later.to_string().find("4 run in place"), std::string::npos);
  EXPECT_NE(later.to_prometheus().find("# TYPE factorhd_in_place_total "
                                       "counter\nfactorhd_in_place_total 4"),
            std::string::npos);
}

TEST_F(ServiceEngineTest, ForcedScalarBackendModelMatchesPackedModel) {
  // The same codebook material served on the forced scalar-word tier must
  // produce the same bits (the cross-backend contract, now via the engine).
  util::Xoshiro256 rng(1234);
  auto scalar_model = service::Model::make(
      "scalar",
      tax::TaxonomyCodebooks(tax::Taxonomy(3, {8, 4}), kDim, rng),
      hdc::ScanBackend::kPackedWords);
  ASSERT_EQ(scalar_model->factorizer().simd_level(),
            hdc::kernels::SimdLevel::kScalarWords);
  // Note: same seed → same codebooks as model_, so ground truth transfers.
  service::FactorizationEngine engine(
      scalar_model, {.max_batch = 8, .max_delay_us = 200});
  run_differential(engine);
}

}  // namespace
