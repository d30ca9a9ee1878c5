// Concurrency soak for service::FactorizationEngine — the suite the
// ThreadSanitizer CI job runs over the serving runtime.
//
// N producer threads hammer one engine with a duplicate-heavy workload
// while a poller thread snapshots metrics; afterwards every future must be
// fulfilled with a result bit-identical to direct factorization
// (cache-hit determinism), the queue fully drained, and the counters
// consistent. A second scenario chains submits from inside completion
// callbacks; a third soaks the reject-mode backpressure path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/factorhd.hpp"
#include "service/service.hpp"

namespace {

using namespace factorhd;

class ServiceSoak : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Xoshiro256 rng(99);
    model_ = service::Model::make(
        "soak", tax::TaxonomyCodebooks(tax::Taxonomy(3, {8}), 512, rng));
    // A small pool of targets, so concurrent producers constantly submit
    // duplicates — the adversarial case for coalescing + caching.
    const tax::Taxonomy& taxonomy = model_->books().taxonomy();
    for (std::size_t i = 0; i < 8; ++i) {
      targets_.push_back(model_->encoder().encode_object(
          tax::random_object(taxonomy, rng)));
      expected_.push_back(model_->factorizer().factorize(targets_[i], {}));
    }
  }

  std::shared_ptr<const service::Model> model_;
  std::vector<hdc::Hypervector> targets_;
  std::vector<core::FactorizeResult> expected_;
};

TEST_F(ServiceSoak, ProducersPollerAndDrainInvariants) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 150;
  service::FactorizationEngine engine(model_, {.max_batch = 16,
                                               .max_delay_us = 200,
                                               .queue_capacity = 64,
                                               .dispatchers = 2,
                                               .cache_capacity = 32});

  std::vector<std::vector<std::future<core::FactorizeResult>>> futures(
      kProducers);
  std::atomic<bool> polling{true};
  std::jthread poller([&] {
    // Metrics must be safely snapshotable while serving (and the snapshot
    // internally consistent enough to never over-count completions).
    while (polling.load(std::memory_order_relaxed)) {
      const auto m = engine.metrics();
      EXPECT_LE(m.completed, m.submitted);
      EXPECT_LE(m.cache_hits + m.cache_misses, m.submitted);
      std::this_thread::yield();
    }
  });

  std::vector<std::jthread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      futures[p].reserve(kPerProducer);
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        futures[p].push_back(
            engine.submit(targets_[(p + 3 * i) % targets_.size()]));
      }
    });
  }
  for (auto& t : producers) t.join();
  engine.stop();
  polling.store(false, std::memory_order_relaxed);
  poller.join();

  // Drained-queue invariants.
  const auto m = engine.metrics();
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_EQ(engine.queue_depth(), 0u);
  EXPECT_EQ(m.submitted, kProducers * kPerProducer);
  EXPECT_EQ(m.completed, m.submitted);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.cache_hits + m.cache_misses, m.submitted);
  EXPECT_EQ(m.batched_requests, m.cache_misses);
  EXPECT_GT(m.cache_hits + m.coalesced, 0u)
      << "duplicate-heavy soak must exercise reuse";

  // Cache-hit determinism: every result — computed, coalesced, or replayed
  // — is bit-identical to the direct call.
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < kPerProducer; ++i) {
      ASSERT_EQ(futures[p][i].wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      EXPECT_TRUE(futures[p][i].get() ==
                  expected_[(p + 3 * i) % expected_.size()])
          << "producer " << p << " request " << i;
    }
  }
}

TEST_F(ServiceSoak, ChainedCallbacksCompleteExactlyOnce) {
  // Completions run with no engine lock held, so a completion may submit
  // again: every first-generation request chains one follow-up from inside
  // its callback (on a batcher thread, or on the producer for a cache hit).
  // Every request of both generations must complete exactly once with the
  // direct result. The queue holds everything, so no submit ever blocks.
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 150;
  constexpr std::size_t kFirst = kProducers * kPerProducer;
  service::FactorizationEngine engine(model_, {.max_batch = 16,
                                               .max_delay_us = 200,
                                               .queue_capacity = 2 * kFirst,
                                               .dispatchers = 2,
                                               .cache_capacity = 32});
  std::vector<std::atomic<int>> calls(2 * kFirst);
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> wrong{0};
  // Checks and counts one completion of request `id` on target `t`.
  const auto check = [&](std::size_t id,
                         std::size_t t) -> service::Completion {
    return [&, id, t](std::exception_ptr error,
                      const core::FactorizeResult& result) {
      if (error || !(result == expected_[t])) wrong.fetch_add(1);
      calls[id].fetch_add(1);
      done.fetch_add(1);
    };
  };

  std::vector<std::jthread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const std::size_t id = p * kPerProducer + i;
        const std::size_t t = (p + 3 * i) % targets_.size();
        engine.submit(targets_[t], {},
                      [&, id, t](std::exception_ptr error,
                                 const core::FactorizeResult& result) {
                        const std::size_t u = (t + 1) % targets_.size();
                        engine.submit(targets_[u], {}, check(kFirst + id, u));
                        check(id, t)(std::move(error), result);
                      });
      }
    });
  }
  for (auto& t : producers) t.join();
  // Chained submits may still be arriving: stop() only once all are done,
  // since a stopped engine would refuse them.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (done.load() < 2 * kFirst &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(done.load(), 2 * kFirst);
  engine.stop();

  for (std::size_t id = 0; id < calls.size(); ++id) {
    EXPECT_EQ(calls[id].load(), 1) << "request " << id;
  }
  EXPECT_EQ(wrong.load(), 0u);
  const auto m = engine.metrics();
  EXPECT_EQ(m.submitted, 2 * kFirst);
  EXPECT_EQ(m.completed, 2 * kFirst);
}

TEST_F(ServiceSoak, RejectModeUnderConcurrentLoad) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 100;
  service::FactorizationEngine engine(model_, {.max_batch = 4,
                                               .max_delay_us = 100,
                                               .queue_capacity = 8,
                                               .reject_when_full = true,
                                               .cache_capacity = 0});
  std::atomic<std::size_t> accepted{0};
  std::atomic<std::size_t> rejected{0};
  std::vector<std::jthread> producers;
  std::vector<std::vector<std::future<core::FactorizeResult>>> futures(
      kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        try {
          futures[p].push_back(
              engine.submit(targets_[(p + i) % targets_.size()]));
          accepted.fetch_add(1, std::memory_order_relaxed);
        } catch (const service::QueueFullError&) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  engine.stop();

  EXPECT_EQ(accepted.load() + rejected.load(), kProducers * kPerProducer);
  const auto m = engine.metrics();
  EXPECT_EQ(m.submitted, accepted.load());
  EXPECT_EQ(m.completed, accepted.load()) << "every accepted request drained";
  EXPECT_EQ(m.rejected, rejected.load());
  EXPECT_EQ(m.queue_depth, 0u);
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < futures[p].size(); ++i) {
      EXPECT_NO_THROW((void)futures[p][i].get());
    }
  }
}

}  // namespace
