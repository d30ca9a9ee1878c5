// Unit tests for multi-threaded batch factorization.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/encoder.hpp"
#include "taxonomy/generator.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace factorhd;
using namespace factorhd::core;

class BatchTest : public ::testing::Test {
 protected:
  BatchTest()
      : rng_(55), taxonomy_(3, {16}), books_(taxonomy_, 512, rng_),
        encoder_(books_), factorizer_(encoder_) {}

  util::Xoshiro256 rng_;
  tax::Taxonomy taxonomy_;
  tax::TaxonomyCodebooks books_;
  Encoder encoder_;
  Factorizer factorizer_;
};

TEST_F(BatchTest, MatchesSequentialResults) {
  std::vector<tax::Object> truth;
  std::vector<hdc::Hypervector> targets;
  for (int i = 0; i < 64; ++i) {
    truth.push_back(tax::random_object(taxonomy_, rng_));
    targets.push_back(encoder_.encode_object(truth.back()));
  }
  BatchOptions opts;
  opts.num_threads = 4;
  const BatchFactorizer batcher(factorizer_, opts);
  const auto results = batcher.factorize_all(targets, {});
  ASSERT_EQ(results.size(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(results[i].objects[0].to_object(3), truth[i]) << "target " << i;
  }
}

TEST_F(BatchTest, EmptyBatchIsEmpty) {
  const BatchFactorizer batcher(factorizer_);
  EXPECT_TRUE(batcher.factorize_all({}, {}).empty());
}

TEST_F(BatchTest, SingleThreadPathWorks) {
  BatchOptions opts;
  opts.num_threads = 1;
  const BatchFactorizer batcher(factorizer_, opts);
  const tax::Object obj = tax::random_object(taxonomy_, rng_);
  const auto results =
      batcher.factorize_all({encoder_.encode_object(obj)}, {});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].objects[0].to_object(3), obj);
}

TEST_F(BatchTest, EffectiveThreadsClampsToBatchSize) {
  BatchOptions opts;
  opts.num_threads = 16;
  const BatchFactorizer batcher(factorizer_, opts);
  EXPECT_EQ(batcher.effective_threads(3), 3u);
  EXPECT_EQ(batcher.effective_threads(100), 16u);
  EXPECT_EQ(batcher.effective_threads(0), 1u);
  BatchOptions auto_opts;  // num_threads = 0 -> hardware concurrency
  const BatchFactorizer auto_batcher(factorizer_, auto_opts);
  EXPECT_GE(auto_batcher.effective_threads(1000), 1u);
}

TEST_F(BatchTest, PropagatesWorkerExceptions) {
  std::vector<hdc::Hypervector> targets;
  targets.push_back(encoder_.encode_object(tax::random_object(taxonomy_, rng_)));
  targets.emplace_back(77);  // wrong dimension -> factorize throws
  BatchOptions opts;
  opts.num_threads = 2;
  const BatchFactorizer batcher(factorizer_, opts);
  EXPECT_THROW((void)batcher.factorize_all(targets, {}),
               std::invalid_argument);
}

TEST_F(BatchTest, MultiObjectBatchesWork) {
  std::vector<tax::Scene> scenes;
  std::vector<hdc::Hypervector> targets;
  for (int i = 0; i < 16; ++i) {
    scenes.push_back(tax::random_scene(
        taxonomy_, rng_,
        {.num_objects = 2, .object = {}, .allow_duplicates = false}));
    targets.push_back(encoder_.encode_scene(scenes.back()));
  }
  FactorizeOptions fopts;
  fopts.multi_object = true;
  fopts.num_objects_hint = 2;
  BatchOptions bopts;
  bopts.num_threads = 4;
  const BatchFactorizer batcher(factorizer_, bopts);
  const auto results = batcher.factorize_all(targets, fopts);
  std::size_t ok = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    tax::Scene rec;
    for (const auto& o : results[i].objects) rec.push_back(o.to_object(3));
    if (tax::same_multiset(rec, scenes[i])) ++ok;
  }
  EXPECT_GE(ok, 14u);
}

TEST_F(BatchTest, ResultsIndependentOfThreadCount) {
  // Factorization is deterministic per target, so any thread count must
  // produce identical results in identical order.
  std::vector<hdc::Hypervector> targets;
  for (int i = 0; i < 24; ++i) {
    targets.push_back(
        encoder_.encode_object(tax::random_object(taxonomy_, rng_)));
  }
  std::vector<std::vector<tax::Object>> per_thread_count;
  for (const std::size_t threads : {1u, 2u, 5u}) {
    BatchOptions opts;
    opts.num_threads = threads;
    const BatchFactorizer batcher(factorizer_, opts);
    const auto results = batcher.factorize_all(targets, {});
    std::vector<tax::Object> decoded;
    for (const auto& r : results) decoded.push_back(r.objects[0].to_object(3));
    per_thread_count.push_back(std::move(decoded));
  }
  EXPECT_EQ(per_thread_count[0], per_thread_count[1]);
  EXPECT_EQ(per_thread_count[0], per_thread_count[2]);
}

TEST_F(BatchTest, SimilarityOpCountersStayConsistent) {
  // Concurrent counting through the atomic counters must equal the
  // sequential sum.
  std::vector<hdc::Hypervector> targets;
  for (int i = 0; i < 32; ++i) {
    targets.push_back(
        encoder_.encode_object(tax::random_object(taxonomy_, rng_)));
  }
  BatchOptions opts;
  opts.num_threads = 4;
  const BatchFactorizer batcher(factorizer_, opts);
  const auto results = batcher.factorize_all(targets, {});
  std::uint64_t total = 0;
  for (const auto& r : results) total += r.similarity_ops;
  // Rep 1 cost per target: F * (M + null) = 3 * 17.
  EXPECT_EQ(total, 32u * 3u * 17u);
}

// Auto width (num_threads == 0) on the paper-scale model (F = 3, {32, 8},
// D = 1024): a flight fans out only when its estimated work gives every
// worker at least kBreakEvenNs.
class PaperBatchTest : public ::testing::Test {
 protected:
  PaperBatchTest()
      : rng_(24), taxonomy_(3, {32, 8}), books_(taxonomy_, 1024, rng_),
        encoder_(books_), factorizer_(encoder_) {}

  std::vector<hdc::Hypervector> targets(std::size_t n) {
    std::vector<hdc::Hypervector> out;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(encoder_.encode_object(tax::random_object(taxonomy_, rng_)));
    }
    return out;
  }

  /// Runs the batch, checks it against direct factorize, and returns the
  /// number of threads util::parallel_for spawned meanwhile.
  std::size_t spawned_by(const BatchFactorizer& batcher,
                         const std::vector<hdc::Hypervector>& batch) {
    const std::size_t before = util::threads_spawned();
    const auto results = batcher.factorize_all(batch, {});
    const std::size_t spawned = util::threads_spawned() - before;
    EXPECT_EQ(results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(results[i] == factorizer_.factorize(batch[i]))
          << "target " << i;
    }
    return spawned;
  }

  util::Xoshiro256 rng_;
  tax::Taxonomy taxonomy_;
  tax::TaxonomyCodebooks books_;
  Encoder encoder_;
  Factorizer factorizer_;
};

TEST_F(PaperBatchTest, EstimateMakesOneObjectCheap) {
  EXPECT_LE(factorizer_.estimate_ns({}), kBreakEvenNs);
  FactorizeOptions multi;
  multi.multi_object = true;
  EXPECT_GT(factorizer_.estimate_ns(multi), kBreakEvenNs);
  FactorizeOptions partial;
  partial.selected_classes = {1};
  partial.max_depth = 1;
  EXPECT_LT(factorizer_.estimate_ns(partial), factorizer_.estimate_ns({}));
}

TEST_F(PaperBatchTest, EstimatePricesScalarScansAboveTheBreakEven) {
  // A D-long integer dot per row instead of 16 plane words: the same model
  // on the scalar backend takes about 50-100 us a target.
  const Factorizer scalar(encoder_, hdc::ScanBackend::kScalar);
  EXPECT_GT(scalar.estimate_ns({}), kBreakEvenNs);
  EXPECT_GT(scalar.estimate_ns({}), 10 * factorizer_.estimate_ns({}));
}

TEST_F(PaperBatchTest, AutoWidthRunsTwoOrThreeTargetsOnTheCaller) {
  const BatchFactorizer batcher(factorizer_);
  for (std::size_t n : {std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE("targets=" + std::to_string(n));
    EXPECT_EQ(batcher.width(n, {}), 1u);
    EXPECT_EQ(spawned_by(batcher, targets(n)), 0u);
  }
}

TEST_F(PaperBatchTest, AutoWidthFansOutSixtyFourTargets) {
  const BatchFactorizer batcher(factorizer_);
  const std::size_t width = batcher.width(64, {});
  EXPECT_EQ(width, std::min<std::size_t>(util::pool_width(), 4))
      << "64 paper targets carry at least 4 break-evens of work";
  EXPECT_EQ(spawned_by(batcher, targets(64)), width - 1);
}

TEST_F(PaperBatchTest, ExplicitThreadsAreHonoured) {
  const BatchFactorizer batcher(factorizer_, {.num_threads = 2});
  EXPECT_EQ(batcher.width(2, {}), 2u);
  EXPECT_EQ(spawned_by(batcher, targets(2)), 1u);
}

TEST_F(PaperBatchTest, MultiObjectBatchesFanOutToTheCap) {
  FactorizeOptions multi;
  multi.multi_object = true;
  const BatchFactorizer batcher(factorizer_);
  EXPECT_EQ(batcher.width(2, multi), batcher.effective_threads(2));
}

}  // namespace
