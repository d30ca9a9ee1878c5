// BatchFactorizer determinism suite: factorize_all must return identical
// results for any thread count and across repeated runs — thread scheduling
// may only decide *who* computes a batch entry, never *what* it contains.
// Checked for all three paper representations (Rep 1 flat single-object,
// Rep 2 hierarchical single-object, Rep 3 multi-object scenes) and across
// scan backends (the SIMD knob rides into the pool through the Factorizer).
//
// Also the regression home of the effective_threads / empty-batch edge
// cases.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "core/encoder.hpp"
#include "core/factorizer.hpp"
#include "hdc/item_memory.hpp"
#include "hdc/kernels/packed_item_memory.hpp"
#include "hdc/random.hpp"
#include "taxonomy/generator.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace factorhd;
using namespace factorhd::core;

// Pin the plane-scan worker pool to 4 threads before anything scans (the
// width is cached on first use), so the parallel scan path below runs — and
// is TSan-checked — deterministically even on single-core hosts. An explicit
// user override still wins (overwrite=0).
const bool kForceScanPool = [] {
  ::setenv("FACTORHD_SCAN_THREADS", "4", /*overwrite=*/0);
  return true;
}();

void expect_equal_results(const FactorizeResult& a, const FactorizeResult& b,
                          std::size_t num_classes) {
  ASSERT_EQ(a.objects.size(), b.objects.size());
  EXPECT_EQ(a.similarity_ops, b.similarity_ops);
  EXPECT_EQ(a.combinations_checked, b.combinations_checked);
  EXPECT_EQ(a.converged, b.converged);
  for (std::size_t o = 0; o < a.objects.size(); ++o) {
    EXPECT_EQ(a.objects[o].match_similarity, b.objects[o].match_similarity);
    EXPECT_EQ(a.objects[o].to_object(num_classes),
              b.objects[o].to_object(num_classes));
    ASSERT_EQ(a.objects[o].classes.size(), b.objects[o].classes.size());
    for (std::size_t c = 0; c < a.objects[o].classes.size(); ++c) {
      const ClassFactorization& ca = a.objects[o].classes[c];
      const ClassFactorization& cb = b.objects[o].classes[c];
      EXPECT_EQ(ca.cls, cb.cls);
      EXPECT_EQ(ca.present, cb.present);
      EXPECT_EQ(ca.path, cb.path);
      EXPECT_EQ(ca.level_similarities, cb.level_similarities);
      EXPECT_EQ(ca.null_similarity, cb.null_similarity);
    }
  }
}

// Runs the batch at num_threads in {1, 2, hardware} plus a repeated run per
// width, and asserts every result list is identical to the single-threaded
// reference.
void check_determinism(const Factorizer& factorizer,
                       const std::vector<hdc::Hypervector>& targets,
                       const FactorizeOptions& opts, std::size_t num_classes) {
  BatchOptions single;
  single.num_threads = 1;
  const auto reference =
      BatchFactorizer(factorizer, single).factorize_all(targets, opts);
  ASSERT_EQ(reference.size(), targets.size());

  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, hardware}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    BatchOptions opts_n;
    opts_n.num_threads = threads;
    const BatchFactorizer batcher(factorizer, opts_n);
    for (int run = 0; run < 2; ++run) {
      SCOPED_TRACE("run=" + std::to_string(run));
      const auto results = batcher.factorize_all(targets, opts);
      ASSERT_EQ(results.size(), reference.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("target=" + std::to_string(i));
        expect_equal_results(reference[i], results[i], num_classes);
      }
    }
  }
}

TEST(BatchDeterminism, Rep1FlatSingleObject) {
  util::Xoshiro256 rng(9001);
  const tax::Taxonomy taxonomy(3, {12});
  const tax::TaxonomyCodebooks books(taxonomy, 512, rng);
  const Encoder encoder(books);
  const Factorizer factorizer(encoder);
  std::vector<hdc::Hypervector> targets;
  for (int i = 0; i < 24; ++i) {
    targets.push_back(encoder.encode_object(tax::random_object(taxonomy, rng)));
  }
  check_determinism(factorizer, targets, {}, taxonomy.num_classes());
}

TEST(BatchDeterminism, Rep2HierarchicalSingleObject) {
  util::Xoshiro256 rng(9002);
  const tax::Taxonomy taxonomy(3, {6, 4});
  const tax::TaxonomyCodebooks books(taxonomy, 768, rng);
  const Encoder encoder(books);
  const Factorizer factorizer(encoder);
  std::vector<hdc::Hypervector> targets;
  for (int i = 0; i < 16; ++i) {
    targets.push_back(encoder.encode_object(tax::random_object(taxonomy, rng)));
  }
  check_determinism(factorizer, targets, {}, taxonomy.num_classes());
}

TEST(BatchDeterminism, Rep3MultiObjectScenes) {
  util::Xoshiro256 rng(9003);
  const tax::Taxonomy taxonomy(3, {8});
  const tax::TaxonomyCodebooks books(taxonomy, 1500, rng);
  const Encoder encoder(books);
  const Factorizer factorizer(encoder);
  std::vector<hdc::Hypervector> targets;
  for (int i = 0; i < 8; ++i) {
    const tax::Scene scene = tax::random_scene(
        taxonomy, rng,
        {.num_objects = 2, .object = {}, .allow_duplicates = false});
    targets.push_back(encoder.encode_scene(scene));
  }
  FactorizeOptions opts;
  opts.multi_object = true;
  opts.num_objects_hint = 2;
  check_determinism(factorizer, targets, opts, taxonomy.num_classes());
}

TEST(BatchDeterminism, ForcedSimdBackendsAgreeUnderThreading) {
  // The SIMD knob threads through Factorizer into the pool: a batch run on
  // each forced packed tier must equal the scalar-backend batch exactly.
  util::Xoshiro256 rng(9004);
  const tax::Taxonomy taxonomy(2, {10});
  const tax::TaxonomyCodebooks books(taxonomy, 512, rng);
  const Encoder encoder(books);
  std::vector<hdc::Hypervector> targets;
  for (int i = 0; i < 12; ++i) {
    targets.push_back(encoder.encode_object(tax::random_object(taxonomy, rng)));
  }
  BatchOptions two;
  two.num_threads = 2;

  const Factorizer scalar(encoder, hdc::ScanBackend::kScalar);
  const auto reference =
      BatchFactorizer(scalar, two).factorize_all(targets, {});

  std::vector<hdc::ScanBackend> backends{hdc::ScanBackend::kPackedWords,
                                         hdc::ScanBackend::kPacked};
  using hdc::kernels::SimdLevel;
  if (hdc::kernels::simd_level_available(SimdLevel::kAVX2)) {
    backends.push_back(hdc::ScanBackend::kPackedAVX2);
  }
  if (hdc::kernels::simd_level_available(SimdLevel::kAVX512)) {
    backends.push_back(hdc::ScanBackend::kPackedAVX512);
  }
  if (hdc::kernels::simd_level_available(SimdLevel::kNEON)) {
    backends.push_back(hdc::ScanBackend::kPackedNEON);
  }
  for (hdc::ScanBackend backend : backends) {
    const Factorizer forced(encoder, backend);
    const auto results =
        BatchFactorizer(forced, two).factorize_all(targets, {});
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      expect_equal_results(reference[i], results[i], taxonomy.num_classes());
    }
  }
}

TEST(BatchDeterminism, ParallelPlaneScanMatchesScalar) {
  // A codebook big enough (1024 rows x 64 words >= the scalar-word tier's
  // 2^16-word threshold) that the kPackedWords memory partitions its scans
  // across the worker pool; the fixed-block partition must reproduce the
  // scalar backend bit for bit. The dispatched kPacked memory is asserted
  // too (its SIMD-tier threshold is higher, so it may scan sequentially —
  // either way the results are the contract).
  util::Xoshiro256 rng(9007);
  const hdc::Codebook cb(4096, 1024, rng);
  const hdc::ItemMemory scalar(cb, hdc::ScanBackend::kScalar);
  const hdc::ItemMemory words(cb, hdc::ScanBackend::kPackedWords);
  const hdc::ItemMemory packed(cb, hdc::ScanBackend::kPacked);

  for (const hdc::Hypervector& q :
       {hdc::flip_noise(cb.item(700), 0.2, rng),
        hdc::random_ternary(4096, 0.5, rng)}) {
    for (const hdc::ItemMemory* memory : {&words, &packed}) {
      const hdc::Match bs = scalar.best(q);
      const hdc::Match bp = memory->best(q);
      EXPECT_EQ(bs.index, bp.index);
      EXPECT_EQ(bs.similarity, bp.similarity);

      std::vector<std::int64_t> ds(cb.size()), dp(cb.size());
      scalar.dots(q, ds);
      memory->dots(q, dp);
      EXPECT_EQ(ds, dp);

      const auto ts = scalar.top_k(q, 7);
      const auto tp = memory->top_k(q, 7);
      ASSERT_EQ(ts.size(), tp.size());
      for (std::size_t i = 0; i < ts.size(); ++i) {
        EXPECT_EQ(ts[i].index, tp[i].index);
        EXPECT_EQ(ts[i].similarity, tp[i].similarity);
      }
    }
  }

  // On a util::parallel_for worker (the state every BatchFactorizer worker
  // runs in) the same scans go sequential — results must be unchanged.
  const hdc::Hypervector q = hdc::flip_noise(cb.item(13), 0.1, rng);
  util::parallel_for(2, 2, [&](std::size_t) {
    EXPECT_EQ(util::parallel_width(8), 1u);
    std::vector<std::int64_t> ds(cb.size()), dp(cb.size());
    scalar.dots(q, ds);
    words.dots(q, dp);
    EXPECT_EQ(ds, dp);
    EXPECT_EQ(scalar.best(q).index, words.best(q).index);
  });
}

TEST(BatchDeterminism, EffectiveThreadsEdgeCases) {
  util::Xoshiro256 rng(9005);
  const tax::Taxonomy taxonomy(2, {4});
  const tax::TaxonomyCodebooks books(taxonomy, 128, rng);
  const Encoder encoder(books);
  const Factorizer factorizer(encoder);

  for (std::size_t configured : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                 std::size_t{1000}}) {
    SCOPED_TRACE("configured=" + std::to_string(configured));
    BatchOptions opts;
    opts.num_threads = configured;
    const BatchFactorizer batcher(factorizer, opts);
    // batch == 0 always resolves to 1 (the caller thread), for every
    // configured width including the hardware-concurrency default.
    EXPECT_EQ(batcher.effective_threads(0), 1u);
    // A one-target batch is always sequential.
    EXPECT_EQ(batcher.effective_threads(1), 1u);
    // Never more workers than targets; never zero.
    for (std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
      const std::size_t n = batcher.effective_threads(batch);
      EXPECT_GE(n, 1u);
      EXPECT_LE(n, batch);
      if (configured > 0) {
        EXPECT_LE(n, configured);
      }
    }
  }
}

TEST(BatchDeterminism, EmptyBatchEdgeCases) {
  util::Xoshiro256 rng(9006);
  const tax::Taxonomy taxonomy(2, {4});
  const tax::TaxonomyCodebooks books(taxonomy, 128, rng);
  const Encoder encoder(books);
  const Factorizer factorizer(encoder);

  for (std::size_t configured : {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
    SCOPED_TRACE("configured=" + std::to_string(configured));
    BatchOptions opts;
    opts.num_threads = configured;
    const BatchFactorizer batcher(factorizer, opts);
    // An empty batch returns empty without spawning workers, in every mode
    // (including multi-object options).
    EXPECT_TRUE(batcher.factorize_all({}, {}).empty());
    FactorizeOptions multi;
    multi.multi_object = true;
    EXPECT_TRUE(batcher.factorize_all({}, multi).empty());
  }
}

}  // namespace
