// ShardedItemMemory (hdc/kernels/sharded_item_memory.hpp) — the
// scatter-gather contract from every side:
//
//  * partition — balanced contiguous row ranges (sizes differ by at most
//    one), shard counts clamped to [1, M] so N > M and N not dividing M are
//    safe, zero-copy slice views over the full packed planes;
//  * bit-identity — every surface (best / above / top_k / dots and the
//    blocked variants) returns bit-identical results to the unsharded
//    PackedItemMemory scan at every shard count, including adversarially
//    tied codebooks whose duplicate rows straddle shard boundaries (the
//    merge tie rules: argmax keeps the lowest global index, sorted surfaces
//    follow hdc::match_order);
//  * soak (ShardedSoak) — concurrent client threads scanning one shared
//    ShardedItemMemory, with the scan pool forced wide enough that the
//    internal shard scatter also runs threaded, stay race-free (TSan CI
//    runs this binary) and bit-identical to single-threaded references.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hdc/codebook.hpp"
#include "hdc/kernels/packed_item_memory.hpp"
#include "hdc/kernels/sharded_item_memory.hpp"
#include "hdc/kernels/simd.hpp"
#include "hdc/match.hpp"
#include "hdc/random.hpp"
#include "util/rng.hpp"

namespace {

using namespace factorhd;
using namespace factorhd::hdc;
using factorhd::util::Xoshiro256;
using kernels::PackedItemMemory;
using kernels::PackedQuery;
using kernels::ShardedConfig;
using kernels::ShardedItemMemory;
using kernels::SimdLevel;

// scan_pool_width() latches FACTORHD_SCAN_THREADS on first call, so the
// override must be installed before any scan in this binary — a static
// initializer runs before main(). Width 4 makes the ShardedSoak scatter
// genuinely threaded even on single-core CI hosts.
const bool kPoolWidthForced = [] {
  ::setenv("FACTORHD_SCAN_THREADS", "4", 1);
  return true;
}();

/// Scoped environment override; restores the previous value on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) previous_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (previous_) {
      ::setenv(name_, previous_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> previous_;
};

void expect_same_matches(const std::vector<Match>& ref,
                         const std::vector<Match>& got) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].index, got[i].index) << "position " << i;
    EXPECT_EQ(ref[i].similarity, got[i].similarity) << "position " << i;
  }
}

/// Deterministic query mix: noisy cleanup hits, random bipolar/ternary,
/// one exact item, the all-zero vector — packed for the kernel surfaces.
std::vector<PackedQuery> make_queries(const Codebook& cb, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Hypervector> raw;
  for (int i = 0; i < 3; ++i) {
    raw.push_back(flip_noise(cb.item(rng.uniform(cb.size())), 0.05, rng));
    raw.push_back(random_bipolar(cb.dim(), rng));
    raw.push_back(random_ternary(cb.dim(), 0.4, rng));
  }
  raw.push_back(cb.item(0));
  raw.push_back(Hypervector(cb.dim()));
  std::vector<PackedQuery> queries;
  for (const Hypervector& q : raw) {
    const std::optional<PackedQuery> pq = PackedQuery::pack(q);
    if (pq.has_value()) queries.push_back(*pq);
  }
  return queries;
}

/// Every scatter-gather surface of `sharded`, compared bit-for-bit against
/// the unsharded `packed` scan — the core ISSUE 8 contract.
void expect_bit_identical(const PackedItemMemory& packed,
                          const ShardedItemMemory& sharded,
                          const std::vector<PackedQuery>& queries) {
  ASSERT_EQ(packed.size(), sharded.size());
  const std::size_t m = packed.size();
  for (const PackedQuery& q : queries) {
    const Match rb = packed.best(q);
    const Match gb = sharded.best(q);
    EXPECT_EQ(rb.index, gb.index);
    EXPECT_EQ(rb.similarity, gb.similarity);
    expect_same_matches(packed.above(q, 0.01), sharded.above(q, 0.01));
    expect_same_matches(packed.above(q, -2.0), sharded.above(q, -2.0));
    expect_same_matches(packed.top_k(q, 7), sharded.top_k(q, 7));
    expect_same_matches(packed.top_k(q, m + 3), sharded.top_k(q, m + 3));
    std::vector<std::int64_t> ref_dots(m), got_dots(m);
    packed.dots(q, ref_dots);
    sharded.dots(q, got_dots);
    EXPECT_EQ(ref_dots, got_dots);
  }
  // Blocked surfaces against their per-query and unsharded counterparts.
  expect_same_matches(packed.best_block(queries), sharded.best_block(queries));
  const auto ref_topk = packed.top_k_block(queries, 5);
  const auto got_topk = sharded.top_k_block(queries, 5);
  ASSERT_EQ(ref_topk.size(), got_topk.size());
  for (std::size_t i = 0; i < ref_topk.size(); ++i) {
    expect_same_matches(ref_topk[i], got_topk[i]);
  }
  std::vector<std::int64_t> ref_block(queries.size() * m);
  std::vector<std::int64_t> got_block(queries.size() * m);
  packed.dots_block(queries, ref_block);
  sharded.dots_block(queries, got_block);
  EXPECT_EQ(ref_block, got_block);
}

TEST(ShardedMemory, PartitionIsBalancedContiguousAndClampsShardCount) {
  Xoshiro256 rng(20260808);
  const Codebook cb(128, 10, rng);
  const auto packed = std::make_shared<const PackedItemMemory>(cb);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7},
        std::size_t{10}, std::size_t{16}, std::size_t{1000}}) {
    ShardedConfig cfg;
    cfg.shards = n;
    const ShardedItemMemory sharded(packed, cfg);
    const std::size_t resolved = std::min<std::size_t>(n, cb.size());
    ASSERT_EQ(sharded.shards(), resolved) << "requested " << n;
    std::size_t begin = 0;
    std::size_t min_size = cb.size(), max_size = 0;
    for (std::size_t s = 0; s < sharded.shards(); ++s) {
      EXPECT_EQ(sharded.shard_begin(s), begin);
      EXPECT_EQ(sharded.shard_rows(s).size(), sharded.shard_size(s));
      min_size = std::min(min_size, sharded.shard_size(s));
      max_size = std::max(max_size, sharded.shard_size(s));
      begin += sharded.shard_size(s);
    }
    EXPECT_EQ(begin, cb.size()) << "partition must cover every row";
    EXPECT_LE(max_size - min_size, 1u) << "balanced partition";
  }
  // Null row memory is rejected; shards=0 defers to the env knob.
  EXPECT_THROW(ShardedItemMemory(nullptr), std::invalid_argument);
  {
    ScopedEnv shards("FACTORHD_SHARDS", "6");
    EXPECT_EQ(kernels::sharded_config_from_env().shards, 6u);
    EXPECT_EQ(ShardedItemMemory(packed).shards(), 6u);
  }
  {
    ScopedEnv min_rows("FACTORHD_SHARD_MIN_ROWS", "123");
    EXPECT_EQ(kernels::sharded_auto_min_rows(), 123u);
  }
}

TEST(ShardedMemory, ExactScansBitIdenticalAtEveryShardCount) {
  Xoshiro256 rng(41);
  // Off-word dimension and prime row count: exercises tail masking and
  // uneven partitions at every shard count below.
  const Codebook cb(257, 211, rng);
  const auto packed = std::make_shared<const PackedItemMemory>(cb);
  const std::vector<PackedQuery> queries = make_queries(cb, 7);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7},
        std::size_t{16}, std::size_t{211}, std::size_t{212}}) {
    SCOPED_TRACE("shards=" + std::to_string(n));
    ShardedConfig cfg;
    cfg.shards = n;
    expect_bit_identical(*packed, ShardedItemMemory(packed, cfg), queries);
  }
}

TEST(ShardedMemory, TiedRowsAcrossShardBoundariesMergeCanonically) {
  // Every row duplicates one of four patterns, so every query ties across
  // many rows — and with 5 shards over 37 rows, across shard boundaries.
  // The merged argmax must keep the lowest global index (the canonical
  // first-maximum rule) and the sorted surfaces must follow
  // hdc::match_order, i.e. stay bit-identical to the unsharded scan.
  Xoshiro256 rng(43);
  std::vector<Hypervector> patterns;
  for (int i = 0; i < 4; ++i) patterns.push_back(random_bipolar(192, rng));
  std::vector<Hypervector> items;
  for (std::size_t i = 0; i < 37; ++i) items.push_back(patterns[i % 4]);
  const Codebook cb(std::move(items));
  const auto packed = std::make_shared<const PackedItemMemory>(cb);
  const std::vector<PackedQuery> queries = make_queries(cb, 11);
  for (const std::size_t n : {std::size_t{2}, std::size_t{5}, std::size_t{9}}) {
    SCOPED_TRACE("shards=" + std::to_string(n));
    ShardedConfig cfg;
    cfg.shards = n;
    const ShardedItemMemory sharded(packed, cfg);
    expect_bit_identical(*packed, sharded, queries);
    for (const PackedQuery& q : queries) {
      // With only four distinct rows, the argmax is always a tie class of
      // ~9 duplicates; the winner must be its first (lowest) global index.
      EXPECT_LT(sharded.best(q).index, 4u);
    }
  }
}

TEST(ShardedMemory, SliceViewsShareTheParentPlanes) {
  Xoshiro256 rng(37);
  const Codebook cb(130, 20, rng);
  const auto packed = std::make_shared<const PackedItemMemory>(cb);
  const auto view = PackedItemMemory::slice(packed, 5, 10);
  EXPECT_EQ(view->size(), 10u);
  EXPECT_EQ(view->dim(), packed->dim());
  EXPECT_EQ(view->simd_level(), packed->simd_level());
  for (const PackedQuery& q : make_queries(cb, 23)) {
    std::vector<std::int64_t> full(packed->size());
    std::vector<std::int64_t> part(view->size());
    packed->dots(q, full);
    view->dots(q, part);
    EXPECT_TRUE(std::equal(part.begin(), part.end(), full.begin() + 5));
  }
  EXPECT_THROW((void)PackedItemMemory::slice(nullptr, 0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)PackedItemMemory::slice(packed, 0, 0),
               std::invalid_argument);
  EXPECT_THROW((void)PackedItemMemory::slice(packed, 15, 6),
               std::invalid_argument);
  EXPECT_THROW((void)PackedItemMemory::slice(packed, 21, 1),
               std::invalid_argument);
}

TEST(ShardedMemory, RejectsMalformedQueriesAndOutputSpans) {
  Xoshiro256 rng(59);
  const Codebook cb(128, 50, rng);
  const auto packed = std::make_shared<const PackedItemMemory>(cb);
  ShardedConfig cfg;
  cfg.shards = 3;
  const ShardedItemMemory sharded(packed, cfg);
  Xoshiro256 qrng(60);
  const PackedQuery wrong = *PackedQuery::pack(random_bipolar(256, qrng));
  const PackedQuery ok = *PackedQuery::pack(random_bipolar(128, qrng));
  EXPECT_THROW((void)sharded.best(wrong), std::invalid_argument);
  EXPECT_THROW((void)sharded.above(wrong, 0.0), std::invalid_argument);
  EXPECT_THROW((void)sharded.top_k(wrong, 3), std::invalid_argument);
  std::vector<std::int64_t> out(50);
  EXPECT_THROW(sharded.dots(wrong, out), std::invalid_argument);
  std::vector<std::int64_t> short_out(49);
  EXPECT_THROW(sharded.dots(ok, short_out), std::invalid_argument);
  const std::vector<PackedQuery> block{ok, ok};
  std::vector<std::int64_t> short_block(2 * 50 - 1);
  EXPECT_THROW(sharded.dots_block(block, short_block), std::invalid_argument);
  EXPECT_TRUE(sharded.top_k(ok, 0).empty());
  EXPECT_TRUE(sharded.best_block({}).empty());
}

// ---------------------------------------------------------------------------
// ShardedSoak: concurrent scatter-gather under TSan. The static initializer
// above forces the scan pool to width 4, and the codebook below is sized to
// clear the scalar parallel-scatter threshold (8192 rows x 8 words =
// 2^16 words), so the internal shard scatter runs genuinely threaded while
// multiple client threads hammer the same memory.
// ---------------------------------------------------------------------------

TEST(ShardedSoak, ConcurrentScattersAreRaceFreeAndBitIdentical) {
  ASSERT_TRUE(kPoolWidthForced);
  ASSERT_EQ(kernels::scan_pool_width(), 4u);
  Xoshiro256 rng(20260809);
  const Codebook cb(512, 8192, rng);
  // Scalar tier: the parallel-scatter break-even sits at 2^16 words, which
  // this codebook meets exactly; the vector tiers' 2^20 threshold would
  // need a far larger build than a unit test should pay for.
  const auto packed = std::make_shared<const PackedItemMemory>(
      cb, SimdLevel::kScalarWords);
  ShardedConfig eight_cfg;
  eight_cfg.shards = 8;
  const ShardedItemMemory eight(packed, eight_cfg);
  ShardedConfig five_cfg;
  five_cfg.shards = 5;
  const ShardedItemMemory five(packed, five_cfg);

  // Single-threaded references, computed before any concurrency starts.
  std::vector<PackedQuery> queries;
  Xoshiro256 qrng(61);
  for (int i = 0; i < 6; ++i) {
    queries.push_back(
        *PackedQuery::pack(flip_noise(cb.item(qrng.uniform(cb.size())),
                                      0.05, qrng)));
  }
  std::vector<Match> ref_best;
  std::vector<std::vector<Match>> ref_topk;
  std::vector<std::vector<std::int64_t>> ref_dots;
  for (const PackedQuery& q : queries) {
    ref_best.push_back(packed->best(q));
    ref_topk.push_back(packed->top_k(q, 5));
    std::vector<std::int64_t> d(packed->size());
    packed->dots(q, d);
    ref_dots.push_back(std::move(d));
  }

  std::atomic<std::size_t> mismatches{0};
  auto client = [&](std::size_t seed) {
    Xoshiro256 trng(seed);
    for (int iter = 0; iter < 8; ++iter) {
      const std::size_t qi = trng.uniform(queries.size());
      const ShardedItemMemory& mem = (iter % 2 == 0) ? eight : five;
      const Match b = mem.best(queries[qi]);
      if (b.index != ref_best[qi].index ||
          b.similarity != ref_best[qi].similarity) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
      const std::vector<Match> tk = mem.top_k(queries[qi], 5);
      if (tk.size() != ref_topk[qi].size()) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      } else {
        for (std::size_t i = 0; i < tk.size(); ++i) {
          if (tk[i].index != ref_topk[qi][i].index ||
              tk[i].similarity != ref_topk[qi][i].similarity) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      if (iter % 4 == 0) {
        std::vector<std::int64_t> d(mem.size());
        mem.dots(queries[qi], d);
        if (d != ref_dots[qi]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };
  {
    // jthreads join on scope exit, so a failing assertion below can never
    // destroy a joinable thread.
    std::vector<std::jthread> clients;
    for (std::size_t t = 0; t < 4; ++t) {
      clients.emplace_back(client, 100 + t);
    }
  }
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
