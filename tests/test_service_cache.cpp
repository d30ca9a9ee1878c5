// Unit tests for hdc::hash_hypervector, the request fingerprints, and the
// sharded LRU service::ResultCache.
#include <gtest/gtest.h>

#include <set>

#include "hdc/hash.hpp"
#include "hdc/random.hpp"
#include "service/result_cache.hpp"
#include "util/rng.hpp"

namespace {

using namespace factorhd;

core::FactorizeResult make_result(std::size_t tag) {
  core::FactorizeResult r;
  core::FactorizedObject obj;
  core::ClassFactorization cf;
  cf.cls = tag;
  cf.present = true;
  cf.path = {tag};
  obj.classes.push_back(cf);
  r.objects.push_back(obj);
  r.similarity_ops = tag * 100;
  return r;
}

TEST(HashHypervector, EqualContentHashesEqual) {
  util::Xoshiro256 rng(1);
  const hdc::Hypervector v = hdc::random_bipolar(257, rng);
  hdc::Hypervector copy = v;
  EXPECT_EQ(hdc::hash_hypervector(v), hdc::hash_hypervector(copy));
}

TEST(HashHypervector, SensitiveToEveryComponentAndToDim) {
  util::Xoshiro256 rng(2);
  const hdc::Hypervector v = hdc::random_bipolar(64, rng);
  const std::uint64_t base = hdc::hash_hypervector(v);
  for (std::size_t i = 0; i < v.dim(); ++i) {
    hdc::Hypervector flipped = v;
    flipped[i] = -flipped[i];
    EXPECT_NE(hdc::hash_hypervector(flipped), base) << "component " << i;
  }
  // A zero-padded extension is distinct content.
  std::vector<std::int32_t> padded(v.components().begin(),
                                   v.components().end());
  padded.push_back(0);
  EXPECT_NE(hdc::hash_hypervector(hdc::Hypervector(std::move(padded))), base);
  // Seed separates domains; the empty HV is defined.
  EXPECT_NE(hdc::hash_hypervector(v, 1), base);
  EXPECT_EQ(hdc::hash_hypervector(hdc::Hypervector()),
            hdc::hash_hypervector(hdc::Hypervector()));
}

TEST(HashHypervector, NoCollisionsAcrossASampledFamily) {
  util::Xoshiro256 rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(hdc::hash_hypervector(hdc::random_ternary(128, 0.5, rng)));
  }
  // Random ternary draws can repeat, but near-500 distinct hashes are
  // expected; any systematic collapse would crater this count.
  EXPECT_GT(seen.size(), 490u);
}

TEST(HashHypervector, EveryComponentCountsAtAwkwardDims) {
  // Dims that leave every shape of tail after the four two-component lanes:
  // none, a lone odd component, whole pairs, and both.
  util::Xoshiro256 rng(5);
  for (const std::size_t dim : {1, 3, 7, 63, 65, 1023, 2049}) {
    const hdc::Hypervector v = hdc::random_bipolar(dim, rng);
    const std::uint64_t base = hdc::hash_hypervector(v);
    EXPECT_EQ(hdc::hash_hypervector(hdc::Hypervector(v)), base) << dim;
    for (std::size_t i = 0; i < dim; ++i) {
      hdc::Hypervector flipped = v;
      flipped[i] = -flipped[i];
      ASSERT_NE(hdc::hash_hypervector(flipped), base)
          << "dim " << dim << " component " << i;
    }
    // The dimension and the seed still separate keys.
    std::vector<std::int32_t> longer(v.components().begin(),
                                     v.components().end());
    longer.push_back(0);
    EXPECT_NE(hdc::hash_hypervector(hdc::Hypervector(std::move(longer))), base)
        << dim;
    EXPECT_NE(hdc::hash_hypervector(v, 1), base) << dim;
    const core::FactorizeOptions opts;
    core::FactorizeOptions multi;
    multi.multi_object = true;
    EXPECT_NE(service::request_key(v, opts), service::request_key(v, multi))
        << dim;
  }
}

TEST(HashHypervector, RequestKeysSpreadOverEveryCacheShard) {
  // ResultCache::shard_of takes key % shards, so the low bits must be well
  // mixed: 10k random targets land within 5 sigma of 1/8 in every shard.
  util::Xoshiro256 rng(6);
  const core::FactorizeOptions opts;
  std::vector<std::size_t> per_shard(8, 0);
  for (int i = 0; i < 10000; ++i) {
    ++per_shard[service::request_key(hdc::random_ternary(64, 0.5, rng), opts) %
                8];
  }
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    EXPECT_GT(per_shard[s], 1250u - 165u) << "shard " << s;
    EXPECT_LT(per_shard[s], 1250u + 165u) << "shard " << s;
  }
}

TEST(FingerprintOptions, DistinguishesEveryField) {
  const core::FactorizeOptions base;
  const std::uint64_t fp = service::fingerprint_options(base);
  EXPECT_EQ(service::fingerprint_options(base), fp);  // deterministic

  core::FactorizeOptions o = base;
  o.multi_object = true;
  EXPECT_NE(service::fingerprint_options(o), fp);
  o = base;
  o.threshold = 0.25;
  EXPECT_NE(service::fingerprint_options(o), fp);
  o = base;
  o.num_objects_hint = 3;
  EXPECT_NE(service::fingerprint_options(o), fp);
  o = base;
  o.max_objects = 7;
  EXPECT_NE(service::fingerprint_options(o), fp);
  o = base;
  o.selected_classes = {1};
  EXPECT_NE(service::fingerprint_options(o), fp);
  o = base;
  o.max_depth = 1;
  EXPECT_NE(service::fingerprint_options(o), fp);
  o = base;
  o.max_candidates_per_class = 2;
  EXPECT_NE(service::fingerprint_options(o), fp);
  o = base;
  o.collect_trace = true;
  EXPECT_NE(service::fingerprint_options(o), fp);
}

TEST(ResultCache, InsertLookupRoundTrip) {
  util::Xoshiro256 rng(4);
  service::ResultCache cache(16, 4);
  EXPECT_TRUE(cache.enabled());
  const hdc::Hypervector t = hdc::random_bipolar(64, rng);
  const core::FactorizeOptions opts;
  const std::uint64_t key = service::request_key(t, opts);
  EXPECT_FALSE(cache.lookup(key, t, opts).has_value());
  cache.insert(key, t, opts, make_result(1));
  const auto hit = cache.lookup(key, t, opts);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit == make_result(1));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, DifferentOptionsAreDifferentEntries) {
  util::Xoshiro256 rng(5);
  service::ResultCache cache(16, 1);
  const hdc::Hypervector t = hdc::random_bipolar(64, rng);
  core::FactorizeOptions a;
  core::FactorizeOptions b;
  b.multi_object = true;
  cache.insert(service::request_key(t, a), t, a, make_result(1));
  cache.insert(service::request_key(t, b), t, b, make_result(2));
  EXPECT_TRUE(*cache.lookup(service::request_key(t, a), t, a) ==
              make_result(1));
  EXPECT_TRUE(*cache.lookup(service::request_key(t, b), t, b) ==
              make_result(2));
}

TEST(ResultCache, FingerprintCollisionIsAMissNeverAWrongAnswer) {
  // The public API takes the key from the caller, so a collision is
  // directly constructible: two different targets filed under one key.
  util::Xoshiro256 rng(6);
  service::ResultCache cache(16, 1);
  const hdc::Hypervector a = hdc::random_bipolar(64, rng);
  const hdc::Hypervector b = hdc::random_bipolar(64, rng);
  const core::FactorizeOptions opts;
  cache.insert(42, a, opts, make_result(1));
  // Same key, different target: must miss (verification), not serve a's
  // result.
  EXPECT_FALSE(cache.lookup(42, b, opts).has_value());
  // Colliding insert overwrites; the old entry is gone, the new one valid.
  cache.insert(42, b, opts, make_result(2));
  EXPECT_FALSE(cache.lookup(42, a, opts).has_value());
  EXPECT_TRUE(*cache.lookup(42, b, opts) == make_result(2));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsedPerShard) {
  util::Xoshiro256 rng(7);
  service::ResultCache cache(3, 1);  // one shard, 3 entries
  const core::FactorizeOptions opts;
  std::vector<hdc::Hypervector> ts;
  for (std::size_t i = 0; i < 4; ++i) {
    ts.push_back(hdc::random_bipolar(64, rng));
  }
  auto key = [&](std::size_t i) { return service::request_key(ts[i], opts); };
  cache.insert(key(0), ts[0], opts, make_result(0));
  cache.insert(key(1), ts[1], opts, make_result(1));
  cache.insert(key(2), ts[2], opts, make_result(2));
  // Touch 0 so 1 becomes the LRU victim.
  EXPECT_TRUE(cache.lookup(key(0), ts[0], opts).has_value());
  cache.insert(key(3), ts[3], opts, make_result(3));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.lookup(key(0), ts[0], opts).has_value());
  EXPECT_FALSE(cache.lookup(key(1), ts[1], opts).has_value()) << "LRU victim";
  EXPECT_TRUE(cache.lookup(key(2), ts[2], opts).has_value());
  EXPECT_TRUE(cache.lookup(key(3), ts[3], opts).has_value());
}

TEST(ResultCache, ZeroCapacityDisables) {
  util::Xoshiro256 rng(8);
  service::ResultCache cache(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.capacity(), 0u);
  const hdc::Hypervector t = hdc::random_bipolar(64, rng);
  const core::FactorizeOptions opts;
  cache.insert(1, t, opts, make_result(1));
  EXPECT_FALSE(cache.lookup(1, t, opts).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, ShardingPreservesCapacityAndClearWorks) {
  // 10 entries over 4 shards: the budget distributes exactly (3+3+2+2),
  // so the aggregate bound is the requested 10 — not the rounded-up 12
  // the old ceil(capacity/shards) per-shard cap allowed.
  service::ResultCache cache(10, 4);
  EXPECT_EQ(cache.capacity(), 10u);
  util::Xoshiro256 rng(9);
  const core::FactorizeOptions opts;
  std::vector<hdc::Hypervector> ts;
  for (std::size_t i = 0; i < 40; ++i) {
    ts.push_back(hdc::random_bipolar(32, rng));
    cache.insert(service::request_key(ts.back(), opts), ts.back(), opts,
                 make_result(i));
  }
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_GT(cache.size(), 0u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  // Shard count larger than capacity is clamped (1 entry per shard).
  service::ResultCache tiny(2, 64);
  EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(ResultCache, AggregateNeverExceedsCapacityWhenEveryShardOverfills) {
  // Regression for the ceil-rounding bug: with a capacity that does not
  // divide the shard count, round-up per-shard caps let the aggregate
  // reach shards * ceil(capacity/shards) > capacity once every shard
  // filled. Over-fill every shard by an order of magnitude and assert the
  // exact bound holds for several (capacity, shards) shapes.
  util::Xoshiro256 rng(10);
  const core::FactorizeOptions opts;
  const struct {
    std::size_t capacity;
    std::size_t shards;
  } shapes[] = {{10, 4}, {7, 3}, {5, 8}, {16, 16}, {9, 2}, {1, 1}};
  for (const auto& shape : shapes) {
    SCOPED_TRACE("capacity=" + std::to_string(shape.capacity) +
                 " shards=" + std::to_string(shape.shards));
    service::ResultCache cache(shape.capacity, shape.shards);
    EXPECT_EQ(cache.capacity(), shape.capacity);
    for (std::size_t i = 0; i < shape.capacity * 10 + 50; ++i) {
      const hdc::Hypervector t = hdc::random_bipolar(32, rng);
      cache.insert(service::request_key(t, opts), t, opts, make_result(i));
      ASSERT_LE(cache.size(), cache.capacity());
    }
    // A well-hashed fill should also come close to the bound from below:
    // every shard holds at least one entry after this many inserts.
    EXPECT_GE(cache.size(), std::min(shape.capacity, shape.shards));
  }
}

}  // namespace
