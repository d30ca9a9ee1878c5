// Kernel/scalar equivalence suite: hdc::ItemMemory on the packed word-plane
// backend must return bit-identical results (index, similarity, ordering) to
// the scalar backend, for bipolar and ternary codebooks, at dimensions that
// are and are not multiples of 64, including tie and empty-result cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/encoder.hpp"
#include "core/factorizer.hpp"
#include "hdc/item_memory.hpp"
#include "hdc/kernels/packed_item_memory.hpp"
#include "hdc/kernels/plane.hpp"
#include "hdc/kernels/simd.hpp"
#include "hdc/ops.hpp"
#include "hdc/random.hpp"
#include "hdc/similarity.hpp"
#include "taxonomy/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace factorhd;
using namespace factorhd::hdc;
using factorhd::util::Xoshiro256;
using kernels::PackedItemMemory;
using kernels::PackedQuery;

// Dimensions straddling the 64-bit word boundary plus a larger odd size.
const std::size_t kDims[] = {63, 64, 65, 1000};

Codebook make_bipolar_codebook(std::size_t dim, std::size_t size,
                               Xoshiro256& rng) {
  return Codebook(dim, size, rng);
}

Codebook make_ternary_codebook(std::size_t dim, std::size_t size,
                               Xoshiro256& rng) {
  std::vector<Hypervector> items;
  items.reserve(size);
  for (std::size_t j = 0; j < size; ++j) {
    items.push_back(random_ternary(dim, 0.4, rng));
  }
  return Codebook(std::move(items));
}

// Queries covering every packed-eligible alphabet plus the scalar fallback.
std::vector<Hypervector> make_queries(std::size_t dim, Xoshiro256& rng,
                                      const Codebook& cb) {
  std::vector<Hypervector> qs;
  qs.push_back(random_bipolar(dim, rng));
  qs.push_back(random_ternary(dim, 0.3, rng));
  qs.push_back(cb.item(0));  // exact hit
  // Clipped bundle of two items (the FactorHD single-object query shape).
  qs.push_back(clip_ternary(bundle(cb.item(1), cb.item(2 % cb.size()))));
  // Integer bundle (multi-object residual shape): forces the scalar
  // fallback inside the packed-backend memory — results must still match.
  qs.push_back(bundle(bundle(cb.item(0), cb.item(1)), random_bipolar(dim, rng)));
  qs.push_back(Hypervector(dim));  // all-zero (ternary, zero similarity)
  return qs;
}

void expect_same_matches(const std::vector<Match>& a,
                         const std::vector<Match>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << "position " << i;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a[i].similarity, b[i].similarity) << "position " << i;
  }
}

void check_equivalence(const Codebook& cb, const Hypervector& query) {
  const ItemMemory scalar(cb, ScanBackend::kScalar);
  const ItemMemory packed(cb, ScanBackend::kPacked);
  ASSERT_EQ(scalar.backend(), ScanBackend::kScalar);
  ASSERT_EQ(packed.backend(), ScanBackend::kPacked);

  const Match bs = scalar.best(query);
  const Match bp = packed.best(query);
  EXPECT_EQ(bs.index, bp.index);
  EXPECT_EQ(bs.similarity, bp.similarity);

  // Thresholds spanning "everything", "some", "exact boundary", "nothing".
  const double mid = bs.similarity / 2.0;
  for (double th : {-2.0, -0.5, 0.0, mid, bs.similarity, 1.5}) {
    expect_same_matches(scalar.above(query, th), packed.above(query, th));
  }
  // `above` at the best similarity is exclusive, so the best entry itself
  // must be absent from both backends.
  for (const Match& m : packed.above(query, bs.similarity)) {
    EXPECT_LT(m.similarity, bs.similarity + 1e-12);
    EXPECT_GT(m.similarity, bs.similarity - 1.0);  // sanity: finite
  }
  EXPECT_TRUE(packed.above(query, 1.5).empty());
  EXPECT_TRUE(scalar.above(query, 1.5).empty());

  for (std::size_t k : {std::size_t{1}, std::size_t{3}, cb.size(), cb.size() + 7}) {
    expect_same_matches(scalar.top_k(query, k), packed.top_k(query, k));
  }

  const std::vector<std::size_t> subset{0, cb.size() - 1, 1};
  const Match ss = scalar.best_among(query, subset);
  const Match sp = packed.best_among(query, subset);
  EXPECT_EQ(ss.index, sp.index);
  EXPECT_EQ(ss.similarity, sp.similarity);
  expect_same_matches(scalar.above_among(query, -2.0, subset),
                      packed.above_among(query, -2.0, subset));
  EXPECT_THROW((void)scalar.best_among(query, {}), std::invalid_argument);
  EXPECT_THROW((void)packed.best_among(query, {}), std::invalid_argument);

  std::vector<std::int64_t> ds(cb.size()), dp(cb.size());
  scalar.dots(query, ds);
  packed.dots(query, dp);
  EXPECT_EQ(ds, dp);
  for (std::size_t j = 0; j < cb.size(); ++j) {
    EXPECT_EQ(ds[j], dot(query, cb.item(j))) << "row " << j;
  }
}

TEST(KernelEquivalence, BipolarCodebooksAllDims) {
  Xoshiro256 rng(101);
  for (std::size_t dim : kDims) {
    SCOPED_TRACE(dim);
    const Codebook cb = make_bipolar_codebook(dim, 17, rng);
    for (const Hypervector& q : make_queries(dim, rng, cb)) {
      check_equivalence(cb, q);
    }
  }
}

TEST(KernelEquivalence, TernaryCodebooksAllDims) {
  Xoshiro256 rng(202);
  for (std::size_t dim : kDims) {
    SCOPED_TRACE(dim);
    const Codebook cb = make_ternary_codebook(dim, 17, rng);
    for (const Hypervector& q : make_queries(dim, rng, cb)) {
      check_equivalence(cb, q);
    }
  }
}

TEST(KernelEquivalence, TiedSimilaritiesOrderIdentically) {
  Xoshiro256 rng(303);
  // Duplicate entries guarantee exact similarity ties; the canonical
  // match_order tie-break (ascending index) must make both backends agree
  // on the full ordering, and `best` must keep the first maximum.
  const Hypervector a = random_bipolar(65, rng);
  const Hypervector b = random_bipolar(65, rng);
  const Codebook cb(std::vector<Hypervector>{a, b, a, b, a});
  const ItemMemory scalar(cb, ScanBackend::kScalar);
  const ItemMemory packed(cb, ScanBackend::kPacked);

  const Match ms = scalar.best(a);
  const Match mp = packed.best(a);
  EXPECT_EQ(ms.index, 0u);
  EXPECT_EQ(mp.index, 0u);
  EXPECT_EQ(ms.similarity, 1.0);
  EXPECT_EQ(mp.similarity, 1.0);

  const std::vector<Match> as = scalar.above(a, -2.0);
  const std::vector<Match> ap = packed.above(a, -2.0);
  ASSERT_EQ(as.size(), 5u);
  expect_same_matches(as, ap);
  // Ties resolved by ascending index: the three copies of `a` first.
  EXPECT_EQ(as[0].index, 0u);
  EXPECT_EQ(as[1].index, 2u);
  EXPECT_EQ(as[2].index, 4u);

  expect_same_matches(scalar.top_k(a, 4), packed.top_k(a, 4));
}

TEST(KernelEquivalence, AutoSelectsPackedForPackableCodebooks) {
  Xoshiro256 rng(404);
  const Codebook bipolar = make_bipolar_codebook(100, 4, rng);
  EXPECT_EQ(ItemMemory(bipolar).backend(), ScanBackend::kPacked);
  const Codebook ternary = make_ternary_codebook(100, 4, rng);
  EXPECT_EQ(ItemMemory(ternary).backend(), ScanBackend::kPacked);

  // Integer codebook: auto falls back to scalar, kPacked refuses.
  const Hypervector big = bundle(bundle(bipolar.item(0), bipolar.item(1)),
                                 bipolar.item(2));
  const Codebook integer(std::vector<Hypervector>{big, big});
  EXPECT_FALSE(PackedItemMemory::packable(integer));
  EXPECT_EQ(ItemMemory(integer).backend(), ScanBackend::kScalar);
  EXPECT_THROW(ItemMemory(integer, ScanBackend::kPacked),
               std::invalid_argument);
}

TEST(KernelEquivalence, PackedQueryClassifiesAlphabets) {
  Xoshiro256 rng(505);
  const auto bip = PackedQuery::pack(random_bipolar(63, rng));
  ASSERT_TRUE(bip.has_value());
  EXPECT_TRUE(bip->bipolar);
  const auto ter = PackedQuery::pack(random_ternary(63, 0.5, rng));
  ASSERT_TRUE(ter.has_value());
  EXPECT_FALSE(ter->bipolar);
  EXPECT_FALSE(PackedQuery::pack(Hypervector{2, 1, -1}).has_value());
  EXPECT_FALSE(PackedQuery::pack(Hypervector{}).has_value());
}

TEST(KernelEquivalence, PackedStorageBits) {
  Xoshiro256 rng(606);
  const Codebook bipolar = make_bipolar_codebook(65, 3, rng);
  EXPECT_EQ(PackedItemMemory(bipolar).storage_bits(), 3u * 65u);
  const Codebook ternary = make_ternary_codebook(65, 3, rng);
  EXPECT_EQ(PackedItemMemory(ternary).storage_bits(), 2u * 3u * 65u);
  EXPECT_EQ(PackedItemMemory(bipolar).words_per_row(), 2u);
}

TEST(KernelEquivalence, FactorizerBackendsAgreeEndToEnd) {
  // The whole Algorithm 1 pipeline — single-object argmax and the
  // multi-object thresholded loop (whose residual queries exercise the
  // scalar fallback) — must produce identical results on both backends.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Xoshiro256 rng(seed);
    const tax::Taxonomy taxonomy(3, {8, 4});
    const tax::TaxonomyCodebooks books(taxonomy, 1000, rng);
    const core::Encoder encoder(books);
    const core::Factorizer scalar(encoder, ScanBackend::kScalar);
    const core::Factorizer packed(encoder, ScanBackend::kPacked);
    ASSERT_EQ(scalar.scan_backend(), ScanBackend::kScalar);
    ASSERT_EQ(packed.scan_backend(), ScanBackend::kPacked);

    const tax::Object obj = tax::random_object(taxonomy, rng);
    const Hypervector single = encoder.encode_object(obj);
    const auto rs = scalar.factorize(single, {});
    const auto rp = packed.factorize(single, {});
    ASSERT_EQ(rs.objects.size(), rp.objects.size());
    EXPECT_EQ(rs.similarity_ops, rp.similarity_ops);
    for (std::size_t o = 0; o < rs.objects.size(); ++o) {
      ASSERT_EQ(rs.objects[o].classes.size(), rp.objects[o].classes.size());
      for (std::size_t c = 0; c < rs.objects[o].classes.size(); ++c) {
        const auto& cs = rs.objects[o].classes[c];
        const auto& cp = rp.objects[o].classes[c];
        EXPECT_EQ(cs.present, cp.present);
        EXPECT_EQ(cs.path, cp.path);
        EXPECT_EQ(cs.level_similarities, cp.level_similarities);
      }
    }

    const tax::Scene scene = tax::random_scene(
        taxonomy, rng,
        {.num_objects = 2, .object = {}, .allow_duplicates = false});
    const Hypervector multi = encoder.encode_scene(scene);
    core::FactorizeOptions opts;
    opts.multi_object = true;
    opts.num_objects_hint = 2;
    const auto ms = scalar.factorize(multi, opts);
    const auto mp = packed.factorize(multi, opts);
    ASSERT_EQ(ms.objects.size(), mp.objects.size());
    EXPECT_EQ(ms.similarity_ops, mp.similarity_ops);
    EXPECT_EQ(ms.combinations_checked, mp.combinations_checked);
    EXPECT_EQ(ms.converged, mp.converged);
    for (std::size_t o = 0; o < ms.objects.size(); ++o) {
      EXPECT_EQ(ms.objects[o].match_similarity, mp.objects[o].match_similarity);
      EXPECT_EQ(ms.objects[o].to_object(3), mp.objects[o].to_object(3));
    }
  }
}

TEST(KernelEquivalence, SimilarityOpCountsMatchScalar) {
  Xoshiro256 rng(707);
  const Codebook cb = make_bipolar_codebook(128, 9, rng);
  const ItemMemory scalar(cb, ScanBackend::kScalar);
  const ItemMemory packed(cb, ScanBackend::kPacked);
  const Hypervector q = random_bipolar(128, rng);

  (void)scalar.best(q);
  (void)packed.best(q);
  (void)scalar.above(q, 0.5);
  (void)packed.above(q, 0.5);
  (void)scalar.best_among(q, {1, 2, 3});
  (void)packed.best_among(q, {1, 2, 3});
  (void)scalar.top_k(q, 2);
  (void)packed.top_k(q, 2);
  EXPECT_EQ(scalar.similarity_ops(), packed.similarity_ops());
  EXPECT_EQ(scalar.similarity_ops(), 9u + 9u + 3u + 9u);
}

}  // namespace
