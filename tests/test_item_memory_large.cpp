// Default-backend exactness at large codebook sizes.
//
// FactorHD's clean-up step assumes a scan over a codebook returns its best
// match. The default kAuto backend must therefore scan exactly at every
// codebook size, including 65536 rows and above, where nothing in the paper
// workloads reaches but serving models do. These tests pin kAuto to the
// exact kPacked and kScalar backends bit for bit on queries shaped like the
// factorizer's own: the sign of a 3-term bundle, whose similarity to each
// of its terms is about 0.5.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/encoder.hpp"
#include "core/factorizer.hpp"
#include "hdc/item_memory.hpp"
#include "hdc/ops.hpp"
#include "taxonomy/codebooks.hpp"
#include "taxonomy/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace factorhd;
using hdc::Codebook;
using hdc::Hypervector;
using hdc::ItemMemory;
using hdc::Match;
using hdc::ScanBackend;

// 65536 rows: the row count at which kAuto used to switch to an approximate
// index. One 64-bit word per row keeps the codebook at 16 MiB.
constexpr std::size_t kRows = 65536;
constexpr std::size_t kDim = 64;
constexpr std::size_t kQueries = 64;

// sign(a + b + c) of three distinct codebook rows: bipolar (the sum of three
// +-1 terms is odd), so every backend takes its packed route where it has one.
std::vector<Hypervector> bundle_queries(const Codebook& cb,
                                        util::Xoshiro256& rng) {
  std::vector<Hypervector> out;
  out.reserve(kQueries);
  for (std::size_t q = 0; q < kQueries; ++q) {
    const std::size_t a = rng.uniform(kRows);
    const std::size_t b = (a + 1 + rng.uniform(kRows - 1)) % kRows;
    std::size_t c = rng.uniform(kRows);
    while (c == a || c == b) c = rng.uniform(kRows);
    const std::vector<Hypervector> terms{cb.item(a), cb.item(b), cb.item(c)};
    out.push_back(hdc::sign(hdc::bundle(terms)));
  }
  return out;
}

void expect_same(const Match& want, const Match& got, std::size_t q,
                 const char* what) {
  EXPECT_EQ(want.index, got.index) << what << " query " << q;
  EXPECT_EQ(want.similarity, got.similarity) << what << " query " << q;
}

TEST(ItemMemoryLarge, AutoBackendIsExactAt65536Rows) {
  util::Xoshiro256 rng(2025);
  const Codebook cb(kDim, kRows, rng);
  const ItemMemory automatic(cb);
  const ItemMemory packed(cb, ScanBackend::kPacked);
  const ItemMemory scalar(cb, ScanBackend::kScalar);
  const std::vector<Hypervector> queries = bundle_queries(cb, rng);

  const std::vector<Match> auto_block = automatic.best_block(queries);
  const std::vector<Match> packed_block = packed.best_block(queries);
  ASSERT_EQ(auto_block.size(), kQueries);
  ASSERT_EQ(packed_block.size(), kQueries);
  for (std::size_t q = 0; q < kQueries; ++q) {
    const Match want = scalar.best(queries[q]);
    expect_same(want, packed.best(queries[q]), q, "kPacked best");
    expect_same(want, automatic.best(queries[q]), q, "kAuto best");
    expect_same(want, packed_block[q], q, "kPacked best_block");
    expect_same(want, auto_block[q], q, "kAuto best_block");
  }
  EXPECT_EQ(automatic.similarity_ops(), packed.similarity_ops());
}

TEST(ItemMemoryLarge, AutoFactorizerIsExactAt65536RowsPerClass) {
  util::Xoshiro256 rng(7);
  const tax::Taxonomy taxonomy(3, {kRows});
  const tax::TaxonomyCodebooks books(taxonomy, kDim, rng);
  const core::Encoder encoder(books);
  const core::Factorizer automatic(encoder);
  const core::Factorizer packed(encoder, ScanBackend::kPacked);

  for (std::size_t i = 0; i < 16; ++i) {
    const Hypervector target =
        encoder.encode_object(tax::random_object(taxonomy, rng));
    const core::FactorizeResult want = packed.factorize(target);
    const core::FactorizeResult got = automatic.factorize(target);
    EXPECT_EQ(got.similarity_ops, want.similarity_ops) << "target " << i;
    EXPECT_TRUE(got == want) << "target " << i;
  }
}

}  // namespace
