// Seeded randomized differential fuzzer over the similarity-scan backends.
//
// For ~200 random (dim, codebook size, alphabet, query representation)
// configurations, every packed backend — the scalar-word tier and each SIMD
// tier available on this CPU — must agree *exactly* with the scalar int32
// reference on the full scan surface: best / best_among / above /
// above_among / top_k / dots. "Exactly" means bit-identical index,
// similarity, and ordering (ties resolved by hdc::match_order), which is the
// contract that lets ScanBackend be a pure performance knob.
//
// The configuration stream deliberately over-samples the hard cases:
// dimensions straddling the 64-bit word and 256/512-bit vector boundaries
// (63/64/65/255/256/257) and tie-heavy codebooks built from a handful of
// distinct rows, where any backend that broke tie ordering would diverge.
//
// The multi-query blocked scans (PackedItemMemory::*_block and
// hdc::ItemMemory::best_block) ride the same differential with a block-size
// axis: at every block size Q in {1, 2, 3, 8, 33, 64} the blocked result
// must be bit-identical to Q independent single-query scans, on every SIMD
// tier, including tie-heavy codebooks and blocks whose queries force the
// per-query fallback (integer bundles).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hdc/item_memory.hpp"
#include "hdc/kernels/packed_item_memory.hpp"
#include "hdc/kernels/plane.hpp"
#include "hdc/kernels/simd.hpp"
#include "hdc/ops.hpp"
#include "hdc/random.hpp"
#include "util/rng.hpp"

namespace {

using namespace factorhd;
using namespace factorhd::hdc;
using factorhd::util::Xoshiro256;
using kernels::PackedQuery;
using kernels::SimdLevel;

// Word- and vector-boundary dimensions every fuzz run must cover.
const std::size_t kBoundaryDims[] = {63, 64, 65, 255, 256, 257};

// Block sizes the blocked-scan differential covers: the degenerate
// single-query block, sizes below/at/above the AVX-512 2-query register
// tile, a straddle of the ternary kernel's 64-query support-hoist group
// (33), and one full group (64).
const std::size_t kBlockSizes[] = {1, 2, 3, 8, 33, 64};

// Every packed backend this CPU can execute, scalar-word tier first.
std::vector<ScanBackend> packed_backends() {
  std::vector<ScanBackend> backends{ScanBackend::kPackedWords};
  if (kernels::simd_level_available(SimdLevel::kAVX2)) {
    backends.push_back(ScanBackend::kPackedAVX2);
  }
  if (kernels::simd_level_available(SimdLevel::kAVX512)) {
    backends.push_back(ScanBackend::kPackedAVX512);
  }
  if (kernels::simd_level_available(SimdLevel::kNEON)) {
    backends.push_back(ScanBackend::kPackedNEON);
  }
  backends.push_back(ScanBackend::kPacked);  // the dispatched default
  return backends;
}

const char* backend_name(ScanBackend b) {
  switch (b) {
    case ScanBackend::kPacked:
      return "kPacked";
    case ScanBackend::kPackedWords:
      return "kPackedWords";
    case ScanBackend::kPackedAVX2:
      return "kPackedAVX2";
    case ScanBackend::kPackedAVX512:
      return "kPackedAVX512";
    case ScanBackend::kPackedNEON:
      return "kPackedNEON";
    default:
      return "?";
  }
}

struct FuzzConfig {
  std::size_t dim = 0;
  std::size_t size = 0;
  bool ternary = false;
  bool tie_heavy = false;

  std::string describe() const {
    return "dim=" + std::to_string(dim) + " size=" + std::to_string(size) +
           (ternary ? " ternary" : " bipolar") +
           (tie_heavy ? " tie-heavy" : "");
  }
};

Hypervector random_entry(const FuzzConfig& cfg, Xoshiro256& rng) {
  if (cfg.ternary) {
    // Vary the density so supports of different sizes are exercised.
    const double density = 0.2 + 0.6 * (rng.uniform_double());
    return random_ternary(cfg.dim, density, rng);
  }
  return random_bipolar(cfg.dim, rng);
}

Codebook make_codebook(const FuzzConfig& cfg, Xoshiro256& rng) {
  std::vector<Hypervector> items;
  items.reserve(cfg.size);
  if (cfg.tie_heavy) {
    // A handful of distinct rows repeated in random order: guaranteed exact
    // similarity ties at every threshold, the case that breaks any backend
    // whose ordering is not exactly hdc::match_order.
    const std::size_t distinct = 1 + rng.uniform(3);
    std::vector<Hypervector> base;
    for (std::size_t i = 0; i < distinct; ++i) {
      base.push_back(random_entry(cfg, rng));
    }
    for (std::size_t i = 0; i < cfg.size; ++i) {
      items.push_back(base[rng.uniform(distinct)]);
    }
  } else {
    for (std::size_t i = 0; i < cfg.size; ++i) {
      items.push_back(random_entry(cfg, rng));
    }
  }
  return Codebook(std::move(items));
}

// Query representations: bipolar, ternary, an exact codebook hit, the
// clipped single-object bundle, the integer multi-object residual (which
// must take the scalar fallback inside packed memories), and all-zero.
std::vector<Hypervector> make_queries(const FuzzConfig& cfg, const Codebook& cb,
                                      Xoshiro256& rng) {
  std::vector<Hypervector> qs;
  qs.push_back(random_bipolar(cfg.dim, rng));
  qs.push_back(random_ternary(cfg.dim, 0.5, rng));
  qs.push_back(cb.item(rng.uniform(cb.size())));
  qs.push_back(clip_ternary(
      bundle(cb.item(rng.uniform(cb.size())), random_bipolar(cfg.dim, rng))));
  qs.push_back(bundle(bundle(cb.item(0), random_bipolar(cfg.dim, rng)),
                      random_bipolar(cfg.dim, rng)));
  qs.push_back(Hypervector(cfg.dim));
  return qs;
}

void expect_same_matches(const std::vector<Match>& ref,
                         const std::vector<Match>& got) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].index, got[i].index) << "position " << i;
    EXPECT_EQ(ref[i].similarity, got[i].similarity) << "position " << i;
  }
}

// Random index subset (with duplicates and arbitrary order) for the *_among
// scans; always non-empty and in range.
std::vector<std::size_t> random_subset(std::size_t size, Xoshiro256& rng) {
  const std::size_t n = 1 + rng.uniform(size);
  std::vector<std::size_t> subset;
  subset.reserve(n);
  for (std::size_t i = 0; i < n; ++i) subset.push_back(rng.uniform(size));
  return subset;
}

void check_one_query(const Codebook& cb, const ItemMemory& scalar,
                     const ItemMemory& packed, const Hypervector& query,
                     Xoshiro256& rng) {
  const Match ref_best = scalar.best(query);
  const Match got_best = packed.best(query);
  EXPECT_EQ(ref_best.index, got_best.index);
  EXPECT_EQ(ref_best.similarity, got_best.similarity);

  // Thresholds: everything / nothing / exact-boundary (exclusive) / mid.
  for (double th :
       {-2.0, 1.5, ref_best.similarity, ref_best.similarity / 2.0, 0.0}) {
    expect_same_matches(scalar.above(query, th), packed.above(query, th));
  }

  for (std::size_t k : {std::size_t{1}, cb.size() / 2, cb.size(),
                        cb.size() + 5}) {
    if (k == 0) continue;
    expect_same_matches(scalar.top_k(query, k), packed.top_k(query, k));
  }

  const std::vector<std::size_t> subset = random_subset(cb.size(), rng);
  const Match ref_among = scalar.best_among(query, subset);
  const Match got_among = packed.best_among(query, subset);
  EXPECT_EQ(ref_among.index, got_among.index);
  EXPECT_EQ(ref_among.similarity, got_among.similarity);
  expect_same_matches(scalar.above_among(query, ref_best.similarity / 2.0, subset),
                      packed.above_among(query, ref_best.similarity / 2.0, subset));

  std::vector<std::int64_t> ref_dots(cb.size()), got_dots(cb.size());
  scalar.dots(query, ref_dots);
  packed.dots(query, got_dots);
  EXPECT_EQ(ref_dots, got_dots);
}

// Shard counts of the scatter-gather axis: the degenerate single shard,
// small counts that rarely divide the codebook size, and counts that
// exceed the 1..45-row codebooks entirely (clamped to one row per shard).
const std::size_t kShardCounts[] = {1, 2, 3, 7, 16};

void run_config(const FuzzConfig& cfg, const std::vector<ScanBackend>& backends,
                Xoshiro256& rng) {
  SCOPED_TRACE(cfg.describe());
  const Codebook cb = make_codebook(cfg, rng);
  const ItemMemory scalar(cb, ScanBackend::kScalar);
  std::vector<ItemMemory> packed;
  std::vector<std::string> names;
  packed.reserve(backends.size() +
                 sizeof(kShardCounts) / sizeof(kShardCounts[0]));
  for (ScanBackend b : backends) {
    packed.emplace_back(cb, b);
    names.emplace_back(backend_name(b));
  }
  // The scatter-gather axis: sharded memories at every count — including
  // counts that do not divide the size and counts above it — must merge to
  // the same bit-identical results.
  for (const std::size_t n : kShardCounts) {
    packed.emplace_back(cb, ScanBackend::kSharded,
                        kernels::ShardedConfig{.shards = n});
    names.emplace_back("kSharded(n=" + std::to_string(n) + ")");
  }
  for (const Hypervector& q : make_queries(cfg, cb, rng)) {
    for (std::size_t i = 0; i < packed.size(); ++i) {
      SCOPED_TRACE(names[i]);
      check_one_query(cb, scalar, packed[i], q, rng);
    }
  }
}

TEST(KernelFuzz, DifferentialAcrossBackendsAndLevels) {
  const std::vector<ScanBackend> backends = packed_backends();
  Xoshiro256 rng(20260728);

  std::vector<FuzzConfig> configs;
  // Deterministic hard cases first: every boundary dim x alphabet x tie mode.
  for (std::size_t dim : kBoundaryDims) {
    for (bool ternary : {false, true}) {
      for (bool tie_heavy : {false, true}) {
        configs.push_back({dim, 5 + rng.uniform(20), ternary, tie_heavy});
      }
    }
  }
  // Randomized remainder up to ~200 configurations.
  while (configs.size() < 200) {
    FuzzConfig cfg;
    cfg.dim = 1 + rng.uniform(700);
    cfg.size = 1 + rng.uniform(40);
    cfg.ternary = rng.uniform(2) == 1;
    cfg.tie_heavy = rng.uniform(4) == 0;
    configs.push_back(cfg);
  }

  for (const FuzzConfig& cfg : configs) run_config(cfg, backends, rng);
}

TEST(KernelFuzz, AllLevelsPackIdenticalPlanes) {
  // Query packing is part of the dispatch surface too: every tier must emit
  // byte-identical sign/nonzero planes and the same bipolar classification.
  Xoshiro256 rng(424242);
  std::vector<SimdLevel> levels{SimdLevel::kScalarWords};
  for (SimdLevel l : {SimdLevel::kAVX2, SimdLevel::kAVX512, SimdLevel::kNEON}) {
    if (kernels::simd_level_available(l)) levels.push_back(l);
  }
  for (std::size_t dim : {std::size_t{63}, std::size_t{64}, std::size_t{65},
                          std::size_t{255}, std::size_t{256}, std::size_t{257},
                          std::size_t{1000}}) {
    for (const Hypervector& v :
         {random_bipolar(dim, rng), random_ternary(dim, 0.5, rng),
          Hypervector(dim)}) {
      const std::optional<PackedQuery> ref =
          PackedQuery::pack(v, SimdLevel::kScalarWords);
      ASSERT_TRUE(ref.has_value());
      for (SimdLevel l : levels) {
        SCOPED_TRACE(kernels::to_string(l));
        const std::optional<PackedQuery> got = PackedQuery::pack(v, l);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(ref->dim, got->dim);
        EXPECT_EQ(ref->bipolar, got->bipolar);
        EXPECT_EQ(ref->sign, got->sign);
        EXPECT_EQ(ref->nonzero, got->nonzero);
      }
    }
    // Integer bundles are rejected identically by every tier.
    Hypervector bundle_like(dim);
    bundle_like[dim / 2] = 3;
    for (SimdLevel l : levels) {
      EXPECT_FALSE(PackedQuery::pack(bundle_like, l).has_value())
          << kernels::to_string(l);
    }
  }
}

// Packable query block for a codebook: the make_queries representations
// minus the integer bundle (which cannot pack), cycled to block size `q`.
std::vector<PackedQuery> make_packed_block(const FuzzConfig& cfg,
                                           const Codebook& cb, SimdLevel level,
                                           std::size_t q, Xoshiro256& rng) {
  const std::vector<Hypervector> pool = make_queries(cfg, cb, rng);
  std::vector<PackedQuery> block;
  block.reserve(q);
  std::size_t i = 0;
  while (block.size() < q) {
    auto packed = PackedQuery::pack(pool[i++ % pool.size()], level);
    if (packed) block.push_back(std::move(*packed));
  }
  return block;
}

TEST(KernelFuzz, BlockedScansMatchPerQueryAtEveryBlockSize) {
  // The tentpole contract: PackedItemMemory's blocked scans are bit-identical
  // to per-query scans at every block size, on every tier this CPU has,
  // through every surface (best_block / top_k_block / dots_block) — so block
  // size, like ScanBackend, is a pure performance knob.
  using kernels::PackedItemMemory;
  std::vector<SimdLevel> levels{SimdLevel::kScalarWords};
  for (SimdLevel l : {SimdLevel::kAVX2, SimdLevel::kAVX512, SimdLevel::kNEON}) {
    if (kernels::simd_level_available(l)) levels.push_back(l);
  }
  Xoshiro256 rng(20260806);
  std::size_t round = 0;
  for (std::size_t q : kBlockSizes) {
    for (bool ternary : {false, true}) {
      FuzzConfig cfg;
      cfg.dim = kBoundaryDims[round % (sizeof(kBoundaryDims) /
                                       sizeof(kBoundaryDims[0]))];
      cfg.size = 1 + rng.uniform(40);
      cfg.ternary = ternary;
      cfg.tie_heavy = round % 2 == 0;
      ++round;
      SCOPED_TRACE(cfg.describe() + " block=" + std::to_string(q));
      const Codebook cb = make_codebook(cfg, rng);
      for (SimdLevel level : levels) {
        SCOPED_TRACE(kernels::to_string(level));
        const PackedItemMemory pm(cb, level);
        const std::vector<PackedQuery> block =
            make_packed_block(cfg, cb, level, q, rng);

        const std::vector<Match> best = pm.best_block(block);
        ASSERT_EQ(best.size(), q);
        for (std::size_t i = 0; i < q; ++i) {
          const Match ref = pm.best(block[i]);
          EXPECT_EQ(ref.index, best[i].index) << "query " << i;
          EXPECT_EQ(ref.similarity, best[i].similarity) << "query " << i;
        }

        for (std::size_t k : {std::size_t{0}, std::size_t{1},
                              cfg.size / 2 + 1, cfg.size + 3}) {
          const std::vector<std::vector<Match>> lists = pm.top_k_block(block, k);
          ASSERT_EQ(lists.size(), q);
          for (std::size_t i = 0; i < q; ++i) {
            SCOPED_TRACE("query " + std::to_string(i) +
                         " k=" + std::to_string(k));
            if (k == 0) {
              EXPECT_TRUE(lists[i].empty());
              continue;
            }
            expect_same_matches(pm.top_k(block[i], k), lists[i]);
          }
        }

        std::vector<std::int64_t> blocked(q * cfg.size);
        pm.dots_block(block, blocked);
        std::vector<std::int64_t> single(cfg.size);
        for (std::size_t i = 0; i < q; ++i) {
          pm.dots(block[i], single);
          EXPECT_TRUE(std::equal(single.begin(), single.end(),
                                 blocked.begin() +
                                     static_cast<std::ptrdiff_t>(i * cfg.size)))
              << "query " << i;
        }
      }
    }
  }
}

TEST(KernelFuzz, ItemMemoryBestBlockMatchesPerQueryOnEveryBackend) {
  // The routing layer above the kernels: ItemMemory::best_block must match
  // per-query best() — result AND deterministic measurement count — on every
  // backend, including blocks that mix packable queries with the integer
  // bundle (forcing the per-query fallback mid-block).
  Xoshiro256 rng(20260807);
  for (std::size_t q : kBlockSizes) {
    FuzzConfig cfg;
    cfg.dim = kBoundaryDims[rng.uniform(sizeof(kBoundaryDims) /
                                        sizeof(kBoundaryDims[0]))];
    cfg.size = 2 + rng.uniform(30);
    cfg.ternary = rng.uniform(2) == 1;
    cfg.tie_heavy = rng.uniform(2) == 0;
    SCOPED_TRACE(cfg.describe() + " block=" + std::to_string(q));
    const Codebook cb = make_codebook(cfg, rng);
    // make_queries includes the integer residual bundle, so cycling the pool
    // plants unpackable queries inside every block of size >= 5.
    const std::vector<Hypervector> pool = make_queries(cfg, cb, rng);
    std::vector<Hypervector> block;
    block.reserve(q);
    for (std::size_t i = 0; i < q; ++i) block.push_back(pool[i % pool.size()]);

    const ItemMemory scalar(cb, ScanBackend::kScalar);
    const ItemMemory packed(cb, ScanBackend::kPacked);
    const ItemMemory sharded(cb, ScanBackend::kSharded,
                             kernels::ShardedConfig{.shards = 3});
    struct Case {
      const ItemMemory* memory;
      const char* name;
    };
    const Case cases[] = {
        {&scalar, "kScalar"},
        {&packed, "kPacked"},
        {&sharded, "kSharded"},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(c.name);
      std::vector<std::uint64_t> scanned_block(q, ~std::uint64_t{0});
      const std::vector<Match> got =
          c.memory->best_block(block, scanned_block.data());
      ASSERT_EQ(got.size(), q);
      for (std::size_t i = 0; i < q; ++i) {
        std::uint64_t scanned_one = ~std::uint64_t{0};
        const Match ref = c.memory->best(block[i], &scanned_one);
        EXPECT_EQ(ref.index, got[i].index) << "query " << i;
        EXPECT_EQ(ref.similarity, got[i].similarity) << "query " << i;
        EXPECT_EQ(scanned_one, scanned_block[i]) << "query " << i;
      }
    }
    // The empty block is a no-op on every backend.
    EXPECT_TRUE(scalar.best_block({}).empty());
    EXPECT_TRUE(packed.best_block({}).empty());
    EXPECT_TRUE(sharded.best_block({}).empty());
  }
}

TEST(KernelFuzz, ForcedUnavailableLevelThrows) {
  Xoshiro256 rng(7);
  const Codebook cb(128, 4, rng);
  const std::pair<ScanBackend, SimdLevel> forced[] = {
      {ScanBackend::kPackedWords, SimdLevel::kScalarWords},
      {ScanBackend::kPackedAVX2, SimdLevel::kAVX2},
      {ScanBackend::kPackedAVX512, SimdLevel::kAVX512},
      {ScanBackend::kPackedNEON, SimdLevel::kNEON},
  };
  for (const auto& [backend, level] : forced) {
    if (kernels::simd_level_available(level)) {
      const ItemMemory memory(cb, backend);
      EXPECT_EQ(memory.backend(), ScanBackend::kPacked);
      ASSERT_TRUE(memory.simd_level().has_value());
      EXPECT_EQ(*memory.simd_level(), level);
    } else {
      EXPECT_THROW(ItemMemory(cb, backend), std::invalid_argument)
          << kernels::to_string(level);
    }
  }
}

TEST(KernelFuzz, SimdLevelNamesRoundTrip) {
  for (SimdLevel l : {SimdLevel::kScalarWords, SimdLevel::kAVX2,
                      SimdLevel::kAVX512, SimdLevel::kNEON}) {
    const auto parsed = kernels::parse_simd_level(kernels::to_string(l));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, l);
  }
  EXPECT_EQ(kernels::parse_simd_level("words"), SimdLevel::kScalarWords);
  EXPECT_FALSE(kernels::parse_simd_level("auto").has_value());
  EXPECT_FALSE(kernels::parse_simd_level("sse9").has_value());
}

TEST(KernelFuzz, EnvClampSelectsOnlyAvailableLevels) {
  using kernels::clamp_simd_level;
  // Unset / auto / garbage keep the detected level.
  EXPECT_EQ(clamp_simd_level(SimdLevel::kAVX512, ""), SimdLevel::kAVX512);
  EXPECT_EQ(clamp_simd_level(SimdLevel::kAVX2, "auto"), SimdLevel::kAVX2);
  EXPECT_EQ(clamp_simd_level(SimdLevel::kNEON, "bogus"), SimdLevel::kNEON);
  // Scalar can always be requested.
  EXPECT_EQ(clamp_simd_level(SimdLevel::kAVX512, "scalar"),
            SimdLevel::kScalarWords);
  // Downgrade within the x86 family is honored; upgrades past the CPU and
  // cross-family requests fall back to the detected level.
  EXPECT_EQ(clamp_simd_level(SimdLevel::kAVX512, "avx2"), SimdLevel::kAVX2);
  EXPECT_EQ(clamp_simd_level(SimdLevel::kAVX2, "avx512"), SimdLevel::kAVX2);
  EXPECT_EQ(clamp_simd_level(SimdLevel::kAVX2, "neon"), SimdLevel::kAVX2);
  EXPECT_EQ(clamp_simd_level(SimdLevel::kNEON, "avx2"), SimdLevel::kNEON);
  // The dispatched level is always executable on this CPU.
  EXPECT_TRUE(kernels::simd_level_available(kernels::dispatched_simd_level()));
}

}  // namespace
