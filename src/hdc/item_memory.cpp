#include "hdc/item_memory.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "hdc/kernels/packed_item_memory.hpp"
#include "hdc/similarity.hpp"

namespace factorhd::hdc {

namespace {

using kernels::PackedItemMemory;
using kernels::PackedQuery;
using kernels::ShardedConfig;
using kernels::ShardedItemMemory;
using kernels::SimdLevel;

// The SIMD tier a forced kPacked* backend names; nullopt for every backend
// that dispatches (kAuto/kPacked/kSharded) or never packs (kScalar).
std::optional<SimdLevel> forced_simd_level(ScanBackend backend) noexcept {
  switch (backend) {
    case ScanBackend::kPackedWords:
      return SimdLevel::kScalarWords;
    case ScanBackend::kPackedAVX2:
      return SimdLevel::kAVX2;
    case ScanBackend::kPackedAVX512:
      return SimdLevel::kAVX512;
    case ScanBackend::kPackedNEON:
      return SimdLevel::kNEON;
    default:
      return std::nullopt;
  }
}

}  // namespace

ItemMemory::ItemMemory(const Codebook& codebook, ScanBackend backend,
                       std::optional<ShardedConfig> sharded)
    : codebook_(&codebook) {
  if (sharded.has_value() && backend != ScanBackend::kAuto &&
      backend != ScanBackend::kSharded) {
    throw std::invalid_argument(
        "ItemMemory: a ShardedConfig requires the kAuto or kSharded backend");
  }
  switch (backend) {
    case ScanBackend::kScalar:
      break;
    case ScanBackend::kPacked:
      // Throws std::invalid_argument when the codebook is not packable.
      packed_ = std::make_shared<const PackedItemMemory>(codebook);
      break;
    case ScanBackend::kSharded:
      packed_ = std::make_shared<const PackedItemMemory>(codebook);
      sharded_ = std::make_shared<const ShardedItemMemory>(
          packed_, sharded.value_or(kernels::sharded_config_from_env()));
      break;
    case ScanBackend::kAuto: {
      const bool packable = PackedItemMemory::packable(codebook);
      if (sharded.has_value() && !packable) {
        throw std::invalid_argument(
            "ItemMemory: ShardedConfig given but the codebook is not "
            "packable (entries outside {-1, 0, +1})");
      }
      if (!packable) break;
      packed_ = std::make_shared<const PackedItemMemory>(codebook);
      // Partition when explicitly configured with 2+ shards, or when the
      // FACTORHD_SHARDS env knob asks for 2+ and the codebook clears the
      // FACTORHD_SHARD_MIN_ROWS threshold (below it the scatter-gather
      // bookkeeping costs more than the scan saves).
      ShardedConfig shard_cfg =
          sharded.value_or(kernels::sharded_config_from_env());
      if (shard_cfg.shards == 0) {
        shard_cfg.shards = kernels::sharded_config_from_env().shards;
      }
      const std::size_t shard_min = kernels::sharded_auto_min_rows();
      const bool want_shards =
          shard_cfg.shards >= 2 &&
          (sharded.has_value() ||
           (shard_min > 0 && codebook.size() >= shard_min));
      if (want_shards) {
        sharded_ =
            std::make_shared<const ShardedItemMemory>(packed_, shard_cfg);
      }
      break;
    }
    case ScanBackend::kPackedWords:
    case ScanBackend::kPackedAVX2:
    case ScanBackend::kPackedAVX512:
    case ScanBackend::kPackedNEON: {
      const SimdLevel level = *forced_simd_level(backend);
      // A forced level must run exactly as requested — the differential
      // fuzz suite and the per-level benchmarks rely on never degrading.
      if (!kernels::simd_level_available(level)) {
        throw std::invalid_argument(
            std::string("ItemMemory: forced SIMD level '") +
            kernels::to_string(level) + "' is not available on this CPU");
      }
      packed_ = std::make_shared<const PackedItemMemory>(codebook, level);
      break;
    }
  }
}

std::optional<SimdLevel> ItemMemory::simd_level() const noexcept {
  if (!packed_) return std::nullopt;
  return packed_->simd_level();
}

// Packs `query` for the kernels when the packed backend is active and the
// query's alphabet and dimension admit plane arithmetic; nullopt routes the
// call to the scalar loop (integer bundles, dimension mismatches — the
// latter so the scalar path raises its usual error). Packing runs at the
// memory's own SIMD tier so forced kPacked* backends pin the whole scan,
// packing included.
static std::optional<PackedQuery> packed_route(
    const std::shared_ptr<const PackedItemMemory>& packed,
    const Hypervector& query) {
  if (!packed || query.dim() != packed->dim()) return std::nullopt;
  return PackedQuery::pack(query, packed->simd_level());
}

Match ItemMemory::best(const Hypervector& query,
                       std::uint64_t* scanned) const {
  if (auto q = packed_route(packed_, query)) {
    count(packed_->size());
    if (scanned != nullptr) *scanned = packed_->size();
    return sharded_ ? sharded_->best(*q) : packed_->best(*q);
  }
  Match m{0, similarity(query, codebook_->item(0))};
  count(1);
  for (std::size_t j = 1; j < codebook_->size(); ++j) {
    const double s = similarity(query, codebook_->item(j));
    count(1);
    if (s > m.similarity) m = {j, s};
  }
  if (scanned != nullptr) *scanned = codebook_->size();
  return m;
}

std::vector<Match> ItemMemory::best_block(std::span<const Hypervector> queries,
                                          std::uint64_t* scanned) const {
  if (queries.empty()) return {};
  // The one-pass blocked kernels need the packed planes and a packable
  // alphabet for every query. Everything else takes the per-query path
  // below — bit-identical by the kernels' contract, so this routing never
  // changes a result. A sharded memory runs the blocked kernels per shard
  // (scatter-gather).
  if (packed_) {
    std::vector<PackedQuery> packed;
    packed.reserve(queries.size());
    for (const Hypervector& query : queries) {
      auto q = packed_route(packed_, query);
      if (!q) break;
      packed.push_back(std::move(*q));
    }
    if (packed.size() == queries.size()) {
      count(queries.size() * packed_->size());
      if (scanned != nullptr) {
        std::fill_n(scanned, queries.size(), packed_->size());
      }
      return sharded_ ? sharded_->best_block(packed)
                      : packed_->best_block(packed);
    }
  }
  std::vector<Match> out;
  out.reserve(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    out.push_back(best(queries[q], scanned != nullptr ? scanned + q : nullptr));
  }
  return out;
}

Match ItemMemory::best_among(const Hypervector& query,
                             const std::vector<std::size_t>& indices) const {
  if (indices.empty()) {
    throw std::invalid_argument("ItemMemory::best_among: empty index set");
  }
  if (auto q = packed_route(packed_, query)) {
    count(indices.size());
    return packed_->best_among(*q, indices);
  }
  Match m{indices[0], similarity(query, codebook_->item(indices[0]))};
  count(1);
  for (std::size_t k = 1; k < indices.size(); ++k) {
    const double s = similarity(query, codebook_->item(indices[k]));
    count(1);
    if (s > m.similarity) m = {indices[k], s};
  }
  return m;
}

std::vector<Match> ItemMemory::above(const Hypervector& query,
                                     double threshold,
                                     std::uint64_t* scanned) const {
  if (auto q = packed_route(packed_, query)) {
    count(packed_->size());
    if (scanned != nullptr) *scanned = packed_->size();
    return sharded_ ? sharded_->above(*q, threshold)
                    : packed_->above(*q, threshold);
  }
  std::vector<Match> out;
  for (std::size_t j = 0; j < codebook_->size(); ++j) {
    const double s = similarity(query, codebook_->item(j));
    count(1);
    if (s > threshold) out.push_back({j, s});
  }
  if (scanned != nullptr) *scanned = codebook_->size();
  std::sort(out.begin(), out.end(), match_order);
  return out;
}

std::vector<Match> ItemMemory::above_among(
    const Hypervector& query, double threshold,
    const std::vector<std::size_t>& indices) const {
  if (auto q = packed_route(packed_, query)) {
    count(indices.size());
    return packed_->above_among(*q, threshold, indices);
  }
  std::vector<Match> out;
  for (std::size_t j : indices) {
    const double s = similarity(query, codebook_->item(j));
    count(1);
    if (s > threshold) out.push_back({j, s});
  }
  std::sort(out.begin(), out.end(), match_order);
  return out;
}

std::vector<Match> ItemMemory::top_k(const Hypervector& query, std::size_t k,
                                     std::uint64_t* scanned) const {
  if (k == 0) {
    // Nothing was asked for: answer without scanning, on every backend.
    if (scanned != nullptr) *scanned = 0;
    return {};
  }
  if (auto q = packed_route(packed_, query)) {
    count(packed_->size());
    if (scanned != nullptr) *scanned = packed_->size();
    return sharded_ ? sharded_->top_k(*q, k) : packed_->top_k(*q, k);
  }
  std::vector<Match> all;
  all.reserve(codebook_->size());
  for (std::size_t j = 0; j < codebook_->size(); ++j) {
    all.push_back({j, similarity(query, codebook_->item(j))});
    count(1);
  }
  if (scanned != nullptr) *scanned = codebook_->size();
  const std::size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(keep), all.end(),
                    match_order);
  all.resize(keep);
  return all;
}

void ItemMemory::dots(const Hypervector& query,
                      std::span<std::int64_t> out) const {
  if (out.size() != codebook_->size()) {
    throw std::invalid_argument("ItemMemory::dots: output size mismatch");
  }
  if (auto q = packed_route(packed_, query)) {
    count(packed_->size());
    if (sharded_) {
      sharded_->dots(*q, out);  // bit-identical, scattered across shards
      return;
    }
    packed_->dots(*q, out);
    return;
  }
  for (std::size_t j = 0; j < codebook_->size(); ++j) {
    out[j] = dot(query, codebook_->item(j));
    count(1);
  }
}

}  // namespace factorhd::hdc
