// ItemMemory: associative ("cleanup") memory over a codebook.
//
// Given a noisy query HV, finds the codebook entries most similar to it under
// the paper's dot-product similarity. This is the primitive that every
// factorizer (FactorHD and all baselines) spends its time in, so the class
// also counts similarity measurements — the unit in which the paper states
// its O(N_M) vs M^F efficiency claims.
//
// Scans run on one of two backends:
//
//  * scalar  — int32 dot products straight off the codebook (works for any
//    query and any codebook alphabet);
//  * packed  — the hdc/kernels/ word-plane scans: the codebook is packed
//    once into 64-bit sign/nonzero planes and each scan is XOR+popcount
//    arithmetic, 64 dimensions per word operation. Bit-identical results
//    (index, similarity, ordering) to the scalar backend.
//
// With the default kAuto selection, a bipolar or ternary codebook gets the
// packed backend and every bipolar/ternary query runs on it; integer-bundle
// queries (e.g. the multi-object residual) transparently fall back to the
// scalar loop per call. Copies share the immutable packed planes.
//
// Every backend scans exactly at every codebook size: kAuto never trades
// accuracy for speed. Large codebooks can be split across shards
// (kSharded), which is bit-identical to the unsharded scan.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hdc/codebook.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/kernels/sharded_item_memory.hpp"
#include "hdc/kernels/simd.hpp"
#include "hdc/match.hpp"

namespace factorhd::hdc {

namespace kernels {
class PackedItemMemory;
}  // namespace kernels

/// Similarity-scan backend selection for ItemMemory.
///
/// The packed backend runs its word-plane arithmetic on a runtime-dispatched
/// SIMD tier (kernels::SimdLevel): kAuto/kPacked use the CPUID-detected
/// level (clamped by the FACTORHD_SIMD env var), while the kPacked* variants
/// force one specific tier — the knob the cross-backend differential tests
/// and per-level benchmarks are built on. Every tier returns bit-identical
/// results; forcing a tier the CPU cannot execute throws instead of
/// degrading silently.
enum class ScanBackend {
  kAuto,    ///< packed when the codebook is bipolar/ternary, else scalar;
            ///< exact at every codebook size, and sharded when
            ///< FACTORHD_SHARDS and FACTORHD_SHARD_MIN_ROWS ask for it
  kScalar,  ///< always the int32 dot-product loops
  kPacked,  ///< word-plane kernels at the dispatched SIMD level
  kPackedWords,   ///< word-plane kernels, forced scalar 64-bit word loops
  kPackedAVX2,    ///< word-plane kernels, forced AVX2 tier
  kPackedAVX512,  ///< word-plane kernels, forced AVX-512 tier
  kPackedNEON,    ///< word-plane kernels, forced NEON tier
  kSharded,  ///< scatter-gather scans over a row-partitioned codebook
             ///< (kernels::ShardedItemMemory) at the dispatched SIMD level;
             ///< bit-identical to the unsharded scan at every shard count
};

class ItemMemory {
 public:
  /// Non-owning view over a codebook; the codebook must outlive the memory.
  /// With kAuto (the default) a bipolar/ternary codebook is additionally
  /// packed into word planes at construction (O(size * dim) once).
  /// \param codebook Codebook to scan; must outlive this object.
  /// \param backend Backend selection policy (see ScanBackend).
  /// \param sharded Shard configuration (kernels::ShardedConfig). With
  ///   kSharded it is the partition spec (shards of 0 resolve from
  ///   FACTORHD_SHARDS); with kAuto an explicit config forces the partition
  ///   regardless of the FACTORHD_SHARD_MIN_ROWS threshold, while a purely
  ///   env-requested shard count only applies at/above it. Invalid with any
  ///   backend other than kAuto/kSharded.
  /// \throws std::invalid_argument When `backend` is kPacked/kSharded (or a
  ///   forced kPacked* level) but the codebook has an entry outside
  ///   {-1, 0, +1} or is empty, when a forced SIMD level is not available on
  ///   this CPU (kernels::simd_level_available), or when `sharded` is given
  ///   with a backend that never partitions.
  explicit ItemMemory(
      const Codebook& codebook, ScanBackend backend = ScanBackend::kAuto,
      std::optional<kernels::ShardedConfig> sharded = std::nullopt);

  [[nodiscard]] const Codebook& codebook() const noexcept { return *codebook_; }
  [[nodiscard]] std::size_t size() const noexcept { return codebook_->size(); }

  /// \return The backend scans resolve to: kSharded when the codebook was
  ///   partitioned (full scans scatter-gather across the shards), kPacked
  ///   when the codebook was packed (bipolar/ternary queries use the
  ///   kernels; integer-bundle queries still fall back to scalar per call),
  ///   kScalar otherwise.
  [[nodiscard]] ScanBackend backend() const noexcept {
    if (sharded_) return ScanBackend::kSharded;
    return packed_ ? ScanBackend::kPacked : ScanBackend::kScalar;
  }

  /// \return The sharded scatter-gather memory, or nullptr when unsharded.
  [[nodiscard]] const kernels::ShardedItemMemory* sharded() const noexcept {
    return sharded_.get();
  }

  /// \return The SIMD tier packed scans execute at; std::nullopt on the
  ///   scalar backend.
  [[nodiscard]] std::optional<kernels::SimdLevel> simd_level() const noexcept;

  /// Best match over the full codebook (argmax of similarity; the first
  /// maximum wins on ties).
  /// \param query Query HV of the codebook's dimension.
  /// \param scanned When non-null, receives the number of similarity
  ///   measurements this call performed — a pure function of (memory,
  ///   query), safe for deterministic per-result accounting where reading
  ///   the shared similarity_ops() counter would race under concurrent
  ///   batch workers.
  /// \return Index and similarity (dot / D) of the best entry.
  /// \throws std::invalid_argument On dimension mismatch.
  /// \throws std::out_of_range On an empty codebook.
  [[nodiscard]] Match best(const Hypervector& query,
                           std::uint64_t* scanned = nullptr) const;

  /// Blocked variant of best(): one Match per query, in input order, each
  /// bit-identical (index, similarity, tie order — and the per-query
  /// measurement count) to the matching best(query) call. When the codebook
  /// is packed and every query's alphabet packs, the whole block runs in ONE
  /// pass over the codebook planes through kernels::QueryBlockKernels — the
  /// codebook streams from memory once per block instead of once per query.
  /// Any other shape (integer-bundle queries, scalar backend) falls back to
  /// per-query best(), so routing here is purely a performance decision.
  /// \param queries Query HVs of the codebook's dimension.
  /// \param scanned When non-null, must point at queries.size() entries;
  ///   scanned[q] receives the measurement count of query q (exactly what
  ///   best() would report for it).
  /// \return One Match per query, in input order.
  /// \throws std::invalid_argument On a dimension mismatch.
  /// \throws std::out_of_range On an empty codebook.
  [[nodiscard]] std::vector<Match> best_block(
      std::span<const Hypervector> queries,
      std::uint64_t* scanned = nullptr) const;

  /// Best match over a subset of indices (used for hierarchy-restricted
  /// searches: "only children of the already-factorized parent item").
  /// \param query Query HV of the codebook's dimension.
  /// \param indices Codebook indices to scan.
  /// \return Best match among `indices`.
  /// \throws std::invalid_argument On dimension mismatch or empty `indices`.
  /// \throws std::out_of_range When an index is >= size().
  [[nodiscard]] Match best_among(const Hypervector& query,
                                 const std::vector<std::size_t>& indices) const;

  /// All matches with similarity strictly above `threshold`, sorted by
  /// match_order — descending similarity, ascending index on ties (the
  /// TH-based multi-object candidate selection).
  /// \param query Query HV of the codebook's dimension.
  /// \param threshold Exclusive similarity lower bound.
  /// \param scanned As in best(): deterministic measurement count out-param.
  /// \return Possibly empty sorted match list.
  /// \throws std::invalid_argument On dimension mismatch.
  [[nodiscard]] std::vector<Match> above(
      const Hypervector& query, double threshold,
      std::uint64_t* scanned = nullptr) const;

  /// Restricted variant of `above`.
  /// \param query Query HV of the codebook's dimension.
  /// \param threshold Exclusive similarity lower bound.
  /// \param indices Codebook indices to scan.
  /// \return Possibly empty sorted match list.
  /// \throws std::invalid_argument On dimension mismatch.
  /// \throws std::out_of_range When an index is >= size().
  [[nodiscard]] std::vector<Match> above_among(
      const Hypervector& query, double threshold,
      const std::vector<std::size_t>& indices) const;

  /// Top-k matches sorted by match_order; k is clamped to size().
  /// \param query Query HV of the codebook's dimension.
  /// \param k Maximum number of matches to return.
  /// \param scanned As in best(): deterministic measurement count out-param.
  /// \return At most min(k, size()) matches in canonical order.
  /// \throws std::invalid_argument On dimension mismatch.
  [[nodiscard]] std::vector<Match> top_k(
      const Hypervector& query, std::size_t k,
      std::uint64_t* scanned = nullptr) const;

  /// Raw integer dot products of the query with every codebook entry — the
  /// batched attention primitive of the resonator/IMC baselines. Counts
  /// size() similarity measurements.
  /// \param query Query HV of the codebook's dimension.
  /// \param out Destination; `out.size()` must equal size().
  /// \throws std::invalid_argument On dimension or output-size mismatch.
  void dots(const Hypervector& query, std::span<std::int64_t> out) const;

  /// Number of similarity measurements performed since construction /
  /// last reset. Mutable bookkeeping (atomic so concurrent factorization of
  /// independent targets through core::BatchFactorizer stays race-free);
  /// reads are logically const.
  /// \return Measurement count in codebook-entry units.
  [[nodiscard]] std::uint64_t similarity_ops() const noexcept {
    return similarity_ops_.load(std::memory_order_relaxed);
  }
  void reset_similarity_ops() noexcept {
    similarity_ops_.store(0, std::memory_order_relaxed);
  }

  // std::atomic pins down copy/move; counters transfer by value and the
  // immutable packed planes are shared between copies.
  ItemMemory(const ItemMemory& other) noexcept
      : codebook_(other.codebook_),
        packed_(other.packed_),
        sharded_(other.sharded_),
        similarity_ops_(other.similarity_ops()) {}
  ItemMemory& operator=(const ItemMemory& other) noexcept {
    codebook_ = other.codebook_;
    packed_ = other.packed_;
    sharded_ = other.sharded_;
    similarity_ops_.store(other.similarity_ops(), std::memory_order_relaxed);
    return *this;
  }

 private:
  void count(std::uint64_t n) const noexcept {
    similarity_ops_.fetch_add(n, std::memory_order_relaxed);
  }

  const Codebook* codebook_;
  /// Word-plane packing of the codebook; null on the scalar backend. Shared
  /// (immutable after construction) so ItemMemory copies stay cheap.
  std::shared_ptr<const kernels::PackedItemMemory> packed_;
  /// Scatter-gather partition over packed_; null unless backend() is
  /// kSharded. Shares packed_'s row planes (zero-copy shard views). The
  /// full-codebook scans route here; best_among / above_among / integer-
  /// bundle queries keep the packed_/scalar routes (their given-order tie
  /// contract does not partition).
  std::shared_ptr<const kernels::ShardedItemMemory> sharded_;
  mutable std::atomic<std::uint64_t> similarity_ops_{0};
};

}  // namespace factorhd::hdc
