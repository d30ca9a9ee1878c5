// PackedItemMemory: whole-codebook similarity scans over bit-packed planes.
//
// Packs an entire codebook once into contiguous, row-major 64-bit word
// planes — bipolar codebooks into a single sign plane, ternary codebooks
// into nonzero + sign planes — and answers the same scan queries as the
// scalar hdc::ItemMemory (best / best_among / above / above_among / top_k)
// with XOR+popcount plane arithmetic: 64 dimensions per word operation
// instead of one int32 multiply-add per dimension.
//
// Results are bit-identical to the scalar path. Dot products over the
// {-1,0,+1} alphabets are exact integers either way, the similarity is the
// same double division dot/D, argmax keeps the first (lowest-index) maximum,
// and sorted results use the shared hdc::match_order comparator, so index,
// similarity, and ordering all match. The equivalence suite
// (tests/test_kernel_equivalence.cpp) asserts this across alphabets and at
// dimensions that are not multiples of 64.
//
// Word arithmetic runs on a runtime-dispatched SIMD tier (simd.hpp): the
// scalar 64-bit word loops, AVX2, AVX-512, or NEON, selected per memory at
// construction (CPUID-detected by default, overridable via FACTORHD_SIMD or
// an explicit level). Large scans are additionally partitioned across a
// small worker pool (FACTORHD_SCAN_THREADS) in fixed row blocks, so results
// stay independent of thread count. All tiers and thread counts produce
// bit-identical results.
//
// This class is the packing + kernel layer only; backend selection and the
// scalar fallback for integer-bundle queries live in hdc::ItemMemory, which
// dispatches here when both the codebook and the query admit plane packing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hdc/codebook.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/kernels/plane.hpp"
#include "hdc/kernels/simd.hpp"
#include "hdc/match.hpp"

namespace factorhd::hdc::kernels {

/// Width of the scan worker pool: util::pool_width(), the one fork-join cap
/// (FACTORHD_SCAN_THREADS when set, else min(hardware threads, 8)).
[[nodiscard]] std::size_t scan_pool_width();

/// Worker count for one scan over `words` plane words on SIMD tier `level`,
/// split into at most `blocks` fixed pieces: 1 below the tier's break-even
/// size or on a util::parallel_for worker (no nested fan-out), else
/// min(util::pool_width(), blocks). PackedItemMemory's row scans and
/// ShardedItemMemory's scatter passes both size themselves with it.
[[nodiscard]] std::size_t scan_width(std::size_t words, SimdLevel level,
                                     std::size_t blocks) noexcept;

class PackedItemMemory {
 public:
  /// Plane layout selected from the codebook's alphabet at pack time.
  enum class Layout {
    kBipolar,  ///< one sign plane per entry (all entries in {-1,+1}^D)
    kTernary,  ///< nonzero + sign planes per entry (entries in {-1,0,+1}^D)
  };

  /// \param codebook Codebook to test.
  /// \return True when every entry is bipolar or every entry is ternary and
  ///   the codebook is non-empty with non-zero dimension — the precondition
  ///   of the packing constructor.
  [[nodiscard]] static bool packable(const Codebook& codebook) noexcept;

  /// Packs `codebook` into word planes. The codebook is only read during
  /// construction; the packed memory owns its planes and stays valid even if
  /// the codebook is later destroyed.
  /// \param codebook Source codebook (bipolar or ternary entries).
  /// \param level SIMD tier the scans run at; std::nullopt (the default)
  ///   selects the runtime-dispatched level (CPUID clamped by FACTORHD_SIMD).
  ///   An explicit level is used as given — callers gate on
  ///   simd_level_available() (hdc::ItemMemory throws for unavailable
  ///   forced levels).
  /// \throws std::invalid_argument When `packable(codebook)` is false.
  explicit PackedItemMemory(const Codebook& codebook,
                            std::optional<SimdLevel> level = std::nullopt);

  /// Zero-copy view of rows [begin, begin + count) of `full`: the view's
  /// row i is `full`'s row begin + i, at the same layout and SIMD tier. The
  /// view keeps `full` alive. This is how kernels::ShardedItemMemory gives
  /// each shard its own scan surface over one set of planes.
  /// \throws std::invalid_argument When `full` is null, `count` is zero, or
  ///   the range runs past full->size().
  [[nodiscard]] static std::shared_ptr<const PackedItemMemory> slice(
      std::shared_ptr<const PackedItemMemory> full, std::size_t begin,
      std::size_t count);

  // The plane pointers alias the owned vectors on the packing path, so the
  // defaulted copies would dangle. Scans share one memory via shared_ptr.
  PackedItemMemory(const PackedItemMemory&) = delete;
  PackedItemMemory& operator=(const PackedItemMemory&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] Layout layout() const noexcept { return layout_; }
  /// \return The SIMD tier this memory's scans execute at.
  [[nodiscard]] SimdLevel simd_level() const noexcept { return level_; }
  /// \return Words per packed codebook row (one plane's worth).
  [[nodiscard]] std::size_t words_per_row() const noexcept { return words_; }
  /// \return Total packed storage in bits (the §IV-A fair-comparison unit):
  ///   size * dim for bipolar layout, 2 * size * dim for ternary.
  [[nodiscard]] std::size_t storage_bits() const noexcept;

  // --- Scans over a pre-packed query (the ItemMemory hot path) ------------

  /// Argmax scan over the full codebook; first (lowest-index) maximum wins.
  /// \param query Packed query planes; `query.dim` must equal dim().
  /// \return Best match (index + similarity = dot / D).
  /// \throws std::invalid_argument On query dimension mismatch.
  [[nodiscard]] Match best(const PackedQuery& query) const;

  /// Argmax scan restricted to `indices`.
  /// \param query Packed query planes.
  /// \param indices Codebook rows to scan, in the order given.
  /// \return Best match among `indices`.
  /// \throws std::invalid_argument On dimension mismatch or empty `indices`.
  /// \throws std::out_of_range When an index is >= size().
  [[nodiscard]] Match best_among(const PackedQuery& query,
                                 std::span<const std::size_t> indices) const;

  /// All matches with similarity strictly above `threshold`, sorted by
  /// hdc::match_order (descending similarity, ascending index).
  /// \param query Packed query planes.
  /// \param threshold Exclusive similarity lower bound.
  /// \return Possibly empty sorted match list.
  /// \throws std::invalid_argument On query dimension mismatch.
  [[nodiscard]] std::vector<Match> above(const PackedQuery& query,
                                         double threshold) const;

  /// Restricted variant of `above`.
  /// \param query Packed query planes.
  /// \param threshold Exclusive similarity lower bound.
  /// \param indices Codebook rows to scan.
  /// \return Possibly empty sorted match list.
  /// \throws std::invalid_argument On query dimension mismatch.
  /// \throws std::out_of_range When an index is >= size().
  [[nodiscard]] std::vector<Match> above_among(
      const PackedQuery& query, double threshold,
      std::span<const std::size_t> indices) const;

  /// Top-k matches sorted by hdc::match_order; k is clamped to size().
  /// \param query Packed query planes.
  /// \param k Maximum number of matches to return.
  /// \return min(k, size()) matches in canonical order.
  /// \throws std::invalid_argument On query dimension mismatch.
  [[nodiscard]] std::vector<Match> top_k(const PackedQuery& query,
                                         std::size_t k) const;

  /// Raw integer dot products of the query with every codebook row (the
  /// batched attention primitive of the resonator/IMC baselines).
  /// \param query Packed query planes.
  /// \param out Destination; `out.size()` must equal size().
  /// \throws std::invalid_argument On dimension or output-size mismatch.
  void dots(const PackedQuery& query, std::span<std::int64_t> out) const;

  // --- Multi-query blocked scans (the micro-batch hot path) ---------------
  // Scan a whole block of packed queries in one pass over the codebook via
  // the QueryBlockKernels loop nest (simd.hpp): row blocks stay
  // cache-resident while every query of the block visits them, so a grouped
  // batch streams the planes once per block instead of once per query.
  // Queries are grouped by alphabet internally (one kernel pass per
  // alphabet), so mixed blocks amortize too; ternary-layout codebooks fall
  // back to per-query scans (same results, no amortization). Results are
  // bit-identical to calling the single-query overloads per query — same
  // argmax tie rule, same hdc::match_order ordering — at any block size.

  /// best() for every query of the block.
  /// \param queries Packed queries; each must match dim().
  /// \return One Match per query, in query order.
  /// \throws std::invalid_argument On any query dimension mismatch.
  [[nodiscard]] std::vector<Match> best_block(
      std::span<const PackedQuery> queries) const;

  /// top_k() for every query of the block; k is clamped to size().
  /// \param queries Packed queries; each must match dim().
  /// \param k Maximum number of matches per query (0 returns empty lists
  ///   without scanning).
  /// \return One canonical-order match list per query, in query order.
  /// \throws std::invalid_argument On any query dimension mismatch.
  [[nodiscard]] std::vector<std::vector<Match>> top_k_block(
      std::span<const PackedQuery> queries, std::size_t k) const;

  /// dots() for every query of the block, query-major.
  /// \param queries Packed queries; each must match dim().
  /// \param out Destination; out[q * size() + row] = dot(query q, row).
  ///   `out.size()` must equal queries.size() * size().
  /// \throws std::invalid_argument On dimension or output-size mismatch.
  void dots_block(std::span<const PackedQuery> queries,
                  std::span<std::int64_t> out) const;

  // --- Convenience overloads that pack the query internally ---------------
  // Each packs `query` once and forwards to the PackedQuery overload.
  // \throws std::invalid_argument when `query` is not bipolar/ternary (use
  //   the scalar ItemMemory path for integer bundles) or on dim mismatch.

  [[nodiscard]] Match best(const Hypervector& query) const;
  [[nodiscard]] Match best_among(const Hypervector& query,
                                 std::span<const std::size_t> indices) const;
  [[nodiscard]] std::vector<Match> above(const Hypervector& query,
                                         double threshold) const;
  [[nodiscard]] std::vector<Match> above_among(
      const Hypervector& query, double threshold,
      std::span<const std::size_t> indices) const;
  [[nodiscard]] std::vector<Match> top_k(const Hypervector& query,
                                         std::size_t k) const;
  void dots(const Hypervector& query, std::span<std::int64_t> out) const;

 private:
  /// The slice() view constructor.
  PackedItemMemory(std::shared_ptr<const PackedItemMemory> full,
                   std::size_t begin, std::size_t count);

  /// Query block regrouped by alphabet for the QueryBlockKernels loop nest:
  /// one plane-pointer array per alphabet plus the original query index of
  /// each subgroup entry, so reductions map kernel output back to query
  /// order.
  struct BlockView {
    std::vector<const std::uint64_t*> bip;  ///< bipolar sign planes
    std::vector<std::size_t> bip_idx;       ///< their original query indices
    std::vector<const std::uint64_t*> ter_nz;  ///< ternary nonzero planes
    std::vector<const std::uint64_t*> ter_sg;  ///< ternary sign planes
    std::vector<std::size_t> ter_idx;          ///< their original indices
  };
  [[nodiscard]] BlockView make_block_view(
      std::span<const PackedQuery> queries) const;
  /// Runs the query-block kernels for rows [begin, end): fills
  /// scratch[t * (end - begin) + (row - begin)] for subgroup slot `t`
  /// (bipolar slots first, then ternary), mirroring BlockView order.
  /// `scratch` must hold queries.size() * (end - begin) entries.
  void block_dots_range(const BlockView& view, std::size_t begin,
                        std::size_t end, std::int64_t* scratch) const;

  /// Exact integer dot of codebook row `row` with the packed query.
  [[nodiscard]] std::int64_t row_dot(std::size_t row,
                                     const PackedQuery& query) const noexcept;
  /// Fills `out[row]` = row_dot(row) for every row, partitioning the scan
  /// across the worker pool in fixed contiguous row blocks when it is large
  /// enough to amortize thread startup (deterministic: block boundaries
  /// depend only on size, never on timing). `out.size()` must equal size().
  void compute_dots(const PackedQuery& query,
                    std::span<std::int64_t> out) const;
  /// Worker count a full scan of this memory would use (1 = sequential).
  [[nodiscard]] std::size_t scan_workers() const noexcept;
  /// similarity = dot / D with the same double arithmetic as the scalar path.
  [[nodiscard]] double to_similarity(std::int64_t dot) const noexcept {
    return static_cast<double>(dot) / static_cast<double>(dim_);
  }
  void require_query(const PackedQuery& query) const;
  [[nodiscard]] PackedQuery pack_query(const Hypervector& query) const;

  std::size_t size_ = 0;
  std::size_t dim_ = 0;
  std::size_t words_ = 0;
  SimdLevel level_ = SimdLevel::kScalarWords;
  /// Kernel table of level_ (static storage inside simd.cpp, never null).
  const DotKernels* kernels_ = nullptr;
  Layout layout_ = Layout::kBipolar;
  /// Row-major sign planes: sign_[row * words_ + w]. Points into owned_sign_
  /// on the packing path, or into parent_'s planes on a slice() view.
  const std::uint64_t* sign_ = nullptr;
  /// Row-major nonzero planes; nullptr in bipolar layout.
  const std::uint64_t* nonzero_ = nullptr;
  /// Plane storage built by the packing constructor (empty on a view).
  std::vector<std::uint64_t> owned_sign_;
  std::vector<std::uint64_t> owned_nonzero_;
  /// Owner of a view's planes; null on the packing path.
  std::shared_ptr<const PackedItemMemory> parent_;
};

}  // namespace factorhd::hdc::kernels
