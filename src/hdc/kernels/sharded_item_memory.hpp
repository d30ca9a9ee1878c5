// ShardedItemMemory: scatter-gather scans over a row-partitioned codebook.
//
// This class partitions a packed codebook into N shards by contiguous row
// range, scatters every scan across the shards, and gathers the per-shard
// results into one globally-indexed answer:
//
//   partition:  shard s owns rows [begin_s, begin_s + size_s), a balanced
//               contiguous split (sizes differ by at most one row). Each
//               shard's row memory is a zero-copy PackedItemMemory::slice()
//               of the full packed memory — one set of planes, N views.
//   scatter:    the shard scans run as util::parallel_for tasks, one per
//               shard, over the scan pool width (FACTORHD_SCAN_THREADS) when
//               the codebook is large enough; the per-shard scans nested in
//               a task stay sequential, so thread counts never multiply.
//               Small memories scan shards sequentially. Results are
//               independent of the worker count.
//   gather:     per-shard matches are globalized (local index + begin_s) and
//               merged under the canonical tie rules: argmax keeps the first
//               (lowest global index) maximum by reducing shards in
//               ascending order with a strict '>', and sorted surfaces merge
//               with hdc::match_order. Distinct dots always map to distinct
//               similarity doubles (dot / D with D well under 2^53), so
//               merging on the similarity field is tie-exact.
//
// Bit-identity contract: every surface — best / above / top_k / dots and the
// blocked *_block variants — returns bit-identical results (index,
// similarity, ordering) to the unsharded PackedItemMemory scan at every
// shard count, SIMD tier, and thread count, including N > M and N not
// dividing M. tests/test_kernel_fuzz.cpp asserts this differentially across
// a shard axis; tests/test_sharded_memory.cpp pins the merge tie rules on
// adversarially tied codebooks.
//
// best_among / above_among are intentionally absent: their contract keeps
// the caller's index order (first maximum in the *given* order), which a
// range partition cannot preserve — hdc::ItemMemory routes them to the full
// packed memory instead.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hdc/kernels/packed_item_memory.hpp"
#include "hdc/kernels/plane.hpp"
#include "hdc/kernels/simd.hpp"
#include "hdc/match.hpp"

namespace factorhd::hdc::kernels {

/// Build-time configuration of a ShardedItemMemory. The shard count is
/// clamped to [1, rows] at construction, so N > M is safe (trailing shards
/// would be empty and are dropped).
struct ShardedConfig {
  /// Shard count N; 0 = auto: the FACTORHD_SHARDS env knob (default 1).
  std::size_t shards = 0;

  bool operator==(const ShardedConfig&) const = default;
};

/// ShardedConfig with the shard count pre-filled from the FACTORHD_SHARDS
/// env knob (default 1 = unsharded). Read per call — not cached — so tests
/// and operators can retune between model loads.
[[nodiscard]] ShardedConfig sharded_config_from_env();

/// Row-count threshold at/above which hdc::ItemMemory's kAuto backend
/// honours an env-requested shard count (FACTORHD_SHARD_MIN_ROWS, default
/// 65536): below it the scatter-gather bookkeeping costs more than the scan.
/// Read per call, not cached.
[[nodiscard]] std::size_t sharded_auto_min_rows();

class ShardedItemMemory {
 public:
  /// Partitions `rows` into the configured shard count.
  /// \param rows Packed codebook rows (non-null); shared, immutable.
  /// \param config Shard count.
  /// \throws std::invalid_argument When `rows` is null.
  explicit ShardedItemMemory(std::shared_ptr<const PackedItemMemory> rows,
                             ShardedConfig config = {});

  [[nodiscard]] std::size_t size() const noexcept { return full_->size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return full_->dim(); }
  /// \return Resolved shard count N in [1, size()].
  [[nodiscard]] std::size_t shards() const noexcept { return shards_.size(); }
  /// \return First global row of shard `s`. Precondition: s < shards().
  [[nodiscard]] std::size_t shard_begin(std::size_t s) const noexcept {
    return shards_[s].begin;
  }
  /// \return Row count of shard `s`. Precondition: s < shards().
  [[nodiscard]] std::size_t shard_size(std::size_t s) const noexcept {
    return shards_[s].rows->size();
  }
  /// \return Shard `s`'s packed row view (rows are shard-local 0-based).
  [[nodiscard]] const PackedItemMemory& shard_rows(std::size_t s)
      const noexcept {
    return *shards_[s].rows;
  }
  /// \return The SIMD tier all shards scan at (the full memory's tier).
  [[nodiscard]] SimdLevel simd_level() const noexcept {
    return full_->simd_level();
  }
  /// \return The unpartitioned packed memory (the best_among/among route).
  [[nodiscard]] const PackedItemMemory& rows() const noexcept {
    return *full_;
  }
  /// \return Shared handle to the unpartitioned packed memory.
  [[nodiscard]] std::shared_ptr<const PackedItemMemory> shared_rows()
      const noexcept {
    return full_;
  }
  // --- Per-shard scan accounting -------------------------------------------
  // Every scatter pass charges each shard's relaxed-atomic counters with the
  // work it did there (its full slice of rows) — the observability surface
  // that makes hot shards visible (service::Metrics exports it). Mutable
  // bookkeeping, never synchronizing: recording is wait-free and results
  // are unaffected.

  /// \return Scatter passes over each shard since construction (one entry
  ///   per shard; blocked scans count one pass per shard per block).
  [[nodiscard]] std::vector<std::uint64_t> shard_scans() const;
  /// \return Similarity measurements charged to each shard since
  ///   construction (one entry per shard).
  [[nodiscard]] std::vector<std::uint64_t> shard_rows_scanned() const;

  // --- Scatter-gather scans ------------------------------------------------
  // Every scan measures each row exactly once. All methods throw
  // std::invalid_argument on a query dimension mismatch.

  /// Argmax over all shards; first (lowest global index) maximum wins.
  [[nodiscard]] Match best(const PackedQuery& query) const;

  /// Matches above `threshold` across all shards, sorted by hdc::match_order.
  [[nodiscard]] std::vector<Match> above(const PackedQuery& query,
                                         double threshold) const;

  /// Global top-k across all shards, sorted by hdc::match_order; k is
  /// clamped to size(). Sound because any global top-k row is in its own
  /// shard's local top-k.
  [[nodiscard]] std::vector<Match> top_k(const PackedQuery& query,
                                         std::size_t k) const;

  /// Raw integer dots with every row, globally indexed.
  /// \param out Destination; `out.size()` must equal size().
  void dots(const PackedQuery& query, std::span<std::int64_t> out) const;

  // --- Blocked scatter-gather (the micro-batch hot path) -------------------
  // Each shard runs its QueryBlockKernels pass (planes stream once per shard
  // row block for the whole query block). Results are bit-identical to the
  // per-query overloads.

  /// best() for every query of the block, in query order.
  [[nodiscard]] std::vector<Match> best_block(
      std::span<const PackedQuery> queries) const;

  /// top_k() for every query of the block; k clamped to size().
  [[nodiscard]] std::vector<std::vector<Match>> top_k_block(
      std::span<const PackedQuery> queries, std::size_t k) const;

  /// dots() for every query of the block, query-major:
  /// out[q * size() + row]. `out.size()` must equal queries.size() * size().
  void dots_block(std::span<const PackedQuery> queries,
                  std::span<std::int64_t> out) const;

 private:
  /// One contiguous row-range partition.
  struct Shard {
    std::size_t begin = 0;
    std::shared_ptr<const PackedItemMemory> rows;  ///< zero-copy slice view
  };

  /// Runs `fn(shard_index)` for every shard — in ascending order when the
  /// scan is small or nested, else as one util::parallel_for task per shard
  /// over scatter_workers() threads. `fn` must write only shard-indexed
  /// slots.
  template <typename Fn>
  void for_each_shard(Fn&& fn) const;
  /// Worker count a scatter pass would use right now (1 = sequential).
  [[nodiscard]] std::size_t scatter_workers() const noexcept;
  void require_query(const PackedQuery& query) const;
  /// Charges shard `s` with one scatter pass of `rows` measurements.
  void note_shard_scan(std::size_t s, std::uint64_t rows) const noexcept {
    shard_scans_[s].fetch_add(1, std::memory_order_relaxed);
    shard_rows_scanned_[s].fetch_add(rows, std::memory_order_relaxed);
  }

  std::shared_ptr<const PackedItemMemory> full_;
  std::vector<Shard> shards_;
  /// Per-shard scan accounting (see shard_scans()); sized shards() at
  /// construction, address-stable, mutated relaxed from const scans.
  mutable std::unique_ptr<std::atomic<std::uint64_t>[]> shard_scans_;
  mutable std::unique_ptr<std::atomic<std::uint64_t>[]> shard_rows_scanned_;
};

}  // namespace factorhd::hdc::kernels
