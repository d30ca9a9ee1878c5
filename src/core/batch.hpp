// Multi-threaded batch factorization.
//
// The paper runs its factorization trials on a GPU with batch size 512;
// BatchFactorizer is the CPU counterpart: independent targets are
// factorized concurrently across a worker pool. Correctness relies on
// Factorizer::factorize being const and side-effect-free apart from the
// atomic similarity-op counters in hdc::ItemMemory; the packed word-plane
// scan backend — including its SIMD tier, which rides in on the
// hdc::ScanBackend the Factorizer was built with — is immutable after
// construction and shared read-only across workers, so it needs no further
// synchronization.
//
// Determinism contract (asserted by tests/test_batch_determinism.cpp):
// every target is factorized independently and results land at the
// target's input position, so factorize_all returns identical results for
// any num_threads and across repeated runs — thread scheduling only decides
// who computes an entry, never what it contains.
#pragma once

#include <cstddef>
#include <vector>

#include "core/factorizer.hpp"
#include "hdc/hypervector.hpp"

namespace factorhd::core {

struct BatchOptions {
  /// Worker threads; 0 picks the width per batch from the estimated work
  /// (see BatchFactorizer::width), capped by util::pool_width().
  std::size_t num_threads = 0;
};

class BatchFactorizer {
 public:
  /// Non-owning view; `factorizer` must outlive this object.
  explicit BatchFactorizer(const Factorizer& factorizer,
                           BatchOptions opts = {}) noexcept
      : factorizer_(&factorizer), opts_(opts) {}

  /// Factorizes every target with the same options; results are returned in
  /// input order. If targets throw, rethrows (once every worker has joined)
  /// the exception of the lowest-indexed failing task: a target, or a slice
  /// for single-object batches.
  ///
  /// Single-object batches (!opts.multi_object) are partitioned into fixed
  /// contiguous slices, one per worker, each running
  /// Factorizer::factorize_block — the class-major blocked scan that streams
  /// every level-1 codebook once per slice instead of once per target.
  /// factorize_block is bit-identical per target to factorize, so results
  /// (and the determinism contract above) are unchanged. Multi-object
  /// batches hand out one target per task (util::parallel_for).
  /// \param targets Independent encoded targets (any mix of Rep 1/2/3).
  /// \param opts Options applied to every target.
  /// \return One FactorizeResult per target, in input order.
  /// \throws Any exception thrown by Factorizer::factorize on a worker.
  [[nodiscard]] std::vector<FactorizeResult> factorize_all(
      const std::vector<hdc::Hypervector>& targets,
      const FactorizeOptions& opts = {}) const;

  /// The most threads factorize_all may use for a given batch size.
  /// \param batch Number of targets in the batch.
  /// \return min(num_threads, batch) — util::pool_width() standing in for
  ///   num_threads == 0 — clamped to at least 1, also for batch == 0, where
  ///   factorize_all returns empty without spawning any worker (the 1 is
  ///   the sequential caller thread itself).
  [[nodiscard]] std::size_t effective_threads(std::size_t batch) const;

  /// Threads factorize_all uses for `batch` targets under `opts`. An
  /// explicit num_threads uses effective_threads(batch). At auto width
  /// (num_threads == 0) each worker must get at least kBreakEvenNs of
  /// estimated work: batch * Factorizer::estimate_ns(opts) / kBreakEvenNs
  /// threads, clamped to [1, effective_threads(batch)]. A few paper-scale
  /// objects therefore run on the caller alone, 64 of them fan out to the
  /// pool width, and multi-object batches (estimated as unbounded) fan out
  /// to the cap.
  [[nodiscard]] std::size_t width(std::size_t batch,
                                  const FactorizeOptions& opts) const;

 private:
  const Factorizer* factorizer_;
  BatchOptions opts_;
};

}  // namespace factorhd::core
