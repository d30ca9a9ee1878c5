#include "core/batch.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "util/parallel.hpp"

namespace factorhd::core {

std::size_t BatchFactorizer::effective_threads(std::size_t batch) const {
  const std::size_t n =
      opts_.num_threads == 0 ? util::pool_width() : opts_.num_threads;
  return std::min(n, std::max<std::size_t>(1, batch));
}

std::size_t BatchFactorizer::width(std::size_t batch,
                                   const FactorizeOptions& opts) const {
  const std::size_t cap = effective_threads(batch);
  if (opts_.num_threads != 0 || cap == 1) return cap;
  const std::uint64_t per_target = factorizer_->estimate_ns(opts);
  const std::uint64_t work =
      per_target > std::numeric_limits<std::uint64_t>::max() / batch
          ? std::numeric_limits<std::uint64_t>::max()
          : per_target * batch;
  return static_cast<std::size_t>(
      std::clamp<std::uint64_t>(work / kBreakEvenNs, 1, cap));
}

std::vector<FactorizeResult> BatchFactorizer::factorize_all(
    const std::vector<hdc::Hypervector>& targets,
    const FactorizeOptions& opts) const {
  std::vector<FactorizeResult> results(targets.size());
  if (targets.empty()) return results;

  const std::size_t workers = width(targets.size(), opts);

  if (!opts.multi_object) {
    // Single-object batches route through Factorizer::factorize_block so
    // each worker's slice shares one codebook stream per class (the blocked
    // QueryBlockKernels scan). Slices are fixed contiguous ranges writing
    // disjoint result slots, and factorize_block is bit-identical per
    // target to factorize, so the determinism contract holds unchanged for
    // every worker count.
    const std::span<const hdc::Hypervector> all(targets);
    if (workers == 1) {
      return factorizer_->factorize_block(all, opts);
    }
    const std::size_t base = targets.size() / workers;
    const std::size_t extra = targets.size() % workers;
    util::parallel_for(workers, workers, [&](std::size_t w) {
      const std::size_t begin = w * base + std::min(w, extra);
      const std::size_t count = base + (w < extra ? 1 : 0);
      std::vector<FactorizeResult> part =
          factorizer_->factorize_block(all.subspan(begin, count), opts);
      std::move(part.begin(), part.end(),
                results.begin() + static_cast<std::ptrdiff_t>(begin));
    });
    return results;
  }

  // Multi-object batches hand out one target per task: scenes vary widely
  // in cost, so the shared task counter balances the load.
  util::parallel_for(targets.size(), workers, [&](std::size_t i) {
    results[i] = factorizer_->factorize(targets[i], opts);
  });
  return results;
}

}  // namespace factorhd::core
