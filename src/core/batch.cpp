#include "core/batch.hpp"

#include <algorithm>
#include <span>
#include <thread>

#include "util/parallel.hpp"

namespace factorhd::core {

std::size_t BatchFactorizer::effective_threads(std::size_t batch) const {
  std::size_t n = opts_.num_threads;
  if (n == 0) {
    n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return std::min(n, std::max<std::size_t>(1, batch));
}

std::vector<FactorizeResult> BatchFactorizer::factorize_all(
    const std::vector<hdc::Hypervector>& targets,
    const FactorizeOptions& opts) const {
  std::vector<FactorizeResult> results(targets.size());
  if (targets.empty()) return results;

  const std::size_t workers = effective_threads(targets.size());

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
