#include "service/model_registry.hpp"

#include <utility>

#include "taxonomy/io.hpp"

namespace factorhd::service {

Model::Model(std::string name, tax::TaxonomyCodebooks books,
             hdc::ScanBackend backend,
             std::optional<hdc::kernels::ShardedConfig> sharded)
    : name_(std::move(name)),
      books_(std::move(books)),
      backend_(backend),
      sharded_(sharded),
      encoder_(books_),
      factorizer_(encoder_, backend, sharded) {}

std::shared_ptr<const Model> Model::make(
    std::string name, tax::TaxonomyCodebooks books, hdc::ScanBackend backend,
    std::optional<hdc::kernels::ShardedConfig> sharded) {
  return std::make_shared<const Model>(std::move(name), std::move(books),
                                       backend, sharded);
}

std::size_t Model::num_classes() const noexcept {
  return books_.taxonomy().num_classes();
}

std::shared_ptr<const Model> ModelRegistry::load_file(
    const std::string& name, const std::string& path,
    hdc::ScanBackend backend) {
  // Load and pack outside the lock: a slow disk or a large codebook set
  // must not stall concurrent get() calls.
  auto model = Model::make(name, tax::load_codebooks_file(path), backend);
  std::lock_guard<std::mutex> lock(mu_);
  models_[name] = model;
  return model;
}

std::shared_ptr<const Model> ModelRegistry::add(
    const std::string& name, tax::TaxonomyCodebooks books,
    hdc::ScanBackend backend,
    std::optional<hdc::kernels::ShardedConfig> sharded) {
  auto model = Model::make(name, std::move(books), backend, sharded);
  std::lock_guard<std::mutex> lock(mu_);
  models_[name] = model;
  return model;
}

std::shared_ptr<const Model> ModelRegistry::reshard(const std::string& name,
                                                    std::size_t shards) {
  const auto old = get(name);
  if (!old) return nullptr;
  // Rebuild outside the lock, exactly like a reload: copying the codebooks
  // and re-packing the planes is the slow part, and get() must keep serving
  // the current model throughout. shards == 1 rebuilds unsharded (kAuto with
  // an explicit single-shard config never partitions).
  hdc::kernels::ShardedConfig cfg;
  cfg.shards = shards;
  auto model = Model::make(name, old->books(), old->requested_backend(), cfg);
  std::lock_guard<std::mutex> lock(mu_);
  models_[name] = model;
  return model;
}

std::shared_ptr<const Model> ModelRegistry::get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

bool ModelRegistry::erase(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.erase(name) > 0;
}

std::vector<std::string> ModelRegistry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& [name, model] : models_) out.push_back(name);
  return out;
}

}  // namespace factorhd::service
