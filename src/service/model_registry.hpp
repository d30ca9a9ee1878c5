// ModelRegistry: named, immutable, shareable factorization models.
//
// A "model" in the serving runtime is a TaxonomyCodebooks set (the HDC
// model file persisted by taxonomy/io) together with the Encoder and
// Factorizer built over it. Construction packs every (class, level)
// codebook into word planes once; after that a Model is deeply immutable,
// so any number of engines and sessions can share one instance — including
// its packed SIMD planes — through shared_ptr<const Model> with no further
// synchronization. The registry is the process-wide name → Model map that
// load commands and serving sessions resolve against.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/encoder.hpp"
#include "core/factorizer.hpp"
#include "hdc/item_memory.hpp"
#include "taxonomy/codebooks.hpp"

namespace factorhd::service {

/// One loaded model: codebooks + encoder + factorizer, immutable after
/// construction. Non-copyable and non-movable — the encoder and factorizer
/// hold pointers into sibling members — so it always lives behind a
/// shared_ptr (see make()).
///
/// \par Contract (build once, share everywhere)
/// Construction is where every per-codebook index is paid for exactly
/// once: the word-plane packing of each (class, level) codebook (and its
/// shard partition, when sharded). After make() returns, the Model is deeply
/// immutable, so any number of engines and sessions share one instance,
/// packed planes included, through shared_ptr<const Model> with no further
/// synchronization and no per-request rebuild cost. Retuning a
/// FACTORHD_SHARDS knob therefore takes effect at the next load, never
/// mid-flight.
class Model {
 public:
  /// Builds a model from in-memory codebooks (the registry's file loader
  /// and the in-process construction path of tests/benches both end here).
  /// \param name Registry name (diagnostic; the registry enforces keys).
  /// \param books Codebook material; moved in and owned by the model.
  /// \param backend Scan backend for the factorizer's item memories.
  /// \param sharded Optional scatter-gather shard configuration threaded to
  ///   the factorizer's item memories (see hdc::ItemMemory); results stay
  ///   bit-identical to the unsharded model.
  /// \return The shared immutable model.
  /// \throws std::invalid_argument From the Factorizer constructor (forced
  ///   unavailable SIMD tier, unpackable codebook under kPacked).
  [[nodiscard]] static std::shared_ptr<const Model> make(
      std::string name, tax::TaxonomyCodebooks books,
      hdc::ScanBackend backend = hdc::ScanBackend::kAuto,
      std::optional<hdc::kernels::ShardedConfig> sharded = std::nullopt);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const tax::TaxonomyCodebooks& books() const noexcept {
    return books_;
  }
  [[nodiscard]] const core::Encoder& encoder() const noexcept {
    return encoder_;
  }
  [[nodiscard]] const core::Factorizer& factorizer() const noexcept {
    return factorizer_;
  }
  /// \return Number of classes in the model's taxonomy (a convenience for
  ///   rendering FactorizedObject::to_object results).
  [[nodiscard]] std::size_t num_classes() const noexcept;

  /// \return The scan backend this model was requested with (what a reshard
  ///   rebuild must preserve; the factorizer reports what it resolved to).
  [[nodiscard]] hdc::ScanBackend requested_backend() const noexcept {
    return backend_;
  }
  /// \return The shard configuration this model was built with (nullopt =
  ///   unsharded / env-resolved); factorizer().shards() is the resolved
  ///   partition width.
  [[nodiscard]] const std::optional<hdc::kernels::ShardedConfig>&
  shard_config() const noexcept {
    return sharded_;
  }

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// Public only for make()'s std::make_shared; use make().
  Model(std::string name, tax::TaxonomyCodebooks books,
        hdc::ScanBackend backend,
        std::optional<hdc::kernels::ShardedConfig> sharded = std::nullopt);

 private:
  std::string name_;
  tax::TaxonomyCodebooks books_;
  hdc::ScanBackend backend_;  ///< as requested at construction
  /// Shard configuration as requested at construction (reshard provenance).
  std::optional<hdc::kernels::ShardedConfig> sharded_;
  core::Encoder encoder_;      ///< views books_
  core::Factorizer factorizer_;  ///< views encoder_; packs the codebooks
};

/// Thread-safe name → Model map. Loading the same name twice replaces the
/// mapping; existing holders of the old shared_ptr keep serving the old
/// model until they drop it (zero-downtime model swap).
class ModelRegistry {
 public:
  /// Loads a codebook-set model file (taxonomy/io framing) and registers it.
  /// \param name Registry key.
  /// \param path Model file written by tax::save_codebooks_file.
  /// \param backend Scan backend for the model's factorizer.
  /// \return The loaded model.
  /// \throws std::runtime_error On I/O failure, bad magic, or truncation.
  /// \throws std::invalid_argument On inconsistent codebook material.
  std::shared_ptr<const Model> load_file(
      const std::string& name, const std::string& path,
      hdc::ScanBackend backend = hdc::ScanBackend::kAuto);

  /// Registers a model built from in-memory codebooks.
  std::shared_ptr<const Model> add(
      const std::string& name, tax::TaxonomyCodebooks books,
      hdc::ScanBackend backend = hdc::ScanBackend::kAuto,
      std::optional<hdc::kernels::ShardedConfig> sharded = std::nullopt);

  /// Rebuilds the model registered under `name` with a `shards`-way
  /// scatter-gather partition (1 = unshard) and swaps it into the mapping —
  /// the same zero-downtime mechanism as a reload: the rebuild happens
  /// outside the lock on a copy of the codebooks, existing holders of the
  /// old shared_ptr keep serving the old partition until they drop it, and
  /// new engines pick up the resharded model. The requested scan backend is
  /// preserved. Results are unchanged by construction (sharded scans are
  /// bit-identical), so swapping mid-traffic is safe.
  /// \return The resharded model, or nullptr when `name` is not registered.
  std::shared_ptr<const Model> reshard(const std::string& name,
                                       std::size_t shards);

  /// \return The model registered under `name`, or nullptr.
  [[nodiscard]] std::shared_ptr<const Model> get(
      const std::string& name) const;

  /// \return True when a mapping was removed. Engines holding the model
  ///   keep it alive; the registry merely forgets the name.
  bool erase(const std::string& name);

  /// \return Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const Model>> models_;
};

}  // namespace factorhd::service
