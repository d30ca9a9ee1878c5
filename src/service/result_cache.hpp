// ResultCache: sharded LRU cache of factorization results.
//
// Factorization is a pure function of (target HV, FactorizeOptions), so
// results of repeated requests can be replayed verbatim. The cache keys
// entries by a 64-bit content fingerprint (hdc::hash_hypervector mixed with
// an options fingerprint) and — because 64 bits is a fingerprint, not a
// proof — stores the full target and options alongside the result and
// verifies them on lookup, so a hash collision degrades to a miss, never to
// a wrong answer. Bit-identical serving semantics are preserved
// unconditionally.
//
// Sharding: the key space is split across independently locked shards so
// concurrent submit() fast paths contend only 1/shards of the time. Each
// shard runs its own LRU list; the capacity is distributed exactly —
// capacity / shards per shard with the remainder spread one entry each over
// the first shards — so the aggregate bound is the requested capacity, not
// a rounded-up multiple (size() <= capacity() always holds).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/factorizer.hpp"
#include "hdc/hypervector.hpp"

namespace factorhd::service {

/// 64-bit fingerprint of a FactorizeOptions value (field-wise, including
/// selected_classes order). Equal options always fingerprint equal.
[[nodiscard]] std::uint64_t fingerprint_options(
    const core::FactorizeOptions& opts) noexcept;

/// Combined cache key of a request: content hash of the target, seeded
/// with the options fingerprint. One four-lane pass over the target (about
/// 1 µs at D=2048) ending in a splitmix64 avalanche, so the low bits that
/// ResultCache::shard_of takes `key % shards` of are as well mixed as the
/// high ones.
[[nodiscard]] std::uint64_t request_key(
    const hdc::Hypervector& target,
    const core::FactorizeOptions& opts) noexcept;

/// Sharded LRU cache of factorization results, keyed by 64-bit request
/// fingerprints.
///
/// \par Contract (collision ⇒ miss)
/// Keys are hdc::hash_hypervector fingerprints mixed with
/// fingerprint_options — fingerprints, not proofs of equality. The cache
/// therefore stores the full `(target, options)` pair with every entry
/// and lookup() serves a result only after verifying both by exact
/// equality (components and every option field). A fingerprint collision
/// consequently degrades to a cache *miss* (the request is recomputed),
/// never to a wrong answer; insert() under a colliding key simply
/// replaces the resident entry (the cache is best-effort storage —
/// correctness lives entirely in lookup verification). This is what lets
/// the serving engine promise bit-identical results with the cache on or
/// off (tests/test_service_cache.cpp and the engine differential suite
/// assert it).
///
/// \par Thread safety
/// All methods are safe for concurrent use; the key space is split across
/// independently locked shards (each with its own LRU list), so
/// concurrent fast paths contend only 1/shards of the time.
class ResultCache {
 public:
  /// \param capacity Total entry budget; 0 disables the cache (lookups miss,
  ///   inserts are dropped).
  /// \param shards Number of independently locked shards; clamped to at
  ///   least 1 and at most `capacity` (so every shard holds >= 1 entry).
  explicit ResultCache(std::size_t capacity, std::size_t shards = 8);

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }
  /// \return The exact aggregate entry bound (the constructor's `capacity`):
  ///   per-shard caps sum to it, so size() can never exceed it.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// \return Entries currently resident (sums shard sizes; approximate while
  ///   writers are active).
  [[nodiscard]] std::size_t size() const;

  /// Looks up the result of (target, opts) under `key` (= request_key of
  /// the pair, passed in because callers already computed it). A hit
  /// requires full equality of target and options with the stored entry —
  /// fingerprint collisions report as misses. Hits refresh LRU recency.
  /// \return The cached result, or nullopt.
  [[nodiscard]] std::optional<core::FactorizeResult> lookup(
      std::uint64_t key, const hdc::Hypervector& target,
      const core::FactorizeOptions& opts);

  /// Inserts (or refreshes) the result of (target, opts), evicting the
  /// shard's least-recently-used entry when the shard is full. Key
  /// collisions overwrite: the cache is best-effort storage, correctness
  /// lives in lookup's verification.
  void insert(std::uint64_t key, const hdc::Hypervector& target,
              const core::FactorizeOptions& opts,
              core::FactorizeResult result);

  /// Drops every entry (all shards).
  void clear();

 private:
  struct Entry {
    std::uint64_t key = 0;
    hdc::Hypervector target;
    core::FactorizeOptions opts;
    core::FactorizeResult result;
  };
  struct Shard {
    std::mutex mu;
    /// This shard's exact entry budget (>= 1; caps sum to capacity_).
    std::size_t cap = 0;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
  };

  [[nodiscard]] Shard& shard_of(std::uint64_t key) noexcept {
    return *shards_[static_cast<std::size_t>(key) % shards_.size()];
  }

  std::size_t capacity_ = 0;  ///< exact aggregate bound; 0 = disabled
  /// unique_ptr: shards hold a mutex and must stay address-stable.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace factorhd::service
