#include "service/result_cache.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "hdc/hash.hpp"

namespace factorhd::service {

std::uint64_t fingerprint_options(
    const core::FactorizeOptions& opts) noexcept {
  using hdc::hash_mix;
  std::uint64_t h = hash_mix(0x7c0f8b1d2e3a4956ULL);
  h = hash_mix(h ^ (opts.multi_object ? 1u : 0u));
  h = hash_mix(h ^ std::bit_cast<std::uint64_t>(opts.threshold));
  h = hash_mix(h ^ opts.num_objects_hint);
  h = hash_mix(h ^ opts.max_objects);
  h = hash_mix(h ^ opts.max_depth);
  h = hash_mix(h ^ opts.max_candidates_per_class);
  h = hash_mix(h ^ (opts.collect_trace ? 2u : 0u));
  h = hash_mix(h ^ opts.selected_classes.size());
  for (const std::size_t cls : opts.selected_classes) {
    h = hash_mix(h ^ cls);
  }
  return h;
}

std::uint64_t request_key(const hdc::Hypervector& target,
                          const core::FactorizeOptions& opts) noexcept {
  return hdc::hash_hypervector(target, fingerprint_options(opts));
}

ResultCache::ResultCache(std::size_t capacity, std::size_t shards) {
  if (capacity == 0) return;  // disabled: zero shards, enabled() == false
  const std::size_t n = std::clamp<std::size_t>(shards, 1, capacity);
  capacity_ = capacity;
  // Distribute the budget exactly: capacity / n everywhere plus one of the
  // remainder entries in each of the first capacity % n shards. Rounding up
  // instead would let the aggregate exceed the requested capacity by up to
  // n - 1 entries once every shard fills. n <= capacity keeps every cap
  // >= 1.
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->cap = capacity / n + (i < capacity % n ? 1 : 0);
  }
}

std::size_t ResultCache::size() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->lru.size();
  }
  return total;
}

std::optional<core::FactorizeResult> ResultCache::lookup(
    std::uint64_t key, const hdc::Hypervector& target,
    const core::FactorizeOptions& opts) {
  if (!enabled()) return std::nullopt;
  Shard& s = shard_of(key);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.index.find(key);
  if (it == s.index.end()) return std::nullopt;
  const Entry& e = *it->second;
  // A fingerprint match is not an identity match: verify before serving.
  if (e.target != target || !(e.opts == opts)) return std::nullopt;
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
  return e.result;
}

void ResultCache::insert(std::uint64_t key, const hdc::Hypervector& target,
                         const core::FactorizeOptions& opts,
                         core::FactorizeResult result) {
  if (!enabled()) return;
  Shard& s = shard_of(key);
  std::lock_guard<std::mutex> lock(s.mu);
  if (const auto it = s.index.find(key); it != s.index.end()) {
    // Refresh (or, on a true collision, overwrite) in place.
    it->second->target = target;
    it->second->opts = opts;
    it->second->result = std::move(result);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  if (s.lru.size() >= s.cap) {
    s.index.erase(s.lru.back().key);
    s.lru.pop_back();
  }
  s.lru.push_front(Entry{key, target, opts, std::move(result)});
  s.index.emplace(key, s.lru.begin());
}

void ResultCache::clear() {
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    s->lru.clear();
    s->index.clear();
  }
}

}  // namespace factorhd::service
