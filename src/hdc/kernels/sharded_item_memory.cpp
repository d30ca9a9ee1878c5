#include "hdc/kernels/sharded_item_memory.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/env.hpp"
#include "util/parallel.hpp"

namespace factorhd::hdc::kernels {

ShardedConfig sharded_config_from_env() {
  ShardedConfig config;
  config.shards = util::env_size_t("FACTORHD_SHARDS", 1, 1, 1024);
  return config;
}

std::size_t sharded_auto_min_rows() {
  return util::env_size_t("FACTORHD_SHARD_MIN_ROWS", 65536, 0,
                          std::size_t{1} << 30);
}

ShardedItemMemory::ShardedItemMemory(
    std::shared_ptr<const PackedItemMemory> rows, ShardedConfig config)
    : full_(std::move(rows)) {
  if (full_ == nullptr) {
    throw std::invalid_argument("ShardedItemMemory: null row memory");
  }
  const std::size_t total = full_->size();
  std::size_t n = config.shards > 0 ? config.shards
                                    : sharded_config_from_env().shards;
  n = std::clamp<std::size_t>(n, 1, total);

  // Balanced contiguous partition: the first `total % n` shards get one
  // extra row, so shard sizes differ by at most one and the mapping from
  // global row to (shard, local row) is a pure function of (total, n).
  const std::size_t base = total / n;
  const std::size_t rem = total % n;
  shards_.reserve(n);
  std::size_t begin = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t size = base + (s < rem ? 1 : 0);
    shards_.push_back({begin, PackedItemMemory::slice(full_, begin, size)});
    begin += size;
  }

  shard_scans_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  shard_rows_scanned_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  for (std::size_t s = 0; s < n; ++s) {
    shard_scans_[s].store(0, std::memory_order_relaxed);
    shard_rows_scanned_[s].store(0, std::memory_order_relaxed);
  }
}

std::vector<std::uint64_t> ShardedItemMemory::shard_scans() const {
  std::vector<std::uint64_t> out(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    out[s] = shard_scans_[s].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<std::uint64_t> ShardedItemMemory::shard_rows_scanned() const {
  std::vector<std::uint64_t> out(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    out[s] = shard_rows_scanned_[s].load(std::memory_order_relaxed);
  }
  return out;
}

std::size_t ShardedItemMemory::scatter_workers() const noexcept {
  return scan_width(full_->size() * full_->words_per_row(),
                    full_->simd_level(), shards_.size());
}

template <typename Fn>
void ShardedItemMemory::for_each_shard(Fn&& fn) const {
  // One task per shard; every task writes only its own shard's result
  // slots, so the gather is byte-identical to the sequential loop for any
  // pool width, and a throwing shard scan surfaces the lowest shard's error.
  util::parallel_for(shards_.size(), scatter_workers(), fn);
}

void ShardedItemMemory::require_query(const PackedQuery& query) const {
  if (query.dim != full_->dim()) {
    throw std::invalid_argument("ShardedItemMemory: query dimension mismatch");
  }
}

Match ShardedItemMemory::best(const PackedQuery& query) const {
  require_query(query);
  const std::size_t n = shards_.size();
  std::vector<Match> local(n);
  for_each_shard([&](std::size_t s) {
    const Shard& sh = shards_[s];
    Match m = sh.rows->best(query);
    note_shard_scan(s, sh.rows->size());
    m.index += sh.begin;
    local[s] = m;
  });
  // Ascending shard order + strict '>' keeps the first (lowest global
  // index) maximum — the canonical argmax tie rule. Comparing the
  // similarity doubles is tie-exact: distinct dots map to distinct doubles
  // (dot / D with D well under 2^53).
  Match out = local[0];
  for (std::size_t s = 1; s < n; ++s) {
    if (local[s].similarity > out.similarity) out = local[s];
  }
  return out;
}

std::vector<Match> ShardedItemMemory::above(const PackedQuery& query,
                                            double threshold) const {
  require_query(query);
  const std::size_t n = shards_.size();
  std::vector<std::vector<Match>> local(n);
  for_each_shard([&](std::size_t s) {
    const Shard& sh = shards_[s];
    local[s] = sh.rows->above(query, threshold);
    note_shard_scan(s, sh.rows->size());
    for (Match& m : local[s]) m.index += sh.begin;
  });
  std::vector<Match> out;
  for (auto& part : local) {
    out.insert(out.end(), part.begin(), part.end());
  }
  // hdc::match_order is a strict total order over distinct indices, so one
  // global sort reproduces the unsharded ordering exactly.
  std::sort(out.begin(), out.end(), match_order);
  return out;
}

std::vector<Match> ShardedItemMemory::top_k(const PackedQuery& query,
                                            std::size_t k) const {
  require_query(query);
  if (k == 0) return {};
  const std::size_t kk = std::min(k, full_->size());
  const std::size_t n = shards_.size();
  std::vector<std::vector<Match>> local(n);
  for_each_shard([&](std::size_t s) {
    const Shard& sh = shards_[s];
    local[s] = sh.rows->top_k(query, kk);
    note_shard_scan(s, sh.rows->size());
    for (Match& m : local[s]) m.index += sh.begin;
  });
  // Sound merge: any row of the global top-k is by definition in its own
  // shard's local top-k, so the union of per-shard top-k lists contains the
  // global answer; sort + truncate recovers it in canonical order.
  std::vector<Match> out;
  for (auto& part : local) {
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end(), match_order);
  if (out.size() > kk) out.resize(kk);
  return out;
}

void ShardedItemMemory::dots(const PackedQuery& query,
                             std::span<std::int64_t> out) const {
  require_query(query);
  if (out.size() != full_->size()) {
    throw std::invalid_argument("ShardedItemMemory: output size mismatch");
  }
  for_each_shard([&](std::size_t s) {
    const Shard& sh = shards_[s];
    sh.rows->dots(query, out.subspan(sh.begin, sh.rows->size()));
    note_shard_scan(s, sh.rows->size());
  });
}

std::vector<Match> ShardedItemMemory::best_block(
    std::span<const PackedQuery> queries) const {
  for (const PackedQuery& q : queries) require_query(q);
  if (queries.empty()) return {};
  const std::size_t n = shards_.size();
  std::vector<std::vector<Match>> local(n);
  for_each_shard([&](std::size_t s) {
    const Shard& sh = shards_[s];
    local[s] = sh.rows->best_block(queries);
    note_shard_scan(s, queries.size() * sh.rows->size());
    for (Match& m : local[s]) m.index += sh.begin;
  });
  std::vector<Match> out = std::move(local[0]);
  for (std::size_t s = 1; s < n; ++s) {
    for (std::size_t q = 0; q < out.size(); ++q) {
      if (local[s][q].similarity > out[q].similarity) out[q] = local[s][q];
    }
  }
  return out;
}

std::vector<std::vector<Match>> ShardedItemMemory::top_k_block(
    std::span<const PackedQuery> queries, std::size_t k) const {
  for (const PackedQuery& q : queries) require_query(q);
  if (queries.empty()) return {};
  if (k == 0) return std::vector<std::vector<Match>>(queries.size());
  const std::size_t kk = std::min(k, full_->size());
  const std::size_t n = shards_.size();
  std::vector<std::vector<std::vector<Match>>> local(n);
  for_each_shard([&](std::size_t s) {
    const Shard& sh = shards_[s];
    local[s] = sh.rows->top_k_block(queries, kk);
    note_shard_scan(s, queries.size() * sh.rows->size());
    for (auto& per_query : local[s]) {
      for (Match& m : per_query) m.index += sh.begin;
    }
  });
  std::vector<std::vector<Match>> out(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (std::size_t s = 0; s < n; ++s) {
      out[q].insert(out[q].end(), local[s][q].begin(), local[s][q].end());
    }
    std::sort(out[q].begin(), out[q].end(), match_order);
    if (out[q].size() > kk) out[q].resize(kk);
  }
  return out;
}

void ShardedItemMemory::dots_block(std::span<const PackedQuery> queries,
                                   std::span<std::int64_t> out) const {
  for (const PackedQuery& q : queries) require_query(q);
  const std::size_t total = full_->size();
  if (out.size() != queries.size() * total) {
    throw std::invalid_argument("ShardedItemMemory: output size mismatch");
  }
  if (queries.empty()) return;
  for_each_shard([&](std::size_t s) {
    const Shard& sh = shards_[s];
    const std::size_t size = sh.rows->size();
    // The shard kernel writes query-major over shard rows; scatter each
    // query's slice into its global column range (disjoint across shards).
    std::vector<std::int64_t> scratch(queries.size() * size);
    sh.rows->dots_block(queries, scratch);
    note_shard_scan(s, queries.size() * size);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      std::copy_n(scratch.data() + q * size, size,
                  out.data() + q * total + sh.begin);
    }
  });
}

}  // namespace factorhd::hdc::kernels
