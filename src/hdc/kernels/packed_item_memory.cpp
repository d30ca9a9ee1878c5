#include "hdc/kernels/packed_item_memory.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/parallel.hpp"

namespace factorhd::hdc::kernels {

std::size_t scan_pool_width() { return util::pool_width(); }

// A scan is worth threading only when its sequential time comfortably
// exceeds util::parallel_for's per-call spawn+join overhead (tens of
// microseconds). That break-even point depends on the SIMD tier: the scalar
// word loop retires a few ns per plane word, the vector tiers 10-30x less,
// so their threshold sits 16x higher (measured on AVX-512: a 2^16-word scan
// runs ~15 us sequentially — well below spawn cost). The taxonomy codebooks
// of the paper experiments (M <= a few hundred, D <= 8192) stay sequential;
// million-entry codebooks partition across the pool.
std::size_t scan_width(std::size_t words, SimdLevel level,
                       std::size_t blocks) noexcept {
  const std::size_t min_words = level == SimdLevel::kScalarWords
                                    ? (std::size_t{1} << 16)
                                    : (std::size_t{1} << 20);
  if (words < min_words) return 1;
  return util::parallel_width(std::min(util::pool_width(), blocks));
}

namespace {

enum class Alphabet { kBipolar, kTernary, kOther };

// [0, rows) cut into at most `workers` fixed contiguous blocks. Boundaries
// depend only on rows and workers, never on timing, so a scan whose tasks
// write per-block slots is byte-identical at any pool width.
struct RowBlocks {
  RowBlocks(std::size_t rows, std::size_t workers)
      : rows(rows),
        chunk((rows + workers - 1) / workers),
        count((rows + chunk - 1) / chunk) {}
  [[nodiscard]] std::size_t begin(std::size_t b) const { return b * chunk; }
  [[nodiscard]] std::size_t end(std::size_t b) const {
    return std::min(rows, begin(b) + chunk);
  }
  std::size_t rows, chunk, count;
};

Alphabet classify(const Hypervector& v) noexcept {
  bool any_zero = false;
  const auto* p = v.data();
  for (std::size_t i = 0, n = v.dim(); i < n; ++i) {
    if (p[i] > 1 || p[i] < -1) return Alphabet::kOther;
    any_zero |= (p[i] == 0);
  }
  return any_zero ? Alphabet::kTernary : Alphabet::kBipolar;
}

}  // namespace

bool PackedItemMemory::packable(const Codebook& codebook) noexcept {
  if (codebook.size() == 0 || codebook.dim() == 0) return false;
  for (const Hypervector& item : codebook.items()) {
    if (classify(item) == Alphabet::kOther) return false;
  }
  return true;
}

PackedItemMemory::PackedItemMemory(const Codebook& codebook,
                                   std::optional<SimdLevel> level)
    : size_(codebook.size()),
      dim_(codebook.dim()),
      words_(plane_words(codebook.dim())),
      level_(level.value_or(dispatched_simd_level())),
      kernels_(&dot_kernels(level_)) {
  if (size_ == 0 || dim_ == 0) {
    throw std::invalid_argument("PackedItemMemory: empty codebook");
  }
  layout_ = Layout::kBipolar;
  for (const Hypervector& item : codebook.items()) {
    switch (classify(item)) {
      case Alphabet::kBipolar:
        break;
      case Alphabet::kTernary:
        layout_ = Layout::kTernary;
        break;
      case Alphabet::kOther:
        throw std::invalid_argument(
            "PackedItemMemory: codebook entry outside {-1,0,+1}");
    }
  }

  owned_sign_.assign(size_ * words_, 0);
  if (layout_ == Layout::kTernary) owned_nonzero_.assign(size_ * words_, 0);
  for (std::size_t row = 0; row < size_; ++row) {
    const auto* p = codebook.item(row).data();
    std::uint64_t* rs = &owned_sign_[row * words_];
    std::uint64_t* rnz =
        layout_ == Layout::kTernary ? &owned_nonzero_[row * words_] : nullptr;
    for (std::size_t i = 0; i < dim_; ++i) {
      if (p[i] == 0) continue;
      if (rnz != nullptr) rnz[i / kWordBits] |= (1ULL << (i % kWordBits));
      if (p[i] > 0) rs[i / kWordBits] |= (1ULL << (i % kWordBits));
    }
  }
  sign_ = owned_sign_.data();
  if (layout_ == Layout::kTernary) nonzero_ = owned_nonzero_.data();
}

PackedItemMemory::PackedItemMemory(
    std::shared_ptr<const PackedItemMemory> full, std::size_t begin,
    std::size_t count)
    : size_(count),
      dim_(full->dim_),
      words_(full->words_),
      level_(full->level_),
      kernels_(full->kernels_),
      layout_(full->layout_),
      sign_(full->sign_ + begin * full->words_),
      nonzero_(full->nonzero_ != nullptr ? full->nonzero_ + begin * full->words_
                                         : nullptr),
      parent_(std::move(full)) {}

std::shared_ptr<const PackedItemMemory> PackedItemMemory::slice(
    std::shared_ptr<const PackedItemMemory> full, std::size_t begin,
    std::size_t count) {
  if (full == nullptr || count == 0 || begin > full->size_ ||
      count > full->size_ - begin) {
    throw std::invalid_argument("PackedItemMemory::slice: bad row range");
  }
  // The view constructor is private, so std::make_shared cannot reach it.
  return std::shared_ptr<const PackedItemMemory>(
      new PackedItemMemory(std::move(full), begin, count));
}

std::size_t PackedItemMemory::storage_bits() const noexcept {
  return (layout_ == Layout::kTernary ? 2 : 1) * size_ * dim_;
}

std::int64_t PackedItemMemory::row_dot(std::size_t row,
                                       const PackedQuery& query) const noexcept {
  const std::uint64_t* rs = &sign_[row * words_];
  if (layout_ == Layout::kBipolar) {
    if (query.bipolar) {
      return kernels_->bipolar_bipolar(rs, query.sign.data(), words_, dim_);
    }
    return kernels_->bipolar_ternary(rs, query.nonzero.data(),
                                     query.sign.data(), words_);
  }
  const std::uint64_t* rnz = &nonzero_[row * words_];
  if (query.bipolar) {
    return kernels_->bipolar_ternary(query.sign.data(), rnz, rs, words_);
  }
  return kernels_->ternary_ternary(rnz, rs, query.nonzero.data(),
                                   query.sign.data(), words_);
}

std::size_t PackedItemMemory::scan_workers() const noexcept {
  return scan_width(size_ * words_, level_, size_);
}

void PackedItemMemory::compute_dots(const PackedQuery& query,
                                    std::span<std::int64_t> out) const {
  // One task per row block, each writing a disjoint slice of `out`.
  const std::size_t workers = scan_workers();
  const RowBlocks blocks(size_, workers);
  util::parallel_for(blocks.count, workers, [&](std::size_t b) {
    for (std::size_t row = blocks.begin(b), end = blocks.end(b); row < end;
         ++row) {
      out[row] = row_dot(row, query);
    }
  });
}

void PackedItemMemory::require_query(const PackedQuery& query) const {
  if (query.dim != dim_) {
    throw std::invalid_argument("PackedItemMemory: query dimension mismatch");
  }
}

PackedQuery PackedItemMemory::pack_query(const Hypervector& query) const {
  std::optional<PackedQuery> q = PackedQuery::pack(query, level_);
  if (!q) {
    throw std::invalid_argument(
        "PackedItemMemory: query is not bipolar/ternary (use the scalar "
        "ItemMemory path for integer bundles)");
  }
  return std::move(*q);
}

Match PackedItemMemory::best(const PackedQuery& query) const {
  require_query(query);
  // Strict > keeps the first (lowest-index) maximum, exactly like the scalar
  // argmax loop; integer dots make the comparison tie-exact.
  if (scan_workers() > 1) {
    // Parallel path: materialize the dots (disjoint slices per worker), then
    // reduce sequentially in row order — same argmax, any thread count.
    std::vector<std::int64_t> all(size_);
    compute_dots(query, all);
    std::int64_t best_dot = all[0];
    std::size_t best_row = 0;
    for (std::size_t row = 1; row < size_; ++row) {
      if (all[row] > best_dot) {
        best_dot = all[row];
        best_row = row;
      }
    }
    return {best_row, to_similarity(best_dot)};
  }
  std::int64_t best_dot = row_dot(0, query);
  std::size_t best_row = 0;
  for (std::size_t row = 1; row < size_; ++row) {
    const std::int64_t d = row_dot(row, query);
    if (d > best_dot) {
      best_dot = d;
      best_row = row;
    }
  }
  return {best_row, to_similarity(best_dot)};
}

Match PackedItemMemory::best_among(const PackedQuery& query,
                                   std::span<const std::size_t> indices) const {
  require_query(query);
  if (indices.empty()) {
    throw std::invalid_argument("PackedItemMemory::best_among: empty index set");
  }
  Match m{indices[0], 0.0};
  std::int64_t best_dot = 0;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const std::size_t row = indices[k];
    if (row >= size_) {
      throw std::out_of_range("PackedItemMemory::best_among: index out of range");
    }
    const std::int64_t d = row_dot(row, query);
    if (k == 0 || d > best_dot) {
      best_dot = d;
      m.index = row;
    }
  }
  m.similarity = to_similarity(best_dot);
  return m;
}

std::vector<Match> PackedItemMemory::above(const PackedQuery& query,
                                           double threshold) const {
  require_query(query);
  std::vector<Match> out;
  if (scan_workers() > 1) {
    std::vector<std::int64_t> ds(size_);
    compute_dots(query, ds);
    for (std::size_t row = 0; row < size_; ++row) {
      const double s = to_similarity(ds[row]);
      if (s > threshold) out.push_back({row, s});
    }
  } else {
    for (std::size_t row = 0; row < size_; ++row) {
      const double s = to_similarity(row_dot(row, query));
      if (s > threshold) out.push_back({row, s});
    }
  }
  std::sort(out.begin(), out.end(), match_order);
  return out;
}

std::vector<Match> PackedItemMemory::above_among(
    const PackedQuery& query, double threshold,
    std::span<const std::size_t> indices) const {
  require_query(query);
  std::vector<Match> out;
  for (std::size_t row : indices) {
    if (row >= size_) {
      throw std::out_of_range(
          "PackedItemMemory::above_among: index out of range");
    }
    const double s = to_similarity(row_dot(row, query));
    if (s > threshold) out.push_back({row, s});
  }
  std::sort(out.begin(), out.end(), match_order);
  return out;
}

std::vector<Match> PackedItemMemory::top_k(const PackedQuery& query,
                                           std::size_t k) const {
  require_query(query);
  if (k == 0) return {};  // don't pay a full scan for an empty answer
  std::vector<std::int64_t> ds(size_);
  compute_dots(query, ds);
  std::vector<Match> all;
  all.reserve(size_);
  for (std::size_t row = 0; row < size_; ++row) {
    all.push_back({row, to_similarity(ds[row])});
  }
  const std::size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(keep), all.end(),
                    match_order);
  all.resize(keep);
  return all;
}

void PackedItemMemory::dots(const PackedQuery& query,
                            std::span<std::int64_t> out) const {
  require_query(query);
  if (out.size() != size_) {
    throw std::invalid_argument("PackedItemMemory::dots: output size mismatch");
  }
  compute_dots(query, out);
}

namespace {

// Rows per blocked-scan chunk: bounds the per-chunk dots scratch to
// queries * 2 KiB while leaving the QueryBlockKernels register tiles plenty
// of rows to amortize each query visit over.
constexpr std::size_t kBlockChunkRows = 256;

}  // namespace

PackedItemMemory::BlockView PackedItemMemory::make_block_view(
    std::span<const PackedQuery> queries) const {
  BlockView view;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const PackedQuery& pq = queries[q];
    if (pq.bipolar) {
      view.bip.push_back(pq.sign.data());
      view.bip_idx.push_back(q);
    } else {
      view.ter_nz.push_back(pq.nonzero.data());
      view.ter_sg.push_back(pq.sign.data());
      view.ter_idx.push_back(q);
    }
  }
  return view;
}

void PackedItemMemory::block_dots_range(const BlockView& view,
                                        std::size_t begin, std::size_t end,
                                        std::int64_t* scratch) const {
  const std::size_t count = end - begin;
  const QueryBlockKernels& kernels = query_block_kernels(level_);
  const std::uint64_t* rows = sign_ + begin * words_;
  if (!view.bip.empty()) {
    kernels.bipolar_rows(view.bip.data(), view.bip.size(), rows, count, words_,
                         dim_, scratch);
  }
  if (!view.ter_nz.empty()) {
    kernels.ternary_rows(view.ter_nz.data(), view.ter_sg.data(),
                         view.ter_nz.size(), rows, count, words_,
                         scratch + view.bip.size() * count);
  }
}

std::vector<Match> PackedItemMemory::best_block(
    std::span<const PackedQuery> queries) const {
  for (const PackedQuery& q : queries) require_query(q);
  const std::size_t nq = queries.size();
  std::vector<Match> out(nq);
  if (nq == 0) return out;
  if (layout_ != Layout::kBipolar) {
    // Ternary-layout rows have no query-block kernel; the per-query scans
    // produce the same results without the amortization.
    for (std::size_t q = 0; q < nq; ++q) out[q] = best(queries[q]);
    return out;
  }
  const BlockView view = make_block_view(queries);
  const auto orig_index = [&view](std::size_t slot) {
    return slot < view.bip_idx.size()
               ? view.bip_idx[slot]
               : view.ter_idx[slot - view.bip_idx.size()];
  };
  // Running per-slot argmax over ascending row chunks; INT64_MIN is below
  // any dot in [-dim, dim], so strict > keeps the first (lowest-index)
  // maximum exactly like the single-query loop.
  const auto reduce_range = [this, &view, nq](std::size_t range_begin,
                                              std::size_t range_end,
                                              std::int64_t* best_dot,
                                              std::size_t* best_row) {
    std::vector<std::int64_t> scratch(
        nq * std::min<std::size_t>(kBlockChunkRows, range_end - range_begin));
    for (std::size_t begin = range_begin; begin < range_end;
         begin += kBlockChunkRows) {
      const std::size_t end = std::min(range_end, begin + kBlockChunkRows);
      const std::size_t count = end - begin;
      block_dots_range(view, begin, end, scratch.data());
      for (std::size_t t = 0; t < nq; ++t) {
        const std::int64_t* d = scratch.data() + t * count;
        std::int64_t bd = best_dot[t];
        std::size_t br = best_row[t];
        for (std::size_t i = 0; i < count; ++i) {
          if (d[i] > bd) {
            bd = d[i];
            br = begin + i;
          }
        }
        best_dot[t] = bd;
        best_row[t] = br;
      }
    }
  };
  const std::size_t workers = scan_workers();
  std::vector<std::int64_t> best_dot(nq, INT64_MIN);
  std::vector<std::size_t> best_row(nq, 0);
  if (workers <= 1) {
    reduce_range(0, size_, best_dot.data(), best_row.data());
  } else {
    // One task per row block; merging the blocks in ascending order with
    // strict > reproduces the sequential argmax for any pool width.
    const RowBlocks blocks(size_, workers);
    std::vector<std::vector<std::int64_t>> wdot(
        blocks.count, std::vector<std::int64_t>(nq, INT64_MIN));
    std::vector<std::vector<std::size_t>> wrow(
        blocks.count, std::vector<std::size_t>(nq, 0));
    util::parallel_for(blocks.count, workers, [&](std::size_t b) {
      reduce_range(blocks.begin(b), blocks.end(b), wdot[b].data(),
                   wrow[b].data());
    });
    for (std::size_t s = 0; s < blocks.count; ++s) {
      for (std::size_t t = 0; t < nq; ++t) {
        if (wdot[s][t] > best_dot[t]) {
          best_dot[t] = wdot[s][t];
          best_row[t] = wrow[s][t];
        }
      }
    }
  }
  for (std::size_t t = 0; t < nq; ++t) {
    out[orig_index(t)] = {best_row[t], to_similarity(best_dot[t])};
  }
  return out;
}

std::vector<std::vector<Match>> PackedItemMemory::top_k_block(
    std::span<const PackedQuery> queries, std::size_t k) const {
  for (const PackedQuery& q : queries) require_query(q);
  const std::size_t nq = queries.size();
  std::vector<std::vector<Match>> out(nq);
  if (nq == 0 || k == 0) return out;  // k = 0: nothing to scan for
  if (layout_ != Layout::kBipolar) {
    for (std::size_t q = 0; q < nq; ++q) out[q] = top_k(queries[q], k);
    return out;
  }
  const std::size_t keep = std::min(k, size_);
  const BlockView view = make_block_view(queries);
  const auto orig_index = [&view](std::size_t slot) {
    return slot < view.bip_idx.size()
               ? view.bip_idx[slot]
               : view.ter_idx[slot - view.bip_idx.size()];
  };
  // Candidate lists pruned to `keep` by the canonical match_order after
  // every chunk: selection by a total order, so the survivors — and their
  // final sorted order — are identical to the single-query materialize +
  // partial_sort at any chunking or thread count.
  const auto prune = [keep](std::vector<Match>& cand) {
    if (cand.size() <= keep) return;
    std::partial_sort(cand.begin(),
                      cand.begin() + static_cast<std::ptrdiff_t>(keep),
                      cand.end(), match_order);
    cand.resize(keep);
  };
  const auto reduce_range = [this, &view, nq, &prune](
                                std::size_t range_begin, std::size_t range_end,
                                std::vector<std::vector<Match>>& cand) {
    std::vector<std::int64_t> scratch(
        nq * std::min<std::size_t>(kBlockChunkRows, range_end - range_begin));
    for (std::size_t begin = range_begin; begin < range_end;
         begin += kBlockChunkRows) {
      const std::size_t end = std::min(range_end, begin + kBlockChunkRows);
      const std::size_t count = end - begin;
      block_dots_range(view, begin, end, scratch.data());
      for (std::size_t t = 0; t < nq; ++t) {
        const std::int64_t* d = scratch.data() + t * count;
        for (std::size_t i = 0; i < count; ++i) {
          cand[t].push_back({begin + i, to_similarity(d[i])});
        }
        prune(cand[t]);
      }
    }
  };
  const std::size_t workers = scan_workers();
  std::vector<std::vector<Match>> cand(nq);
  if (workers <= 1) {
    reduce_range(0, size_, cand);
  } else {
    const RowBlocks blocks(size_, workers);
    std::vector<std::vector<std::vector<Match>>> wcand(
        blocks.count, std::vector<std::vector<Match>>(nq));
    util::parallel_for(blocks.count, workers, [&](std::size_t b) {
      reduce_range(blocks.begin(b), blocks.end(b), wcand[b]);
    });
    for (std::size_t s = 0; s < blocks.count; ++s) {
      for (std::size_t t = 0; t < nq; ++t) {
        cand[t].insert(cand[t].end(), wcand[s][t].begin(), wcand[s][t].end());
      }
    }
  }
  for (std::size_t t = 0; t < nq; ++t) {
    std::sort(cand[t].begin(), cand[t].end(), match_order);
    cand[t].resize(std::min(keep, cand[t].size()));
    out[orig_index(t)] = std::move(cand[t]);
  }
  return out;
}

void PackedItemMemory::dots_block(std::span<const PackedQuery> queries,
                                  std::span<std::int64_t> out) const {
  for (const PackedQuery& q : queries) require_query(q);
  const std::size_t nq = queries.size();
  if (out.size() != nq * size_) {
    throw std::invalid_argument(
        "PackedItemMemory::dots_block: output size mismatch");
  }
  if (nq == 0) return;
  if (layout_ != Layout::kBipolar) {
    for (std::size_t q = 0; q < nq; ++q) {
      compute_dots(queries[q], out.subspan(q * size_, size_));
    }
    return;
  }
  const BlockView view = make_block_view(queries);
  const bool uniform = view.bip.empty() || view.ter_nz.empty();
  const std::size_t workers = scan_workers();
  if (workers <= 1 && uniform) {
    // One alphabet in query order: the kernel's query-major layout with
    // count = size() is exactly `out` — no scratch, no copy.
    block_dots_range(view, 0, size_, out.data());
    return;
  }
  const auto orig_index = [&view](std::size_t slot) {
    return slot < view.bip_idx.size()
               ? view.bip_idx[slot]
               : view.ter_idx[slot - view.bip_idx.size()];
  };
  // Mixed alphabets or a threaded scan: per-range scratch in the kernel's
  // (slot, range) layout, copied out to each slot's query-order row span.
  const auto fill_range = [this, &view, nq, out, &orig_index](
                              std::size_t begin, std::size_t end) {
    const std::size_t count = end - begin;
    std::vector<std::int64_t> scratch(nq * count);
    block_dots_range(view, begin, end, scratch.data());
    for (std::size_t t = 0; t < nq; ++t) {
      std::copy_n(scratch.data() + t * count, count,
                  out.data() + orig_index(t) * size_ + begin);
    }
  };
  const RowBlocks blocks(size_, workers);
  util::parallel_for(blocks.count, workers, [&](std::size_t b) {
    fill_range(blocks.begin(b), blocks.end(b));
  });
}

Match PackedItemMemory::best(const Hypervector& query) const {
  return best(pack_query(query));
}

Match PackedItemMemory::best_among(const Hypervector& query,
                                   std::span<const std::size_t> indices) const {
  return best_among(pack_query(query), indices);
}

std::vector<Match> PackedItemMemory::above(const Hypervector& query,
                                           double threshold) const {
  return above(pack_query(query), threshold);
}

std::vector<Match> PackedItemMemory::above_among(
    const Hypervector& query, double threshold,
    std::span<const std::size_t> indices) const {
  return above_among(pack_query(query), threshold, indices);
}

std::vector<Match> PackedItemMemory::top_k(const Hypervector& query,
                                           std::size_t k) const {
  return top_k(pack_query(query), k);
}

void PackedItemMemory::dots(const Hypervector& query,
                            std::span<std::int64_t> out) const {
  dots(pack_query(query), out);
}

}  // namespace factorhd::hdc::kernels
