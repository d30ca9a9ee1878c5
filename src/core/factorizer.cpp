#include "core/factorizer.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/threshold.hpp"
#include "hdc/ops.hpp"
#include "hdc/similarity.hpp"

namespace factorhd::core {

tax::Object FactorizedObject::to_object(std::size_t num_classes) const {
  tax::Object obj(num_classes);
  for (const auto& cf : classes) {
    if (cf.present) obj.set_path(cf.cls, cf.path);
  }
  return obj;
}

Factorizer::Factorizer(const Encoder& encoder, hdc::ScanBackend backend,
                       std::optional<hdc::kernels::ShardedConfig> sharded)
    : encoder_(&encoder), books_(&encoder.books()) {
  const tax::Taxonomy& t = books_->taxonomy();
  memories_.resize(t.num_classes());
  for (std::size_t c = 0; c < t.num_classes(); ++c) {
    memories_[c].reserve(t.depth(c));
    for (std::size_t l = 1; l <= t.depth(c); ++l) {
      memories_[c].emplace_back(books_->level_codebook(c, l), backend,
                                sharded);
    }
  }
}

hdc::ScanBackend Factorizer::scan_backend() const noexcept {
  bool any_sharded = false;
  bool any = false;
  for (const auto& per_class : memories_) {
    for (const hdc::ItemMemory& m : per_class) {
      any = true;
      switch (m.backend()) {
        case hdc::ScanBackend::kSharded:
          any_sharded = true;
          break;
        case hdc::ScanBackend::kPacked:
          break;
        default:
          return hdc::ScanBackend::kScalar;
      }
    }
  }
  if (!any) return hdc::ScanBackend::kScalar;
  return any_sharded ? hdc::ScanBackend::kSharded : hdc::ScanBackend::kPacked;
}

std::size_t Factorizer::shards() const noexcept {
  std::size_t shards = 1;
  for (const auto& per_class : memories_) {
    for (const hdc::ItemMemory& m : per_class) {
      if (m.sharded() != nullptr) {
        shards = std::max(shards, m.sharded()->shards());
      }
    }
  }
  return shards;
}

std::vector<std::uint64_t> Factorizer::shard_rows_scanned() const {
  std::vector<std::uint64_t> out;
  for (const auto& per_class : memories_) {
    for (const hdc::ItemMemory& m : per_class) {
      const auto* sh = m.sharded();
      if (sh == nullptr) continue;
      const std::vector<std::uint64_t> counts = sh->shard_rows_scanned();
      if (counts.size() > out.size()) out.resize(counts.size(), 0);
      for (std::size_t s = 0; s < counts.size(); ++s) out[s] += counts[s];
    }
  }
  return out;
}

std::optional<hdc::kernels::SimdLevel> Factorizer::simd_level() const noexcept {
  // All memories are built with the same ScanBackend, but under kAuto a
  // non-packable codebook can leave individual memories scalar — report the
  // tier of the first memory that actually packed, nullopt when none did.
  for (const auto& per_class : memories_) {
    for (const hdc::ItemMemory& m : per_class) {
      if (const auto level = m.simd_level()) return level;
    }
  }
  return std::nullopt;
}

std::vector<std::size_t> Factorizer::resolve_classes(
    const FactorizeOptions& opts) const {
  const std::size_t f = books_->taxonomy().num_classes();
  if (opts.selected_classes.empty()) {
    std::vector<std::size_t> all(f);
    std::iota(all.begin(), all.end(), std::size_t{0});
    return all;
  }
  for (std::size_t c : opts.selected_classes) {
    if (c >= f) {
      throw std::invalid_argument("Factorizer: selected class out of range");
    }
  }
  return opts.selected_classes;
}

std::size_t Factorizer::resolve_depth(const FactorizeOptions& opts) const {
  const std::size_t d = books_->taxonomy().max_depth();
  if (opts.max_depth == 0) return d;
  return std::min(opts.max_depth, d);
}

double Factorizer::effective_threshold(const FactorizeOptions& opts) const {
  if (opts.threshold > 0.0) return opts.threshold;
  ThresholdProblem p;
  p.num_objects = opts.num_objects_hint;
  p.num_classes = books_->taxonomy().num_classes();
  p.dim = books_->dim();
  p.codebook_size = books_->taxonomy().max_level1_size();
  return predicted_threshold(p);
}

std::uint64_t Factorizer::estimate_ns(const FactorizeOptions& opts) const {
  if (opts.multi_object) return std::numeric_limits<std::uint64_t>::max();
  // Fitted coefficients (see the header): per class, per dimension of the
  // unbind plus the first query pack, per dimension of each deeper level's
  // pack, per scanned row and per scanned plane word, and per dimension of
  // a row scanned on the scalar backend.
  constexpr double kClassNs = 300.0;
  constexpr double kDimNs = 0.7;
  constexpr double kLevelDimNs = 0.15;
  constexpr double kRowNs = 5.0;
  constexpr double kWordNs = 0.35;
  constexpr double kScalarDimNs = 0.75;
  const tax::Taxonomy& t = books_->taxonomy();
  const double dim = static_cast<double>(books_->dim());
  const double packed_row_ns =
      kRowNs + kWordNs * static_cast<double>((books_->dim() + 63) / 64);
  const std::size_t depth = resolve_depth(opts);
  double ns = 0.0;
  const auto add_class = [&](std::size_t cls) {
    if (cls >= t.num_classes()) return;
    const std::size_t levels = std::min(depth, t.depth(cls));
    ns += kClassNs + dim * (kDimNs + kLevelDimNs * static_cast<double>(levels));
    for (std::size_t l = 0; l < levels; ++l) {
      const double row_ns =
          memories_[cls][l].backend() == hdc::ScanBackend::kScalar
              ? kScalarDimNs * dim
              : packed_row_ns;
      ns += row_ns * static_cast<double>(t.branching(cls)[l]);
    }
  };
  if (opts.selected_classes.empty()) {
    for (std::size_t c = 0; c < t.num_classes(); ++c) add_class(c);
  } else {
    for (std::size_t c : opts.selected_classes) add_class(c);
  }
  return static_cast<std::uint64_t>(ns);
}

ClassFactorization Factorizer::factorize_class_single(
    const hdc::Hypervector& unbound, std::size_t cls, std::size_t depth,
    std::uint64_t& sim_ops) const {
  ClassFactorization cf;
  cf.cls = cls;
  cf.null_similarity = hdc::similarity(unbound, books_->null_hv());
  ++sim_ops;

  std::uint64_t scanned = 0;
  const hdc::Match top = memories_[cls][0].best(unbound, &scanned);
  sim_ops += scanned;
  descend_class_single(unbound, cls, depth, top, cf, sim_ops);
  return cf;
}

void Factorizer::descend_class_single(const hdc::Hypervector& unbound,
                                      std::size_t cls, std::size_t depth,
                                      const hdc::Match& top,
                                      ClassFactorization& cf,
                                      std::uint64_t& sim_ops) const {
  if (cf.null_similarity > top.similarity) {
    cf.present = false;  // the class is not part of the object
    return;
  }
  cf.present = true;
  cf.path.push_back(top.index);
  cf.level_similarities.push_back(top.similarity);

  const tax::Taxonomy& t = books_->taxonomy();
  const std::size_t class_depth = std::min(depth, t.depth(cls));
  for (std::size_t l = 2; l <= class_depth; ++l) {
    // Restrict the level-l search to children of the level-(l-1) item: the
    // hierarchy is known a priori, so only branching[l-1] similarities are
    // needed instead of level_size(l).
    const std::vector<std::size_t> kids =
        t.children_of(cls, l - 1, cf.path.back());
    const hdc::Match m = memories_[cls][l - 1].best_among(unbound, kids);
    sim_ops += kids.size();
    cf.path.push_back(m.index);
    cf.level_similarities.push_back(m.similarity);
  }
}

std::vector<FactorizeResult> Factorizer::factorize_block(
    std::span<const hdc::Hypervector> targets,
    const FactorizeOptions& opts) const {
  std::vector<FactorizeResult> results(targets.size());
  if (targets.empty()) return results;
  if (opts.multi_object) {
    // The residual subtract-and-repeat loop is sequential per target;
    // nothing to block across.
    for (std::size_t i = 0; i < targets.size(); ++i) {
      results[i] = factorize(targets[i], opts);
    }
    return results;
  }
  for (const hdc::Hypervector& target : targets) {
    if (target.dim() != books_->dim()) {
      throw std::invalid_argument("Factorizer: target dimension mismatch");
    }
  }
  const std::vector<std::size_t> report_classes = resolve_classes(opts);
  const std::size_t report_depth = resolve_depth(opts);

  for (FactorizeResult& r : results) {
    r.objects.emplace_back();
    r.objects.front().classes.reserve(report_classes.size());
  }

  // Class-outer, target-inner: every target's class-cls unbinding is scanned
  // against the class's level-1 codebook in one blocked pass, so the planes
  // stream from memory once per batch. Deeper levels are per-target
  // restricted best_among searches (a handful of rows each). sim_ops sums
  // the exact same per-call counts as factorize, just in class-major order.
  std::vector<hdc::Hypervector> unbound;
  unbound.reserve(targets.size());
  std::vector<std::uint64_t> scanned(targets.size());
  for (std::size_t cls : report_classes) {
    unbound.clear();
    for (const hdc::Hypervector& target : targets) {
      unbound.push_back(hdc::bind(target, books_->other_labels_key(cls)));
    }
    const std::vector<hdc::Match> tops =
        memories_[cls][0].best_block(unbound, scanned.data());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      ClassFactorization cf;
      cf.cls = cls;
      cf.null_similarity = hdc::similarity(unbound[i], books_->null_hv());
      results[i].similarity_ops += 1 + scanned[i];
      descend_class_single(unbound[i], cls, report_depth, tops[i], cf,
                           results[i].similarity_ops);
      results[i].objects.front().classes.push_back(std::move(cf));
    }
  }
  return results;
}

Factorizer::ClassCandidates Factorizer::collect_candidates(
    const hdc::Hypervector& unbound, std::size_t cls, std::size_t depth,
    double th, std::size_t max_paths, std::uint64_t& sim_ops) const {
  ClassCandidates out;
  out.null_similarity = hdc::similarity(unbound, books_->null_hv());
  ++sim_ops;
  out.null_candidate = out.null_similarity > th;

  std::uint64_t scanned = 0;
  std::vector<hdc::Match> level1 =
      memories_[cls][0].above(unbound, th, &scanned);
  sim_ops += scanned;
  if (level1.size() > max_paths) level1.resize(max_paths);

  std::vector<CandidatePath> frontier;
  frontier.reserve(level1.size());
  for (const hdc::Match& m : level1) {
    frontier.push_back({{m.index}, {m.similarity}});
  }

  const tax::Taxonomy& t = books_->taxonomy();
  const std::size_t class_depth = std::min(depth, t.depth(cls));
  for (std::size_t l = 2; l <= class_depth && !frontier.empty(); ++l) {
    std::vector<CandidatePath> next;
    for (const CandidatePath& cp : frontier) {
      const std::vector<std::size_t> kids =
          t.children_of(cls, l - 1, cp.path.back());
      const std::vector<hdc::Match> ms =
          memories_[cls][l - 1].above_among(unbound, th, kids);
      sim_ops += kids.size();
      for (const hdc::Match& m : ms) {
        CandidatePath ext = cp;
        ext.path.push_back(m.index);
        ext.level_similarities.push_back(m.similarity);
        next.push_back(std::move(ext));
      }
    }
    // Keep the strongest paths (by their deepest-level similarity) when the
    // frontier outgrows the cap.
    if (next.size() > max_paths) {
      std::sort(next.begin(), next.end(),
                [](const CandidatePath& a, const CandidatePath& b) {
                  return a.level_similarities.back() >
                         b.level_similarities.back();
                });
      next.resize(max_paths);
    }
    frontier = std::move(next);
  }
  out.paths = std::move(frontier);
  return out;
}

FactorizeResult Factorizer::factorize(const hdc::Hypervector& target,
                                      const FactorizeOptions& opts) const {
  if (target.dim() != books_->dim()) {
    throw std::invalid_argument("Factorizer: target dimension mismatch");
  }
  FactorizeResult result;
  const std::vector<std::size_t> report_classes = resolve_classes(opts);
  const std::size_t report_depth = resolve_depth(opts);

  if (!opts.multi_object) {
    FactorizedObject obj;
    obj.classes.reserve(report_classes.size());
    for (std::size_t cls : report_classes) {
      const hdc::Hypervector unbound =
          hdc::bind(target, books_->other_labels_key(cls));
      obj.classes.push_back(factorize_class_single(unbound, cls, report_depth,
                                                   result.similarity_ops));
    }
    result.objects.push_back(std::move(obj));
    return result;
  }

  // Multi-object mode factorizes all classes at full depth internally —
  // reconstruction-and-subtraction needs complete objects — and truncates
  // the report to the requested classes/depth at the end.
  const tax::Taxonomy& t = books_->taxonomy();
  const std::size_t full_depth = t.max_depth();
  const double th = effective_threshold(opts);

  hdc::Hypervector residual = target;
  result.converged = false;
  for (std::size_t round = 0; round < opts.max_objects; ++round) {
    ++result.rounds;
    RoundTrace round_trace;
    // Per-class thresholded candidate enumeration on the current residual.
    std::vector<ClassCandidates> cands;
    cands.reserve(t.num_classes());
    bool feasible = true;
    for (std::size_t cls = 0; cls < t.num_classes(); ++cls) {
      const hdc::Hypervector unbound =
          hdc::bind(residual, books_->other_labels_key(cls));
      ClassCandidates cc =
          collect_candidates(unbound, cls, full_depth, th,
                             opts.max_candidates_per_class,
                             result.similarity_ops);
      if (opts.collect_trace) {
        round_trace.candidates_per_class.push_back(cc.paths.size());
        round_trace.null_candidates += cc.null_candidate ? 1 : 0;
      }
      if (cc.paths.empty() && !cc.null_candidate) {
        feasible = false;  // some class has no evidence left above TH
        break;
      }
      cands.push_back(std::move(cc));
    }

    // Combination search: odometer over per-class options (each candidate
    // path, plus NULL where it passed TH). Keep the combination whose
    // re-encoding matches the residual best.
    double best_sim = th;  // acceptance requires similarity > TH
    std::optional<tax::Object> best_object;
    if (feasible) {
      std::vector<std::size_t> option_count(t.num_classes());
      for (std::size_t c = 0; c < t.num_classes(); ++c) {
        option_count[c] =
            cands[c].paths.size() + (cands[c].null_candidate ? 1 : 0);
      }

      std::vector<std::size_t> odo(t.num_classes(), 0);
      bool more = true;
      while (more) {
        tax::Object combo(t.num_classes());
        bool all_absent = true;
        for (std::size_t c = 0; c < t.num_classes(); ++c) {
          if (odo[c] < cands[c].paths.size()) {
            combo.set_path(c, cands[c].paths[odo[c]].path);
            all_absent = false;
          }
          // else: NULL option — class left absent.
        }
        if (!all_absent) {
          const hdc::Hypervector combo_hv = encoder_->encode_object(combo);
          const double s = hdc::similarity(residual, combo_hv);
          ++result.combinations_checked;
          if (opts.collect_trace) {
            ++round_trace.combinations;
            round_trace.best_similarity =
                std::max(round_trace.best_similarity, s);
          }
          if (s > best_sim) {
            best_sim = s;
            best_object = combo;
          }
        }
        // Advance the odometer.
        more = false;
        for (std::size_t c = 0; c < t.num_classes(); ++c) {
          if (++odo[c] < option_count[c]) {
            more = true;
            break;
          }
          odo[c] = 0;
        }
      }
    }

    if (!best_object) {
      if (opts.collect_trace) result.trace.push_back(std::move(round_trace));
      result.converged = true;  // nothing above TH: the residual is exhausted
      break;
    }
    if (opts.collect_trace) {
      round_trace.accepted = true;
      result.trace.push_back(std::move(round_trace));
    }

    // Record the accepted object, attaching the per-level similarities from
    // the candidate enumeration.
    FactorizedObject found;
    found.match_similarity = best_sim;
    for (std::size_t cls = 0; cls < t.num_classes(); ++cls) {
      ClassFactorization cf;
      cf.cls = cls;
      cf.null_similarity = cands[cls].null_similarity;
      if (best_object->has_class(cls)) {
        cf.present = true;
        cf.path = best_object->path(cls);
        for (const CandidatePath& cp : cands[cls].paths) {
          if (cp.path == cf.path) {
            cf.level_similarities = cp.level_similarities;
            break;
          }
        }
      }
      found.classes.push_back(std::move(cf));
    }

    // Exclude the reconstructed object and continue on the new residual.
    hdc::subtract(residual, encoder_->encode_object(*best_object));
    result.objects.push_back(std::move(found));
  }

  // Truncate the report to the requested classes and depth.
  if (!opts.selected_classes.empty() || report_depth < full_depth) {
    for (FactorizedObject& obj : result.objects) {
      std::vector<ClassFactorization> kept;
      for (ClassFactorization& cf : obj.classes) {
        if (std::find(report_classes.begin(), report_classes.end(), cf.cls) ==
            report_classes.end()) {
          continue;
        }
        if (cf.path.size() > report_depth) {
          cf.path.resize(report_depth);
          cf.level_similarities.resize(report_depth);
        }
        kept.push_back(std::move(cf));
      }
      obj.classes = std::move(kept);
    }
  }
  return result;
}

FactorizedObject Factorizer::factorize_single(
    const hdc::Hypervector& target) const {
  FactorizeResult r = factorize(target, FactorizeOptions{});
  return std::move(r.objects.at(0));
}

}  // namespace factorhd::core
