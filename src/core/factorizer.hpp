// FactorHD factorization (the paper's Algorithm 1 and Fig. 2).
//
// Given a target HV encoded by core::Encoder, recover the symbolic content:
//
//  * Single object (Rep 1 / Rep 2): for each selected class, bind the target
//    with the product of all *other* class labels — every unselected clause
//    collapses to ≈ identity, leaving the selected clause plus noise — then
//    one similarity pass over the class's level-1 codebook identifies the
//    subclass item (argmax, or NULL when the null HV wins). Deeper levels
//    are resolved top-down, restricting each search to the children of the
//    parent already factorized, which is what makes the cost O(N_M) rather
//    than O(M^F).
//
//  * Multiple objects (Rep 3): per class, *all* items with similarity above
//    the threshold TH are kept as candidates (avoiding the superposition
//    catastrophe of committing to one argmax). Candidate paths are grown
//    level by level under the same TH rule, then combined across classes;
//    the combination whose re-encoding is most similar to the residual (and
//    above TH) is declared an object, reconstructed, subtracted from the
//    residual, and the loop repeats until nothing passes TH. Working on the
//    residual keeps duplicate objects countable ("the problem of 2").
//
// Partial factorization — the paper's "only a subset of subclasses are of
// interest" — is supported through FactorizeOptions::selected_classes and
// max_depth; unselected classes are never searched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/encoder.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/item_memory.hpp"
#include "taxonomy/codebooks.hpp"
#include "taxonomy/object.hpp"

namespace factorhd::core {

struct FactorizeOptions {
  /// Use the thresholded multi-object algorithm (Rep 3). When false the
  /// single-object argmax path (Rep 1/2) runs.
  bool multi_object = false;

  /// Threshold similarity TH for multi-object factorization. Values <= 0
  /// select the Eq. 2 prediction using `num_objects_hint`.
  double threshold = 0.0;

  /// N used by the Eq. 2 prediction when `threshold` <= 0. The algorithm
  /// itself never needs the true object count.
  std::size_t num_objects_hint = 2;

  /// Upper bound on objects extracted from a multi-object target.
  std::size_t max_objects = 16;

  /// Classes to factorize; empty means all classes. (Partial factorization.)
  std::vector<std::size_t> selected_classes;

  /// Deepest subclass level to resolve; 0 means the full taxonomy depth.
  std::size_t max_depth = 0;

  /// Cap on per-class candidate paths retained in multi-object mode, keeping
  /// the combination search bounded under adversarial thresholds.
  std::size_t max_candidates_per_class = 8;

  /// Record per-round diagnostics (multi-object mode) in
  /// FactorizeResult::trace — candidate counts, combination statistics,
  /// acceptance decisions. Off by default (allocation-free hot path).
  bool collect_trace = false;

  /// Exact field-wise equality — the grouping relation of the serving
  /// layer's micro-batcher (requests batch together only under identical
  /// options) and part of its result-cache key.
  bool operator==(const FactorizeOptions&) const = default;
};

/// Diagnostics for one round of the multi-object loop (collect_trace).
struct RoundTrace {
  /// Thresholded candidate paths found per class (before the NULL option).
  std::vector<std::size_t> candidates_per_class;
  /// Classes whose NULL similarity passed TH this round.
  std::size_t null_candidates = 0;
  /// Combinations re-encoded and compared this round.
  std::size_t combinations = 0;
  /// Best combination similarity observed (0 when none were checked).
  double best_similarity = 0.0;
  /// True when the round accepted an object and subtracted it.
  bool accepted = false;

  bool operator==(const RoundTrace&) const = default;
};

/// Factorization outcome for one class of one object.
struct ClassFactorization {
  std::size_t cls = 0;
  /// False when the class was factorized as NULL (absent from the object).
  bool present = false;
  /// Item indices from level 1 down to the resolved depth (empty if absent).
  tax::Path path;
  /// Similarity measured when selecting each level's item (parallel to path).
  std::vector<double> level_similarities;
  /// Similarity of the unbound HV with the NULL hypervector.
  double null_similarity = 0.0;

  bool operator==(const ClassFactorization&) const = default;
};

struct FactorizedObject {
  std::vector<ClassFactorization> classes;
  /// Multi-object mode: similarity of the accepted combination's re-encoding
  /// with the residual at acceptance time. Unused (0) in single-object mode.
  double match_similarity = 0.0;

  /// Converts to a tax::Object over `num_classes` classes (unselected classes
  /// are left absent).
  [[nodiscard]] tax::Object to_object(std::size_t num_classes) const;

  bool operator==(const FactorizedObject&) const = default;
};

struct FactorizeResult {
  std::vector<FactorizedObject> objects;
  /// Codebook similarity measurements performed (the paper's efficiency unit).
  std::uint64_t similarity_ops = 0;
  /// Full-combination re-encode-and-compare checks performed (Rep 3 only).
  std::uint64_t combinations_checked = 0;
  /// True when the loop stopped because nothing above TH remained (rather
  /// than hitting max_objects).
  bool converged = true;
  /// Residual subtract-and-repeat rounds executed in multi-object mode. 0 in
  /// single-object mode.
  std::uint64_t rounds = 0;
  /// Per-round diagnostics; populated only when options.collect_trace.
  std::vector<RoundTrace> trace;

  /// Exact (bit-level, doubles included) equality — the relation in which
  /// the serving layer's differential tests state their "engine results are
  /// identical to direct factorize calls" guarantee.
  bool operator==(const FactorizeResult&) const = default;
};

/// The one break-even of "is this work worth another thread?", in
/// Factorizer::estimate_ns units. Spawning and joining one extra
/// util::parallel_for worker costs 32-35 us on a 4-core AVX-512 VM, so a
/// worker must take more work than that off its caller to pay; 50 us leaves
/// room for the estimate's error. Two callers use it: BatchFactorizer's
/// auto width gives each worker at least this much work, and the serving
/// engine runs a request in place on the submitting thread only when it
/// estimates at or under this much.
inline constexpr std::uint64_t kBreakEvenNs = 50'000;

class Factorizer {
 public:
  /// Non-owning view; `encoder` (and its codebooks) must outlive this.
  /// Builds one hdc::ItemMemory per (class, level) codebook on the requested
  /// scan backend; the default kAuto selects the packed word-plane kernels
  /// for the (bipolar) taxonomy codebooks, so single-object unbound queries
  /// (ternary/bipolar) run on XOR+popcount scans while integer residual
  /// queries of the multi-object loop fall back to scalar per call.
  /// \param encoder Encoder whose codebooks define the factorization problem.
  /// \param backend Scan-backend policy for every internal ItemMemory. The
  ///   forced hdc::ScanBackend::kPacked* values pin the packed kernels to
  ///   one SIMD tier (throwing when that tier is unavailable on this CPU) —
  ///   the knob the cross-backend differential tests run the whole
  ///   Algorithm 1 pipeline on. Every backend scans exactly at every
  ///   codebook size.
  /// \throws std::invalid_argument When `backend` is kPacked but a codebook
  ///   is not packable (never the case for generated taxonomy codebooks),
  ///   or when a forced kPacked* SIMD level is unavailable on this CPU.
  ///
  /// \param sharded Optional shard configuration threaded to every internal
  ///   ItemMemory (hdc::ScanBackend::kSharded semantics under kAuto: an
  ///   explicit config forces the scatter-gather partition; see
  ///   hdc::ItemMemory). Sharded scans are bit-identical to unsharded ones.
  explicit Factorizer(
      const Encoder& encoder,
      hdc::ScanBackend backend = hdc::ScanBackend::kAuto,
      std::optional<hdc::kernels::ShardedConfig> sharded = std::nullopt);

  /// \return The backend the codebook scans resolved to: kScalar when any
  ///   internal ItemMemory fell back to scalar, else kSharded when any
  ///   memory scatter-gathers across a shard partition, else kPacked.
  [[nodiscard]] hdc::ScanBackend scan_backend() const noexcept;

  /// \return The scatter-gather shard count of the largest internal memory
  ///   partition: 1 when unsharded — the count service::FactorizationEngine
  ///   sizes its auto dispatcher pool (per-shard affinity) from.
  [[nodiscard]] std::size_t shards() const noexcept;

  /// \return Cumulative similarity measurements charged to each shard index
  ///   since construction, summed over every sharded internal memory
  ///   (shard s of every class/level partition contributes to slot s) —
  ///   the hot-shard visibility surface service::Metrics exports. Empty
  ///   when no memory is sharded. Relaxed-atomic reads; safe while
  ///   concurrent factorizations are running.
  [[nodiscard]] std::vector<std::uint64_t> shard_rows_scanned() const;

  /// \return The SIMD tier the packed codebook scans execute at (identical
  ///   across all internal memories); std::nullopt when scans are scalar.
  [[nodiscard]] std::optional<hdc::kernels::SimdLevel> simd_level()
      const noexcept;

  /// Runs Algorithm 1 on `target` (an encoded object or scene).
  /// \param target Encoded object/scene HV of the codebooks' dimension.
  /// \param opts Mode, threshold, and partial-factorization options.
  /// \return Factorized objects plus cost counters and optional trace.
  /// \throws std::invalid_argument On target dimension mismatch or a
  ///   selected class index out of range.
  [[nodiscard]] FactorizeResult factorize(const hdc::Hypervector& target,
                                          const FactorizeOptions& opts = {}) const;

  /// Blocked batch variant of factorize(): one FactorizeResult per target,
  /// in input order, each bit-identical (objects, similarity_ops, every
  /// field) to the matching factorize(target, opts) call. Single-object
  /// batches restructure the loop class-by-class so each class's level-1
  /// codebook is scanned for the WHOLE batch in one blocked pass
  /// (hdc::ItemMemory::best_block, kernels::QueryBlockKernels underneath) —
  /// the codebook planes stream from memory once per batch instead of once
  /// per target, which is where large-codebook batches spend their time.
  /// Multi-object targets (whose residual loops are inherently sequential
  /// per target) run plain factorize() per target.
  /// \param targets Independent encoded targets.
  /// \param opts Options applied to every target.
  /// \return One result per target, in input order.
  /// \throws std::invalid_argument On any target dimension mismatch or a
  ///   selected class index out of range.
  [[nodiscard]] std::vector<FactorizeResult> factorize_block(
      std::span<const hdc::Hypervector> targets,
      const FactorizeOptions& opts = {}) const;

  /// Estimated single-thread time of factorize(target, opts) for one
  /// target, in ns, computed from the model's shape alone (never timed):
  /// per selected class a fixed cost, the unbind and the per-level query
  /// packs (proportional to D), and the rows each level scans (the full
  /// level-1 codebook, then one parent's children per deeper level), each
  /// row costing a fixed step plus its plane words (a D-long dot on the
  /// scalar backend). The coefficients were fitted to direct factorize()
  /// timings on a 4-core AVX-512 VM. On the packed scans they are within
  /// about 1.5x of them from 2 classes to 6, D = 64 to 8192 and 8 to 65536
  /// rows; on the scalar backend within 2x, erring high. At paper scale
  /// (3 classes, {32, 8}, D = 1024) it reads about 5 us packed and 97 us
  /// scalar.
  /// \param opts Options whose mode, selected_classes and max_depth are
  ///   priced; selected classes out of range cost nothing (factorize
  ///   rejects them at once).
  /// \return The estimate; UINT64_MAX for multi-object options, whose
  ///   residual loop runs until the data says stop (a cold Rep 3 scene at
  ///   paper scale takes about 1-7 ms, far above kBreakEvenNs).
  [[nodiscard]] std::uint64_t estimate_ns(const FactorizeOptions& opts) const;

  /// Convenience: single-object factorization of every class at full depth.
  /// \param target Encoded object HV.
  /// \return The single factorized object.
  /// \throws std::invalid_argument On target dimension mismatch.
  [[nodiscard]] FactorizedObject factorize_single(
      const hdc::Hypervector& target) const;

  /// The effective TH the given options resolve to (Eq. 2 when unset).
  /// \param opts Options whose threshold/num_objects_hint are consulted.
  /// \return opts.threshold when positive, else the Eq. 2 prediction.
  [[nodiscard]] double effective_threshold(const FactorizeOptions& opts) const;

 private:
  struct CandidatePath {
    tax::Path path;
    std::vector<double> level_similarities;
  };
  /// Candidate decomposition of one class in multi-object mode: threshold-
  /// selected paths plus optional NULL evidence.
  struct ClassCandidates {
    std::vector<CandidatePath> paths;
    bool null_candidate = false;
    double null_similarity = 0.0;
  };

  [[nodiscard]] std::vector<std::size_t> resolve_classes(
      const FactorizeOptions& opts) const;
  [[nodiscard]] std::size_t resolve_depth(const FactorizeOptions& opts) const;

  /// Single-object top-down argmax factorization of one class: a full
  /// level-1 scan, then restricted best_among searches below it.
  [[nodiscard]] ClassFactorization factorize_class_single(
      const hdc::Hypervector& unbound, std::size_t cls, std::size_t depth,
      std::uint64_t& sim_ops) const;

  /// Completes a single-object class factorization from its level-1 argmax
  /// `top` — the NULL-vs-top decision plus the restricted level 2..depth
  /// descent. Shared by factorize_class_single and factorize_block so the
  /// blocked path is bit-identical to the per-target one by construction;
  /// cf.cls and cf.null_similarity must already be set.
  void descend_class_single(const hdc::Hypervector& unbound, std::size_t cls,
                            std::size_t depth, const hdc::Match& top,
                            ClassFactorization& cf,
                            std::uint64_t& sim_ops) const;

  /// Multi-object thresholded candidate enumeration for one class.
  [[nodiscard]] ClassCandidates collect_candidates(
      const hdc::Hypervector& unbound, std::size_t cls, std::size_t depth,
      double th, std::size_t max_paths, std::uint64_t& sim_ops) const;

  const Encoder* encoder_;
  const tax::TaxonomyCodebooks* books_;
  /// Item memories per class per level: memories_[cls][level-1].
  std::vector<std::vector<hdc::ItemMemory>> memories_;
};

}  // namespace factorhd::core
