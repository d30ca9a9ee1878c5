// Request tracing: per-request stage spans, a lock-free sampling ring, and
// the Chrome trace-event / slow-query exporters.
//
// The serving pipeline (cache → queue → micro-batcher → scan → merge) had
// one observable signal — the end-to-end latency histogram — which cannot
// say WHERE a p99 went. This header adds the per-request view:
//
//   RequestTrace   one request's monotonic stage timestamps (submit, cache
//                  lookup, enqueue, dequeue, scan start/end, completion)
//                  plus the scan-side facts lifted from the result (rows
//                  scanned, shard fan-out, rounds).
//   TraceRing      a bounded lock-free ring the engine publishes sampled
//                  traces into. Writers are wait-free: a slot is claimed by
//                  CAS; losing a claim drops the record and counts it —
//                  recording never blocks, spins on, or synchronizes the
//                  serving hot path. Sampling is deterministic 1-in-N on
//                  the global request id (id % N == 0), so the SET of
//                  sampled ids is a pure function of the request count —
//                  identical across dispatcher/thread counts
//                  (tests/test_trace.cpp pins this).
//   chrome_trace_json   renders collected traces as Chrome trace-event JSON
//                  ("X" complete events, one per stage per request) loadable
//                  directly in Perfetto or chrome://tracing.
//   SlowQueryLog   rate-limited structured JSONL for requests whose e2e
//                  latency exceeds FACTORHD_SLOW_QUERY_US, carrying the full
//                  stage breakdown.
//
// Env knobs (see docs/TUNING.md): FACTORHD_TRACE_SAMPLE (1-in-N, 0 = off),
// FACTORHD_TRACE_RING (ring capacity), FACTORHD_SLOW_QUERY_US (0 = off).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace factorhd::service {

/// Observability configuration of a FactorizationEngine (the trace/slow-log
/// fields of ServiceOptions, resolvable from the env knobs).
struct TraceConfig {
  /// Deterministic 1-in-N request sampling; 0 disables tracing entirely.
  std::size_t sample_every = 0;
  /// Trace-ring slot count (sampled RequestTrace records retained).
  std::size_t ring_capacity = 4096;
  /// Slow-query log threshold in microseconds; 0 disables the log.
  std::size_t slow_query_us = 0;
};

/// TraceConfig filled from FACTORHD_TRACE_SAMPLE / FACTORHD_TRACE_RING /
/// FACTORHD_SLOW_QUERY_US. Read per call — not cached.
[[nodiscard]] TraceConfig trace_config_from_env();

/// One request's journey through the pipeline. Timestamps are steady-clock
/// nanoseconds relative to the owning TraceRing's origin; 0 marks a stage
/// the request never reached (cache hits skip the queue).
struct RequestTrace {
  std::uint64_t id = 0;          ///< global submit-order request id
  std::uint64_t submit_ns = 0;   ///< submit() entry
  std::uint64_t cache_done_ns = 0;  ///< ResultCache probe finished
  std::uint64_t enqueue_ns = 0;  ///< pushed into the request queue
  std::uint64_t dequeue_ns = 0;  ///< popped by a dispatcher (flight formed)
  std::uint64_t scan_start_ns = 0;  ///< batch handed to BatchFactorizer
  std::uint64_t scan_end_ns = 0;    ///< batch results returned
  std::uint64_t complete_ns = 0;    ///< completion run

  bool cache_hit = false;
  /// Computed on the submitting thread (no queue_wait / batch_assembly).
  bool in_place = false;
  std::uint32_t dispatcher = 0;  ///< dispatcher that ran the flight
  std::uint32_t batch_size = 0;  ///< requests in the options-group batch
  std::uint64_t shards = 0;      ///< scan shard fan-out of the model
  std::uint64_t rows_scanned = 0;   ///< FactorizeResult::similarity_ops
  std::uint64_t rounds = 0;         ///< FactorizeResult::rounds
};

/// Bounded lock-free ring of sampled RequestTrace records.
///
/// Writer protocol (record): claim the next slot round-robin, CAS its state
/// to kWriting, copy the payload, release to kFull. A failed CAS (the
/// reader, or a slower writer lapped by the ring, holds the slot) drops the
/// record and counts it in dropped() — wait-free, never blocking the
/// serving path. collect() snapshots every full slot without disturbing
/// concurrent writers (a slot mid-copy is skipped, not waited on).
class TraceRing {
 public:
  /// \param capacity Slot count; clamped to >= 1.
  /// \param sample_every 1-in-N deterministic sampling; 0 disables.
  explicit TraceRing(std::size_t capacity, std::size_t sample_every);

  [[nodiscard]] bool enabled() const noexcept { return sample_every_ != 0; }
  [[nodiscard]] std::size_t sample_every() const noexcept {
    return sample_every_;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// The steady-clock origin all RequestTrace timestamps are relative to.
  [[nodiscard]] std::chrono::steady_clock::time_point origin() const noexcept {
    return origin_;
  }
  /// Nanoseconds from the ring origin to `tp` (0 floor for pre-origin).
  [[nodiscard]] std::uint64_t since_origin_ns(
      std::chrono::steady_clock::time_point tp) const noexcept;

  /// Claims the next global request id (every request, sampled or not).
  [[nodiscard]] std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// True when request `id` is in the deterministic sample set.
  [[nodiscard]] bool sampled(std::uint64_t id) const noexcept {
    return sample_every_ != 0 && id % sample_every_ == 0;
  }

  /// Publishes one sampled trace (wait-free; may drop under contention).
  void record(const RequestTrace& trace) noexcept;

  /// Snapshot of every retained trace, sorted by request id ascending.
  [[nodiscard]] std::vector<RequestTrace> collect() const;

  /// \return Slots currently holding a trace (<= capacity()).
  [[nodiscard]] std::size_t occupancy() const noexcept;
  /// \return Records dropped because their slot was contended.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// \return Records successfully published since construction.
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return recorded_.load(std::memory_order_relaxed);
  }

 private:
  enum SlotState : std::uint8_t { kEmpty = 0, kWriting = 1, kFull = 2 };
  struct Slot {
    std::atomic<std::uint8_t> state{kEmpty};
    RequestTrace trace;
  };

  std::size_t capacity_;
  std::size_t sample_every_;
  std::chrono::steady_clock::time_point origin_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> recorded_{0};
};

/// Renders traces as a Chrome trace-event JSON document
/// ({"traceEvents": [...]}): per request, one "X" (complete) event per
/// pipeline stage the request went through — cache_lookup, queue_wait,
/// batch_assembly, scan, merge — plus an enclosing "request" span whose
/// args carry the scan-side facts. Timestamps are microseconds from the
/// ring origin; tid is the request id, so Perfetto lays each sampled
/// request out on its own track.
[[nodiscard]] std::string chrome_trace_json(
    std::span<const RequestTrace> traces);

/// Rate-limited structured slow-query log: one JSON object per line with
/// the full stage breakdown of a request whose end-to-end latency exceeded
/// the threshold. At most one line per min_interval_ms (default 100 ms) so
/// a latency storm cannot flood the sink; suppressed lines are counted.
class SlowQueryLog {
 public:
  /// \param threshold_us End-to-end latency bound; 0 disables the log.
  /// \param sink Destination stream (defaults to std::cerr); must outlive
  ///   this object. Writes are serialized internally.
  /// \param min_interval_ms Minimum spacing between emitted lines.
  explicit SlowQueryLog(std::size_t threshold_us, std::ostream* sink = nullptr,
                        std::size_t min_interval_ms = 100);

  [[nodiscard]] bool enabled() const noexcept { return threshold_us_ != 0; }
  [[nodiscard]] std::size_t threshold_us() const noexcept {
    return threshold_us_;
  }
  /// \return Lines actually written.
  [[nodiscard]] std::uint64_t emitted() const noexcept {
    return emitted_.load(std::memory_order_relaxed);
  }
  /// \return Slow requests suppressed by the rate limit.
  [[nodiscard]] std::uint64_t suppressed() const noexcept {
    return suppressed_.load(std::memory_order_relaxed);
  }

  /// Logs `trace` when its e2e latency exceeds the threshold and the rate
  /// limit admits a line; otherwise a no-op (wait-free on the common
  /// not-slow path).
  void observe(const RequestTrace& trace) noexcept;

  /// The JSONL payload observe() writes (exposed for tests/tools).
  [[nodiscard]] static std::string format(const RequestTrace& trace);

 private:
  std::size_t threshold_us_;
  std::int64_t min_interval_ns_;
  std::ostream* sink_;
  std::atomic<std::int64_t> last_emit_ns_{-1};
  std::atomic<std::uint64_t> emitted_{0};
  std::atomic<std::uint64_t> suppressed_{0};
};

}  // namespace factorhd::service
