// FactorizationEngine: the asynchronous serving runtime over a Model.
//
//   submit(target, opts, done)                deadline = submit time
//   try_submit(target, opts, deadline, done[, placement])  never blocks
//        │
//        ▼
//   ResultCache probe ──hit──► done(result) inline on the caller
//        │ miss
//        ▼
//   kInPlaceIfIdle, single-object, estimate <= core::kBreakEvenNs,
//   max_delay_us == 0 and the queue empty ──► Factorizer::factorize on the
//        │ otherwise                     caller, cache insert, done(result)
//        ▼
//   bounded min-heap on (deadline, submit seq): earliest deadline first,
//        │  FIFO among equal deadlines. Full: submit() blocks or throws
//        │  (reject_when_full); try_submit() reports kQueueFull.
//        ▼
//   micro-batcher thread: an idle one dispatches at once and batches only
//        │  what has already queued (max_delay_us = 0, the default), up to
//        │  max_batch; groups by identical FactorizeOptions, coalesces
//        │  duplicate targets within the flight
//        ▼
//   core::BatchFactorizer::factorize_all  (fans out over the shared packed
//        │                                 scan planes when the work pays)
//        ▼
//   done(result) or done(error) + insert into ResultCache + record Metrics
//
// One completion path: every accepted request ends in exactly one call of
// its Completion — a cache hit or an in-place run inline on the submitting
// thread; a queued (computed, coalesced or failed) request on the batcher
// thread that ran its flight. Only a try_submit caller that asks for
// Placement::kInPlaceIfIdle (the net event loop, for the last frame it
// holds) can get an in-place run: while the system is idle, a cheap request
// is finished where it landed instead of paying two thread hops.
// The future-returning submit() is a thin wrapper that fulfills a promise
// from that callback.
//
// Correctness contract: every completion receives a FactorizeResult that is
// *bit-identical* to a direct Factorizer::factorize(target, opts) call —
// regardless of how requests were batched, how many worker threads ran,
// whether the result was coalesced with a duplicate in the same flight, or
// replayed from the cache. This holds because factorization is a pure
// function of (target, opts), BatchFactorizer is deterministic across
// thread counts (its documented contract), and the cache verifies full
// key equality before serving. tests/test_service_engine.cpp asserts it
// differentially.
//
// Shutdown: stop() (and the destructor) stops accepting new work, drains
// every queued request through the normal batch path, then joins the
// batcher thread — no completion is ever abandoned.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "core/factorizer.hpp"
#include "hdc/hypervector.hpp"
#include "service/metrics.hpp"
#include "service/model_registry.hpp"
#include "service/result_cache.hpp"
#include "service/trace.hpp"

namespace factorhd::service {

struct ServiceOptions {
  /// Largest flight one dispatcher takes from the queue at once.
  std::size_t max_batch = 64;
  /// 0: an idle dispatcher dispatches at once and batches only what has
  /// already queued. > 0: a partial flight waits for more requests until
  /// this long (us) after the submit of the request at the head of the
  /// queue (tests use it to hold requests in the queue deterministically).
  /// At low load a fixed wait only adds latency, so the default is 0
  /// (docs/TUNING.md).
  std::size_t max_delay_us = 0;
  /// Bounded request-queue capacity: the one depth bound between a caller
  /// (the net server included) and the batcher.
  std::size_t queue_capacity = 1024;
  /// When the queue is full: true → submit() throws QueueFullError;
  /// false → submit() blocks until space frees up. try_submit() never
  /// blocks, whatever this says.
  bool reject_when_full = false;
  /// Micro-batcher (queue-consumer) threads. 1 maximizes coalescing; more
  /// dispatchers overlap batch formation with computation when flights are
  /// small relative to the offered load. The queue is MPMC: any number of
  /// submitters and dispatchers. 0 = shard affinity: one dispatcher per
  /// shard of the model's widest scatter-gather partition
  /// (factorizer().shards(), >= 1), so an engine over a resharded model
  /// scales its dispatch width with the partition automatically.
  std::size_t dispatchers = 1;
  /// Worker threads of the internal BatchFactorizer; 0 = auto width
  /// (core::BatchFactorizer::width: fan out only when the work pays).
  std::size_t batch_threads = 0;
  /// ResultCache entry budget; 0 disables result caching.
  std::size_t cache_capacity = 4096;
  /// ResultCache shard count.
  std::size_t cache_shards = 8;
  /// Deterministic 1-in-N request tracing (0 = tracing off). Sampled
  /// requests get a full RequestTrace in the trace ring; the sampled id SET
  /// is a pure function of the request count, identical across dispatcher
  /// counts. Env default: FACTORHD_TRACE_SAMPLE.
  std::size_t trace_sample = 0;
  /// Trace-ring capacity (sampled traces retained). Env: FACTORHD_TRACE_RING.
  std::size_t trace_ring = 4096;
  /// Slow-query log threshold in us; 0 disables. When on, every computed
  /// request is timed stage-by-stage (even unsampled ones) so slow outliers
  /// always carry their breakdown. Env: FACTORHD_SLOW_QUERY_US.
  std::size_t slow_query_us = 0;
};

/// Thrown by submit() under reject_when_full backpressure.
class QueueFullError : public std::runtime_error {
 public:
  QueueFullError()
      : std::runtime_error(
            "FactorizationEngine: request queue full (backpressure)") {}
};

/// Thrown by submit() once stop() has begun: the engine's lifecycle state —
/// not the caller's arguments — rejected the request, so it is a runtime
/// error like QueueFullError, and callers can catch the two uniformly as
/// "not accepted right now" without also swallowing genuine usage bugs.
class EngineStoppedError : public std::runtime_error {
 public:
  explicit EngineStoppedError(const char* detail)
      : std::runtime_error(std::string("FactorizationEngine::submit: ") +
                           detail) {}
};

/// Called exactly once per accepted request. On success `error` is null and
/// `result` is the answer; when the request's computation failed, `error`
/// holds the exception and `result` is empty. It runs on the submitting
/// thread for a cache hit or an in-place run (try_submit with
/// Placement::kInPlaceIfIdle) and on a batcher thread otherwise, with no
/// engine lock held. It must not throw (a throw terminates the process) and
/// should not block: a batcher thread completes its whole flight before
/// taking more.
using Completion = std::function<void(std::exception_ptr error,
                                      const core::FactorizeResult& result)>;

/// Where try_submit() may compute a request the cache cannot answer.
enum class Placement : std::uint8_t {
  kQueue,  ///< always through the queue and a batcher thread
  /// On the calling thread, before try_submit returns, when the request is
  /// single-object, estimated at or under core::kBreakEvenNs, the engine
  /// has max_delay_us == 0 and its queue is empty (so no queued earlier
  /// deadline is overtaken); through the queue otherwise.
  kInPlaceIfIdle,
};

/// try_submit() outcome. Only kAccepted leads to a Completion call.
enum class SubmitStatus : std::uint8_t {
  kAccepted,   ///< queued, or answered (cache hit, in-place run) before
               ///< returning
  kQueueFull,  ///< the queue holds queue_capacity requests
  kStopped,    ///< stop() has begun
};

/// Asynchronous factorization server over one immutable Model.
///
/// \par Contract (bit-identical serving)
/// Every completion (and every future returned by submit()) carries a
/// core::FactorizeResult that is bit-identical (doubles included) to a direct
/// `Factorizer::factorize(target, opts)` call on the same Model —
/// regardless of batch composition, dispatcher/worker thread counts,
/// duplicate coalescing, cache state, or whether it ran in place. The
/// guarantee composes from three facts: factorization is a pure function of
/// `(target, opts)` (every codebook scan is exact and deterministic),
/// BatchFactorizer is deterministic across thread counts, and the
/// ResultCache verifies full key equality before serving (collision ⇒
/// miss; see service/result_cache.hpp). Asserted
/// differentially by tests/test_service_engine.cpp and under
/// ThreadSanitizer by tests/test_service_soak.cpp.
class FactorizationEngine {
 public:
  /// \param model Model to serve; shared (and kept alive) by the engine.
  /// \param opts Batching, backpressure, and cache configuration.
  ///   `dispatchers == 0` resolves to the model's shard count (>= 1); the
  ///   resolved value is visible through options().
  /// \throws std::invalid_argument When `model` is null or max_batch /
  ///   queue_capacity is 0.
  explicit FactorizationEngine(std::shared_ptr<const Model> model,
                               ServiceOptions opts = {});

  /// Stops and drains (see stop()).
  ~FactorizationEngine();

  FactorizationEngine(const FactorizationEngine&) = delete;
  FactorizationEngine& operator=(const FactorizationEngine&) = delete;

  /// Submits one factorization request, queued in submit order (its
  /// deadline is the submit time).
  /// \param target Encoded target HV of the model's dimension.
  /// \param opts Per-request factorization options; requests batch together
  ///   only with identical options.
  /// \param done Called exactly once with the outcome (see Completion); on
  ///   a cache hit before submit() returns. Never called when submit()
  ///   throws.
  /// \throws std::invalid_argument On a dimension mismatch.
  /// \throws EngineStoppedError After stop() has begun — including when
  ///   stop() lands while the caller is blocked on backpressure (the
  ///   request was never enqueued and will never complete).
  /// \throws QueueFullError When the queue is full and reject_when_full.
  void submit(hdc::Hypervector target, core::FactorizeOptions opts,
              Completion done);

  /// Non-blocking submit for an event loop: never waits for queue space,
  /// whatever reject_when_full says, and queues the request by `deadline`
  /// (earliest first, FIFO among equal deadlines) rather than by its submit
  /// time. A cache hit completes inline before the call returns, and so
  /// does an in-place run (see Placement).
  /// \param placement kInPlaceIfIdle lets a cheap request run on this
  ///   thread while the engine is idle. Ask for it only where running one
  ///   request's factorization inline is acceptable, and only for the last
  ///   request the caller holds: every earlier one should queue, so bursts
  ///   still batch.
  /// \return kAccepted when `done` has run or will run exactly once; any
  ///   other status means `done` is never called.
  /// \throws std::invalid_argument On a dimension mismatch.
  [[nodiscard]] SubmitStatus try_submit(
      hdc::Hypervector target, core::FactorizeOptions opts,
      std::chrono::steady_clock::time_point deadline, Completion done,
      Placement placement = Placement::kQueue);

  /// submit() with a future instead of a callback: the promise is fulfilled
  /// from the Completion. Same throws.
  /// \return Future for the result (already ready on a cache hit).
  [[nodiscard]] std::future<core::FactorizeResult> submit(
      hdc::Hypervector target, core::FactorizeOptions opts = {});

  /// Stops accepting new submissions, drains every queued request through
  /// the batch path, and joins the batcher thread. Idempotent; called by
  /// the destructor. After stop(), every accepted request's Completion has
  /// run (so every future obtained from submit() is ready), except that a
  /// submit call still running on another thread (a cache hit or an
  /// in-place run) completes on that thread before the call returns.
  void stop();

  /// \return Counter snapshot, safe to call at any time while serving.
  ///   Includes the per-stage latency digests and (for sharded models) the
  ///   per-shard rows-scanned counters.
  [[nodiscard]] MetricsSnapshot metrics() const;

  /// One dispatcher's view for the `stats` per-dispatcher breakdown.
  struct DispatcherStats {
    MetricsSnapshot metrics;   ///< this dispatcher's compute-side counters
    std::size_t inflight = 0;  ///< requests popped but not yet completed
  };
  /// \return Per-dispatcher compute-side snapshots (batches dispatched, max
  ///   batch high-water, in-flight depth), index-aligned with the pool.
  [[nodiscard]] std::vector<DispatcherStats> dispatcher_stats() const;

  /// The engine's trace ring (occupancy / drop counters, config).
  [[nodiscard]] const TraceRing& trace_ring() const noexcept {
    return trace_ring_;
  }
  /// Snapshot of the retained sampled traces, request-id ascending. Feed to
  /// chrome_trace_json() for a Perfetto-loadable dump.
  [[nodiscard]] std::vector<RequestTrace> trace_samples() const {
    return trace_ring_.collect();
  }
  /// The engine's slow-query log (emitted / suppressed counters).
  [[nodiscard]] const SlowQueryLog& slow_query_log() const noexcept {
    return slow_log_;
  }

  [[nodiscard]] const Model& model() const noexcept { return *model_; }
  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return opts_;
  }
  /// \return Pending (queued, not yet dispatched) request count.
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  struct Request {
    hdc::Hypervector target;
    core::FactorizeOptions opts;
    std::uint64_t key = 0;  ///< request_key(target, opts)
    Completion done;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point cache_done;  ///< cache probe done
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point dequeued;
    std::uint64_t trace_id = 0;  ///< global submit-order id (when observing)
    bool traced = false;         ///< in the deterministic sample set
    /// Queue key: (deadline, seq), earliest first; seq breaks ties FIFO.
    std::chrono::steady_clock::time_point deadline;
    std::uint64_t seq = 0;
  };
  /// Heap order for the std heap algorithms (a max-heap on this relation):
  /// true when `a` dispatches after `b`.
  [[nodiscard]] static bool later(const Request& a,
                                  const Request& b) noexcept {
    return a.deadline != b.deadline ? a.deadline > b.deadline : a.seq > b.seq;
  }

  /// One dispatcher's mutable state (unique_ptr-held: address-stable
  /// atomics). Compute-side metrics are uncontended on the dispatch path;
  /// inflight is the popped-but-not-completed gauge for `stats`.
  struct DispatcherState {
    Metrics metrics;
    std::atomic<std::size_t> inflight{0};
  };

  /// The one submit path: cache probe, then an in-place run (see
  /// Placement) or a heap push keyed by `deadline`. `block` waits for queue
  /// space instead of reporting full.
  SubmitStatus enqueue(hdc::Hypervector target, core::FactorizeOptions opts,
                       std::chrono::steady_clock::time_point deadline,
                       Completion done, bool block, Placement placement);
  /// Computes one request on the calling thread, with the bookkeeping of
  /// the batcher path (cache insert, one completion, metrics, trace).
  void run_in_place(Request& r);
  /// Feeds the slow-query log and, when sampled, the trace ring with one
  /// computed request's trace.
  void observe(const Request& r,
               std::chrono::steady_clock::time_point scan_start,
               std::chrono::steady_clock::time_point scan_end,
               std::chrono::steady_clock::time_point done,
               const core::FactorizeResult& result, std::uint32_t dispatcher,
               std::uint32_t batch_size, bool in_place);
  void batcher_loop(DispatcherState& state, std::uint32_t index);
  /// Collects one flight from the queue (respecting max_batch/max_delay_us).
  /// Returns an empty vector when stopping and the queue is drained.
  [[nodiscard]] std::vector<Request> next_flight();
  /// Factorizes one flight: groups by options, coalesces duplicates,
  /// dispatches BatchFactorizer, runs completions, feeds cache + the
  /// calling dispatcher's metrics set + per-stage latencies + traces.
  void run_flight(std::vector<Request> flight, DispatcherState& state,
                  std::uint32_t index);

  std::shared_ptr<const Model> model_;
  ServiceOptions opts_;
  core::BatchFactorizer batcher_;  ///< views model_->factorizer()
  ResultCache cache_;
  /// Submit-side counters (submitted / rejected / cache hit+miss, the
  /// cache-lookup stage, and the cache-hit completions recorded on the
  /// submit thread). Compute-side events go to the owning dispatcher's set
  /// in dispatchers_; metrics() merges dispatcher sets first and this set
  /// last, so each event is aggregated exactly once and
  /// completed <= submitted holds in live snapshots.
  Metrics metrics_;
  /// Per-dispatcher state (unique_ptr: holds atomics, address-stable).
  std::vector<std::unique_ptr<DispatcherState>> dispatchers_;
  /// Sampled-trace ring; also owns the global request-id sequence and the
  /// steady-clock origin all trace timestamps are relative to.
  TraceRing trace_ring_;
  /// Rate-limited slow-query JSONL (stderr by default).
  SlowQueryLog slow_log_;

  mutable std::mutex mu_;
  std::condition_variable queue_ready_;  ///< signalled on enqueue and stop
  std::condition_variable queue_space_;  ///< signalled on dequeue
  std::vector<Request> queue_;  ///< heap ordered by later()
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;

  std::mutex join_mu_;  ///< serializes concurrent stop() joins
  /// Dispatcher pool; last member: joins before any state tears down.
  std::vector<std::thread> batcher_threads_;
};

}  // namespace factorhd::service
