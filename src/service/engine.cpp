#include "service/engine.hpp"

#include <algorithm>
#include <utility>

namespace factorhd::service {

namespace {

std::shared_ptr<const Model> require_model(std::shared_ptr<const Model> m) {
  if (!m) {
    throw std::invalid_argument("FactorizationEngine: null model");
  }
  return m;
}

double us_since(std::chrono::steady_clock::time_point start) noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double us_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) noexcept {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// The one place a Completion runs; noexcept enforces its no-throw contract.
void complete(const Completion& done, std::exception_ptr error,
              const core::FactorizeResult& result) noexcept {
  done(std::move(error), result);
}

}  // namespace

FactorizationEngine::FactorizationEngine(std::shared_ptr<const Model> model,
                                         ServiceOptions opts)
    : model_(require_model(std::move(model))),
      opts_(opts),
      batcher_(model_->factorizer(),
               core::BatchOptions{.num_threads = opts.batch_threads}),
      cache_(opts.cache_capacity, opts.cache_shards),
      trace_ring_(opts.trace_ring, opts.trace_sample),
      slow_log_(opts.slow_query_us) {
  if (opts_.max_batch == 0) {
    throw std::invalid_argument("FactorizationEngine: max_batch must be >= 1");
  }
  if (opts_.queue_capacity == 0) {
    throw std::invalid_argument(
        "FactorizationEngine: queue_capacity must be >= 1");
  }
  if (opts_.dispatchers == 0) {
    // Shard affinity: one dispatcher per shard of the model's widest
    // scatter-gather partition, so dispatch width follows a reshard
    // automatically. shards() >= 1, so this never resolves to 0.
    opts_.dispatchers = model_->factorizer().shards();
  }
  dispatchers_.reserve(opts_.dispatchers);
  batcher_threads_.reserve(opts_.dispatchers);
  for (std::size_t i = 0; i < opts_.dispatchers; ++i) {
    dispatchers_.push_back(std::make_unique<DispatcherState>());
    DispatcherState& st = *dispatchers_.back();
    const auto index = static_cast<std::uint32_t>(i);
    batcher_threads_.emplace_back(
        [this, &st, index] { batcher_loop(st, index); });
  }
}

FactorizationEngine::~FactorizationEngine() { stop(); }

std::future<core::FactorizeResult> FactorizationEngine::submit(
    hdc::Hypervector target, core::FactorizeOptions opts) {
  // std::function needs a copyable callable, so the promise is shared.
  auto promise = std::make_shared<std::promise<core::FactorizeResult>>();
  auto fut = promise->get_future();
  submit(std::move(target), std::move(opts),
         [promise](std::exception_ptr error,
                   const core::FactorizeResult& result) {
           if (error) {
             promise->set_exception(std::move(error));
           } else {
             promise->set_value(result);
           }
         });
  return fut;
}

void FactorizationEngine::submit(hdc::Hypervector target,
                                 core::FactorizeOptions opts,
                                 Completion done) {
  switch (enqueue(std::move(target), std::move(opts),
                  std::chrono::steady_clock::now(), std::move(done),
                  !opts_.reject_when_full, Placement::kQueue)) {
    case SubmitStatus::kAccepted:
      return;
    case SubmitStatus::kQueueFull:
      throw QueueFullError();
    case SubmitStatus::kStopped:
      throw EngineStoppedError("engine is stopped");
  }
}

SubmitStatus FactorizationEngine::try_submit(
    hdc::Hypervector target, core::FactorizeOptions opts,
    std::chrono::steady_clock::time_point deadline, Completion done,
    Placement placement) {
  return enqueue(std::move(target), std::move(opts), deadline,
                 std::move(done), false, placement);
}

SubmitStatus FactorizationEngine::enqueue(
    hdc::Hypervector target, core::FactorizeOptions opts,
    std::chrono::steady_clock::time_point deadline, Completion done,
    bool block, Placement placement) {
  if (target.dim() != model_->books().dim()) {
    throw std::invalid_argument(
        "FactorizationEngine::submit: target dimension " +
        std::to_string(target.dim()) + " != model dimension " +
        std::to_string(model_->books().dim()));
  }
  {
    // Checked before the cache probe too: a stopped engine must refuse
    // every submit, including ones the cache could answer.
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return SubmitStatus::kStopped;
  }
  const auto start = std::chrono::steady_clock::now();
  // Every request claims an id from the global sequence when observability
  // is on, sampled or not — the sampled SET (id % N == 0) stays a pure
  // function of the request count across dispatcher/thread counts.
  const bool observing = trace_ring_.enabled() || slow_log_.enabled();
  std::uint64_t trace_id = 0;
  bool traced = false;
  if (observing) {
    trace_id = trace_ring_.next_id();
    traced = trace_ring_.sampled(trace_id);
  }
  const std::uint64_t key = request_key(target, opts);

  // Fast path: replay a previously computed result. Safe because lookup
  // verifies full (target, opts) equality, and factorization is pure.
  if (auto hit = cache_.lookup(key, target, opts)) {
    const auto cache_done = std::chrono::steady_clock::now();
    metrics_.on_submitted();
    metrics_.on_cache_hit();
    metrics_.on_stage(Stage::kCacheLookup, us_between(start, cache_done));
    complete(done, nullptr, *hit);
    metrics_.on_completed(us_since(start));
    if (traced) {
      RequestTrace t;
      t.id = trace_id;
      t.submit_ns = trace_ring_.since_origin_ns(start);
      t.cache_done_ns = trace_ring_.since_origin_ns(cache_done);
      t.complete_ns =
          trace_ring_.since_origin_ns(std::chrono::steady_clock::now());
      t.cache_hit = true;
      t.shards = model_->factorizer().shards();
      t.rows_scanned = hit->similarity_ops;
      t.rounds = hit->rounds;
      trace_ring_.record(t);
    }
    return SubmitStatus::kAccepted;
  }
  const auto cache_done = std::chrono::steady_clock::now();
  const bool may_run_here =
      placement == Placement::kInPlaceIfIdle && !opts.multi_object &&
      opts_.max_delay_us == 0 &&
      model_->factorizer().estimate_ns(opts) <= core::kBreakEvenNs;

  Request req;
  req.target = std::move(target);
  req.opts = std::move(opts);
  req.key = key;
  req.done = std::move(done);
  req.submitted = start;
  req.cache_done = cache_done;
  req.trace_id = trace_id;
  req.traced = traced;
  req.deadline = deadline;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (block) {
      queue_space_.wait(lock, [this] {
        return stopping_ || queue_.size() < opts_.queue_capacity;
      });
    }
    // stop() began since the first check, or woke a blocked submit: the
    // request was never enqueued.
    if (stopping_) return SubmitStatus::kStopped;
    if (may_run_here && queue_.empty()) {
      // Counted before the completion runs, so live snapshots keep
      // completed <= submitted.
      metrics_.on_submitted();
      metrics_.on_cache_miss();
      metrics_.on_in_place();
      metrics_.on_stage(Stage::kCacheLookup, us_between(start, cache_done));
      lock.unlock();
      run_in_place(req);
      return SubmitStatus::kAccepted;
    }
    if (queue_.size() >= opts_.queue_capacity) {
      metrics_.on_rejected();
      return SubmitStatus::kQueueFull;
    }
    req.enqueued = std::chrono::steady_clock::now();
    req.seq = next_seq_++;
    queue_.push_back(std::move(req));
    std::push_heap(queue_.begin(), queue_.end(), later);
    // Counted while still holding the queue lock: the batcher cannot pop
    // (and thus complete) this request before the lock is released, so a
    // concurrent metrics snapshot never observes completed > submitted.
    metrics_.on_submitted();
    metrics_.on_cache_miss();
    metrics_.on_stage(Stage::kCacheLookup, us_between(start, cache_done));
  }
  queue_ready_.notify_one();
  return SubmitStatus::kAccepted;
}

std::vector<FactorizationEngine::Request> FactorizationEngine::next_flight() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    queue_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return {};  // stopping and fully drained

    // With max_delay_us > 0, give late arrivals a chance to coalesce, but
    // hold the request at the head of the heap no longer than that past its
    // submit. While draining a shutdown there is nothing to wait for.
    if (queue_.size() < opts_.max_batch && opts_.max_delay_us > 0 &&
        !stopping_) {
      const auto deadline = queue_.front().submitted +
                            std::chrono::microseconds(opts_.max_delay_us);
      queue_ready_.wait_until(lock, deadline, [this] {
        return stopping_ || queue_.size() >= opts_.max_batch;
      });
      // A sibling dispatcher may have drained the queue while we waited.
      if (queue_.empty()) continue;
    }

    const std::size_t n = std::min(queue_.size(), opts_.max_batch);
    std::vector<Request> flight;
    flight.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::pop_heap(queue_.begin(), queue_.end(), later);
      flight.push_back(std::move(queue_.back()));
      queue_.pop_back();
    }
    lock.unlock();
    queue_space_.notify_all();
    // One dequeue stamp for the whole flight — it left the queue as a unit.
    const auto dequeued = std::chrono::steady_clock::now();
    for (Request& r : flight) r.dequeued = dequeued;
    return flight;
  }
}

void FactorizationEngine::run_flight(std::vector<Request> flight,
                                     DispatcherState& state,
                                     std::uint32_t index) {
  Metrics& metrics = state.metrics;
  // Group members by identical options — BatchFactorizer applies one
  // FactorizeOptions to a whole batch, and identical options are also what
  // makes two results interchangeable. Flights are homogeneous in the
  // common case, so the quadratic-looking scans below are over tiny sets.
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < flight.size(); ++i) {
    bool placed = false;
    for (auto& g : groups) {
      if (flight[g.front()].opts == flight[i].opts) {
        g.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({i});
  }

  for (const auto& group : groups) {
    const core::FactorizeOptions& gopts = flight[group.front()].opts;

    // Coalesce duplicate targets within the group: factorize each distinct
    // target once and fan the (identical, deterministic) result out to
    // every duplicate's completion. rep[j] indexes into `targets`.
    //
    // The dedup key is global — the full (target, opts) identity: groups
    // are formed by exact options equality above, and within a group two
    // requests coalesce only when both the request_key fingerprint AND the
    // full target hypervector compare equal. Nothing here depends on the
    // model's scan backend or shard partition, so coalescing under a
    // kSharded model merges exactly the requests it would merge unsharded
    // (pinned by the kSharded coalescing test in
    // tests/test_service_engine.cpp).
    std::vector<hdc::Hypervector> targets;
    std::vector<std::uint64_t> target_keys;
    std::vector<std::size_t> rep(group.size());
    for (std::size_t j = 0; j < group.size(); ++j) {
      const Request& r = flight[group[j]];
      bool found = false;
      for (std::size_t u = 0; u < targets.size(); ++u) {
        if (target_keys[u] == r.key && targets[u] == r.target) {
          rep[j] = u;
          found = true;
          metrics.on_coalesced();
          break;
        }
      }
      if (!found) {
        rep[j] = targets.size();
        targets.push_back(r.target);
        target_keys.push_back(r.key);
      }
    }

    metrics.on_batch(group.size());
    const auto scan_start = std::chrono::steady_clock::now();
    std::vector<core::FactorizeResult> results;
    try {
      results = batcher_.factorize_all(targets, gopts);
    } catch (...) {
      const auto err = std::current_exception();
      const core::FactorizeResult none;
      for (const std::size_t j : group) {
        complete(flight[j].done, err, none);
        // Exceptionally completed is still completed: the drained-engine
        // invariant completed == submitted must survive a failed flight.
        metrics.on_completed(us_since(flight[j].submitted));
      }
      continue;
    }
    const auto scan_end = std::chrono::steady_clock::now();

    for (std::size_t u = 0; u < targets.size(); ++u) {
      cache_.insert(target_keys[u], targets[u], gopts, results[u]);
    }
    for (std::size_t j = 0; j < group.size(); ++j) {
      Request& r = flight[group[j]];
      const core::FactorizeResult& result = results[rep[j]];
      complete(r.done, nullptr, result);
      const auto done = std::chrono::steady_clock::now();
      metrics.on_stage(Stage::kQueueWait, us_between(r.enqueued, r.dequeued));
      metrics.on_stage(Stage::kBatchAssembly,
                       us_between(r.dequeued, scan_start));
      metrics.on_stage(Stage::kScan, us_between(scan_start, scan_end));
      metrics.on_stage(Stage::kMerge, us_between(scan_end, done));
      metrics.on_completed(us_since(r.submitted));
      observe(r, scan_start, scan_end, done, result, index,
              static_cast<std::uint32_t>(group.size()), false);
    }
  }
}

void FactorizationEngine::run_in_place(Request& r) {
  const auto scan_start = std::chrono::steady_clock::now();
  core::FactorizeResult result;
  try {
    result = model_->factorizer().factorize(r.target, r.opts);
  } catch (...) {
    complete(r.done, std::current_exception(), core::FactorizeResult{});
    metrics_.on_completed(us_since(r.submitted));
    return;
  }
  const auto scan_end = std::chrono::steady_clock::now();
  cache_.insert(r.key, r.target, r.opts, result);
  complete(r.done, nullptr, result);
  const auto done = std::chrono::steady_clock::now();
  // No queue-wait or batch-assembly sample, and no batch: those stages
  // describe dispatcher flights, which this request never joined.
  metrics_.on_stage(Stage::kScan, us_between(scan_start, scan_end));
  metrics_.on_stage(Stage::kMerge, us_between(scan_end, done));
  metrics_.on_completed(us_since(r.submitted));
  observe(r, scan_start, scan_end, done, result, 0, 1, true);
}

void FactorizationEngine::observe(
    const Request& r, std::chrono::steady_clock::time_point scan_start,
    std::chrono::steady_clock::time_point scan_end,
    std::chrono::steady_clock::time_point done,
    const core::FactorizeResult& result, std::uint32_t dispatcher,
    std::uint32_t batch_size, bool in_place) {
  if (!r.traced && !slow_log_.enabled()) return;
  RequestTrace t;
  t.id = r.trace_id;
  t.submit_ns = trace_ring_.since_origin_ns(r.submitted);
  t.cache_done_ns = trace_ring_.since_origin_ns(r.cache_done);
  if (!in_place) {
    t.enqueue_ns = trace_ring_.since_origin_ns(r.enqueued);
    t.dequeue_ns = trace_ring_.since_origin_ns(r.dequeued);
  }
  t.scan_start_ns = trace_ring_.since_origin_ns(scan_start);
  t.scan_end_ns = trace_ring_.since_origin_ns(scan_end);
  t.complete_ns = trace_ring_.since_origin_ns(done);
  t.in_place = in_place;
  t.dispatcher = dispatcher;
  t.batch_size = batch_size;
  t.shards = model_->factorizer().shards();
  t.rows_scanned = result.similarity_ops;
  t.rounds = result.rounds;
  slow_log_.observe(t);
  if (r.traced) trace_ring_.record(t);
}

void FactorizationEngine::batcher_loop(DispatcherState& state,
                                       std::uint32_t index) {
  while (true) {
    std::vector<Request> flight = next_flight();
    if (flight.empty()) return;
    const std::size_t n = flight.size();
    state.inflight.fetch_add(n, std::memory_order_relaxed);
    run_flight(std::move(flight), state, index);
    state.inflight.fetch_sub(n, std::memory_order_relaxed);
  }
}

void FactorizationEngine::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_ready_.notify_all();
  queue_space_.notify_all();
  // Serialized so concurrent stop() calls (e.g. an explicit stop racing
  // the destructor from another owner) never double-join.
  std::lock_guard<std::mutex> lock(join_mu_);
  for (std::thread& t : batcher_threads_) {
    if (t.joinable()) t.join();
  }
}

MetricsSnapshot FactorizationEngine::metrics() const {
  // Aggregate into a local set: dispatcher (compute-side) sets first, the
  // submit-side set last. Reading a request's completion from a dispatcher
  // set implies its earlier `submitted` increment is already visible, so
  // merging submitted-last keeps completed <= submitted in live snapshots;
  // after a drain the aggregate is exact.
  Metrics agg;
  for (const auto& d : dispatchers_) agg.merge(d->metrics);
  agg.merge(metrics_);
  MetricsSnapshot snap = agg.snapshot(queue_depth());
  snap.shard_rows_scanned = model_->factorizer().shard_rows_scanned();
  return snap;
}

std::vector<FactorizationEngine::DispatcherStats>
FactorizationEngine::dispatcher_stats() const {
  std::vector<DispatcherStats> out;
  out.reserve(dispatchers_.size());
  for (const auto& d : dispatchers_) {
    DispatcherStats s;
    s.metrics = d->metrics.snapshot(0);
    s.inflight = d->inflight.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t FactorizationEngine::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace factorhd::service
