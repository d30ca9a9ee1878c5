#include "service/metrics.hpp"

#include <bit>
#include <cmath>
#include <sstream>

namespace factorhd::service {

namespace {

using Buckets = MetricsSnapshot::Buckets;

/// Quantile from the power-of-two histogram: the geometric midpoint (in us)
/// of the bucket containing the q-th latency. 0 when the histogram is empty.
double histogram_quantile(const Buckets& h, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : h) total += b;
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < h.size(); ++i) {
    seen += h[i];
    if (seen >= rank && seen > 0) {
      // Bucket i covers [2^i, 2^(i+1)) ns; report the geometric midpoint
      // 2^(i+0.5) in us — within sqrt(2) of the true bucketed quantile in
      // either direction. (The upper bound 2^(i+1) would overstate a
      // single-latency stream by up to 2x.)
      return std::ldexp(std::sqrt(2.0), static_cast<int>(i)) / 1e3;
    }
  }
  return std::ldexp(std::sqrt(2.0), 63) / 1e3;  // unreachable
}

/// Total sample count in a histogram.
std::uint64_t histogram_count(const Buckets& h) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : h) total += b;
  return total;
}

/// Approximate sum of all samples in us: bucket geometric midpoints times
/// counts — the same sqrt(2) fidelity as the quantiles.
double histogram_sum_us(const Buckets& h) {
  double sum = 0.0;
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (h[i] != 0) {
      sum += static_cast<double>(h[i]) *
             (std::ldexp(std::sqrt(2.0), static_cast<int>(i)) / 1e3);
    }
  }
  return sum;
}

/// Fills one per-stage digest from its histogram.
MetricsSnapshot::StageLatency stage_digest(const Buckets& h) {
  MetricsSnapshot::StageLatency d;
  d.buckets = h;
  d.count = histogram_count(h);
  if (d.count != 0) {
    d.p50_us = histogram_quantile(h, 0.50);
    d.p99_us = histogram_quantile(h, 0.99);
    d.p999_us = histogram_quantile(h, 0.999);
    d.sum_us = histogram_sum_us(h);
  }
  return d;
}

/// Recomputes every digest of `s` from its counters and raw histograms.
void summarize(MetricsSnapshot& s) {
  s.mean_batch = s.batches == 0 ? 0.0
                                : static_cast<double>(s.batched_requests) /
                                      static_cast<double>(s.batches);
  s.p50_latency_us = histogram_quantile(s.latency_buckets, 0.50);
  s.p99_latency_us = histogram_quantile(s.latency_buckets, 0.99);
  s.p999_latency_us = histogram_quantile(s.latency_buckets, 0.999);
  s.latency_sum_us = histogram_sum_us(s.latency_buckets);
  for (auto& stage : s.stages) stage = stage_digest(stage.buckets);
}

/// Relaxed copy of a live histogram.
Buckets load(const std::array<std::atomic<std::uint64_t>, 64>& h) {
  Buckets out{};
  for (std::size_t i = 0; i < h.size(); ++i) {
    out[i] = h[i].load(std::memory_order_relaxed);
  }
  return out;
}

/// a - b for monotonic counters, saturating at 0.
std::uint64_t minus(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

/// One label set of a Prometheus summary family: quantile lines + _sum +
/// _count (HELP/TYPE are emitted once per family by the caller).
void prom_summary(std::ostringstream& os, const char* name,
                  const std::string& labels, std::uint64_t count, double p50,
                  double p99, double p999, double sum) {
  const std::string sep = labels.empty() ? "" : ",";
  os << name << "{" << labels << sep << "quantile=\"0.5\"} " << p50 << "\n"
     << name << "{" << labels << sep << "quantile=\"0.99\"} " << p99 << "\n"
     << name << "{" << labels << sep << "quantile=\"0.999\"} " << p999 << "\n"
     << name << "_sum" << (labels.empty() ? "" : "{" + labels + "}") << " "
     << sum << "\n"
     << name << "_count" << (labels.empty() ? "" : "{" + labels + "}") << " "
     << count << "\n";
}

}  // namespace

const char* to_string(Stage stage) noexcept {
  switch (stage) {
    case Stage::kCacheLookup:
      return "cache_lookup";
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kBatchAssembly:
      return "batch_assembly";
    case Stage::kScan:
      return "scan";
    case Stage::kMerge:
      return "merge";
    case Stage::kNetRead:
      return "net_read";
    case Stage::kAdmission:
      return "admission";
    case Stage::kNetWrite:
      return "net_write";
  }
  return "unknown";
}

void Metrics::on_batch(std::size_t requests) noexcept {
  inc(batches_);
  batched_requests_.fetch_add(requests, std::memory_order_release);
  std::uint64_t prev = max_batch_.load(std::memory_order_relaxed);
  while (prev < requests &&
         !max_batch_.compare_exchange_weak(prev, requests,
                                           std::memory_order_relaxed)) {
  }
}

std::size_t Metrics::bucket_of(double latency_us) noexcept {
  const double ns = latency_us * 1e3;
  if (!(ns >= 1.0)) return 0;  // sub-ns / NaN land in the first bucket
  if (ns >= 9.2e18) return 63;
  const auto n = static_cast<std::uint64_t>(ns);
  return static_cast<std::size_t>(std::bit_width(n) - 1);
}

void Metrics::on_completed(double latency_us) noexcept {
  inc(completed_);
  latency_buckets_[bucket_of(latency_us)].fetch_add(1,
                                                    std::memory_order_relaxed);
}

void Metrics::on_stage(Stage stage, double latency_us) noexcept {
  stage_buckets_[static_cast<std::size_t>(stage)][bucket_of(latency_us)]
      .fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot Metrics::snapshot(std::size_t queue_depth) const {
  MetricsSnapshot s;
  // Read order matters for live snapshots: every request increments
  // `submitted` before any downstream counter (hit/miss, batch,
  // completion), so reading the downstream counters first — acquire to
  // order the loads — keeps the intuitive inequalities
  // (completed <= submitted, hits + misses <= submitted) true even
  // mid-serving. After a drain the snapshot is exact either way.
  s.completed = completed_.load(std::memory_order_acquire);
  s.cache_hits = cache_hits_.load(std::memory_order_acquire);
  s.cache_misses = cache_misses_.load(std::memory_order_acquire);
  s.batches = batches_.load(std::memory_order_acquire);
  s.batched_requests = batched_requests_.load(std::memory_order_acquire);
  s.coalesced = coalesced_.load(std::memory_order_acquire);
  s.in_place = in_place_.load(std::memory_order_acquire);
  s.submitted = submitted_.load(std::memory_order_acquire);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.max_batch_observed =
      static_cast<std::size_t>(max_batch_.load(std::memory_order_relaxed));
  s.queue_depth = queue_depth;
  s.latency_buckets = load(latency_buckets_);
  for (std::size_t i = 0; i < kNumStages; ++i) {
    s.stages[i].buckets = load(stage_buckets_[i]);
  }
  summarize(s);
  return s;
}

MetricsSnapshot MetricsSnapshot::since(const MetricsSnapshot& baseline) const {
  MetricsSnapshot d = *this;
  d.submitted = minus(submitted, baseline.submitted);
  d.rejected = minus(rejected, baseline.rejected);
  d.completed = minus(completed, baseline.completed);
  d.cache_hits = minus(cache_hits, baseline.cache_hits);
  d.cache_misses = minus(cache_misses, baseline.cache_misses);
  d.batches = minus(batches, baseline.batches);
  d.batched_requests = minus(batched_requests, baseline.batched_requests);
  d.coalesced = minus(coalesced, baseline.coalesced);
  d.in_place = minus(in_place, baseline.in_place);
  for (std::size_t i = 0; i < latency_buckets.size(); ++i) {
    d.latency_buckets[i] =
        minus(latency_buckets[i], baseline.latency_buckets[i]);
  }
  for (std::size_t st = 0; st < kNumStages; ++st) {
    for (std::size_t i = 0; i < stages[st].buckets.size(); ++i) {
      d.stages[st].buckets[i] =
          minus(stages[st].buckets[i], baseline.stages[st].buckets[i]);
    }
  }
  for (std::size_t i = 0; i < d.shard_rows_scanned.size() &&
                          i < baseline.shard_rows_scanned.size();
       ++i) {
    d.shard_rows_scanned[i] =
        minus(shard_rows_scanned[i], baseline.shard_rows_scanned[i]);
  }
  summarize(d);
  return d;
}

void Metrics::merge(const Metrics& other) noexcept {
  // Same downstream-first acquire order as snapshot(): reading a request's
  // completion implies its earlier `submitted` increment is visible, so an
  // aggregate built dispatcher-sets-first, submit-side-set-last keeps
  // completed <= submitted mid-serving.
  const std::uint64_t completed = other.completed_.load(std::memory_order_acquire);
  const std::uint64_t hits = other.cache_hits_.load(std::memory_order_acquire);
  const std::uint64_t misses =
      other.cache_misses_.load(std::memory_order_acquire);
  const std::uint64_t batches = other.batches_.load(std::memory_order_acquire);
  const std::uint64_t batched =
      other.batched_requests_.load(std::memory_order_acquire);
  const std::uint64_t coalesced =
      other.coalesced_.load(std::memory_order_acquire);
  const std::uint64_t in_place =
      other.in_place_.load(std::memory_order_acquire);
  const std::uint64_t submitted =
      other.submitted_.load(std::memory_order_acquire);
  const std::uint64_t rejected = other.rejected_.load(std::memory_order_relaxed);
  const std::uint64_t max_batch =
      other.max_batch_.load(std::memory_order_relaxed);
  completed_.fetch_add(completed, std::memory_order_relaxed);
  cache_hits_.fetch_add(hits, std::memory_order_relaxed);
  cache_misses_.fetch_add(misses, std::memory_order_relaxed);
  batches_.fetch_add(batches, std::memory_order_relaxed);
  batched_requests_.fetch_add(batched, std::memory_order_relaxed);
  coalesced_.fetch_add(coalesced, std::memory_order_relaxed);
  in_place_.fetch_add(in_place, std::memory_order_relaxed);
  submitted_.fetch_add(submitted, std::memory_order_relaxed);
  rejected_.fetch_add(rejected, std::memory_order_relaxed);
  std::uint64_t prev = max_batch_.load(std::memory_order_relaxed);
  while (prev < max_batch &&
         !max_batch_.compare_exchange_weak(prev, max_batch,
                                           std::memory_order_relaxed)) {
  }
  for (std::size_t i = 0; i < latency_buckets_.size(); ++i) {
    const std::uint64_t n =
        other.latency_buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) latency_buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  for (std::size_t st = 0; st < kNumStages; ++st) {
    for (std::size_t i = 0; i < stage_buckets_[st].size(); ++i) {
      const std::uint64_t n =
          other.stage_buckets_[st][i].load(std::memory_order_relaxed);
      if (n != 0) {
        stage_buckets_[st][i].fetch_add(n, std::memory_order_relaxed);
      }
    }
  }
}

std::string MetricsSnapshot::to_string() const {
  std::ostringstream os;
  os << "requests: " << submitted << " submitted, " << completed
     << " completed, " << rejected << " rejected, " << queue_depth
     << " queued\n"
     << "cache:    " << cache_hits << " hits, " << cache_misses
     << " misses, " << coalesced << " coalesced in-batch\n"
     << "batches:  " << batches << " dispatched, mean " << mean_batch
     << " req/batch, max " << max_batch_observed << ", " << in_place
     << " run in place\n"
     << "latency:  p50 ~ " << p50_latency_us << " us, p99 ~ "
     << p99_latency_us << " us, p99.9 ~ " << p999_latency_us
     << " us (power-of-2 bucket midpoints, +/- sqrt(2))";
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const StageLatency& d = stages[i];
    os << "\nstage " << service::to_string(static_cast<Stage>(i)) << ": "
       << d.count
       << " samples, p50 ~ " << d.p50_us << " us, p99 ~ " << d.p99_us
       << " us, p99.9 ~ " << d.p999_us << " us";
  }
  if (!shard_rows_scanned.empty()) {
    os << "\nshards:   rows scanned per shard:";
    for (std::size_t i = 0; i < shard_rows_scanned.size(); ++i) {
      os << " [" << i << "] " << shard_rows_scanned[i];
    }
  }
  return os.str();
}

std::string MetricsSnapshot::to_prometheus() const {
  std::ostringstream os;
  const auto counter = [&](const char* name, const char* help,
                           std::uint64_t value) {
    os << "# HELP " << name << " " << help << "\n"
       << "# TYPE " << name << " counter\n"
       << name << " " << value << "\n";
  };
  counter("factorhd_requests_submitted_total", "Accepted submit() calls.",
          submitted);
  counter("factorhd_requests_rejected_total",
          "Submits refused by queue backpressure.", rejected);
  counter("factorhd_requests_completed_total",
          "Requests completed (including cache hits).", completed);
  counter("factorhd_cache_hits_total", "Requests served from the result cache.",
          cache_hits);
  counter("factorhd_cache_misses_total", "Requests enqueued for computation.",
          cache_misses);
  counter("factorhd_batches_total", "Micro-batches dispatched.", batches);
  counter("factorhd_batched_requests_total",
          "Requests carried by dispatched micro-batches.", batched_requests);
  counter("factorhd_coalesced_total", "Duplicate requests deduped in-batch.",
          coalesced);
  counter("factorhd_in_place_total",
          "Cache misses computed on the submitting thread, outside any batch.",
          in_place);
  os << "# HELP factorhd_queue_depth Pending requests at scrape time.\n"
     << "# TYPE factorhd_queue_depth gauge\n"
     << "factorhd_queue_depth " << queue_depth << "\n";
  os << "# HELP factorhd_max_batch_observed Largest micro-batch dispatched.\n"
     << "# TYPE factorhd_max_batch_observed gauge\n"
     << "factorhd_max_batch_observed " << max_batch_observed << "\n";
  os << "# HELP factorhd_request_latency_us End-to-end request latency"
     << " (power-of-2 bucket midpoints, microseconds).\n"
     << "# TYPE factorhd_request_latency_us summary\n";
  prom_summary(os, "factorhd_request_latency_us", "", completed,
               p50_latency_us, p99_latency_us, p999_latency_us,
               latency_sum_us);
  os << "# HELP factorhd_stage_latency_us Per-pipeline-stage latency"
     << " (power-of-2 bucket midpoints, microseconds).\n"
     << "# TYPE factorhd_stage_latency_us summary\n";
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const StageLatency& d = stages[i];
    const std::string labels =
        std::string("stage=\"") + service::to_string(static_cast<Stage>(i)) +
        "\"";
    prom_summary(os, "factorhd_stage_latency_us", labels, d.count, d.p50_us,
                 d.p99_us, d.p999_us, d.sum_us);
  }
  if (!shard_rows_scanned.empty()) {
    os << "# HELP factorhd_shard_rows_scanned_total Similarity measurements"
       << " charged to each scan shard.\n"
       << "# TYPE factorhd_shard_rows_scanned_total counter\n";
    for (std::size_t i = 0; i < shard_rows_scanned.size(); ++i) {
      os << "factorhd_shard_rows_scanned_total{shard=\"" << i << "\"} "
         << shard_rows_scanned[i] << "\n";
    }
  }
  return os.str();
}

}  // namespace factorhd::service
