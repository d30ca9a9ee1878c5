#include "service/trace.hpp"

#include <algorithm>
#include <iostream>
#include <sstream>

#include "util/env.hpp"

namespace factorhd::service {

namespace {

/// One stage span: [begin_ns, end_ns) with 0 meaning "stage not reached".
struct StageSpan {
  const char* name;
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
};

/// The per-stage decomposition of a trace, in pipeline order. Cache hits
/// only populate cache_lookup (they never enter the queue); in-place runs
/// skip queue_wait and batch_assembly.
std::vector<StageSpan> stage_spans(const RequestTrace& t) {
  std::vector<StageSpan> spans;
  spans.push_back({"cache_lookup", t.submit_ns, t.cache_done_ns});
  spans.push_back({"queue_wait", t.enqueue_ns, t.dequeue_ns});
  spans.push_back({"batch_assembly", t.dequeue_ns, t.scan_start_ns});
  spans.push_back({"scan", t.scan_start_ns, t.scan_end_ns});
  spans.push_back({"merge", t.scan_end_ns, t.complete_ns});
  return spans;
}

double to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

void append_args(std::ostringstream& os, const RequestTrace& t) {
  os << "{\"cache_hit\":" << (t.cache_hit ? "true" : "false")
     << ",\"in_place\":" << (t.in_place ? "true" : "false")
     << ",\"dispatcher\":" << t.dispatcher
     << ",\"batch_size\":" << t.batch_size << ",\"shards\":" << t.shards
     << ",\"rows_scanned\":" << t.rows_scanned
     << ",\"rounds\":" << t.rounds << "}";
}

}  // namespace

TraceConfig trace_config_from_env() {
  TraceConfig config;
  config.sample_every =
      util::env_size_t("FACTORHD_TRACE_SAMPLE", 0, 0, std::size_t{1} << 30);
  config.ring_capacity =
      util::env_size_t("FACTORHD_TRACE_RING", 4096, 1, std::size_t{1} << 24);
  config.slow_query_us =
      util::env_size_t("FACTORHD_SLOW_QUERY_US", 0, 0, std::size_t{1} << 40);
  return config;
}

TraceRing::TraceRing(std::size_t capacity, std::size_t sample_every)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      sample_every_(sample_every),
      origin_(std::chrono::steady_clock::now()),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

std::uint64_t TraceRing::since_origin_ns(
    std::chrono::steady_clock::time_point tp) const noexcept {
  const auto delta =
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp - origin_)
          .count();
  return delta > 0 ? static_cast<std::uint64_t>(delta) : 0;
}

void TraceRing::record(const RequestTrace& trace) noexcept {
  const std::size_t idx =
      head_.fetch_add(1, std::memory_order_relaxed) % capacity_;
  Slot& slot = slots_[idx];
  std::uint8_t expected = slot.state.load(std::memory_order_relaxed);
  // A slot mid-read (collect) or mid-write (a lapped writer) is simply
  // skipped: dropping one sample keeps recording wait-free, which matters
  // more than the sample on a serving hot path.
  if (expected == kWriting ||
      !slot.state.compare_exchange_strong(expected, kWriting,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slot.trace = trace;
  slot.state.store(kFull, std::memory_order_release);
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<RequestTrace> TraceRing::collect() const {
  std::vector<RequestTrace> out;
  out.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    Slot& slot = slots_[i];
    std::uint8_t expected = kFull;
    // Claim the slot for the copy so a concurrent writer cannot tear it;
    // writers that lose the claim drop (and count) their record.
    if (!slot.state.compare_exchange_strong(expected, kWriting,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
      continue;
    }
    out.push_back(slot.trace);
    slot.state.store(kFull, std::memory_order_release);
  }
  std::sort(out.begin(), out.end(),
            [](const RequestTrace& a, const RequestTrace& b) {
              return a.id < b.id;
            });
  return out;
}

std::size_t TraceRing::occupancy() const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (slots_[i].state.load(std::memory_order_relaxed) == kFull) ++n;
  }
  return n;
}

std::string chrome_trace_json(std::span<const RequestTrace> traces) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const char* name, std::uint64_t id, double ts_us,
                        double dur_us, const RequestTrace* args) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << name << "\",\"cat\":\"factorhd\",\"ph\":\"X\""
       << ",\"ts\":" << ts_us << ",\"dur\":" << dur_us
       << ",\"pid\":1,\"tid\":" << id;
    if (args != nullptr) {
      os << ",\"args\":";
      append_args(os, *args);
    }
    os << "}";
  };
  for (const RequestTrace& t : traces) {
    const std::uint64_t end_ns =
        t.complete_ns != 0 ? t.complete_ns : t.cache_done_ns;
    emit("request", t.id, to_us(t.submit_ns),
         to_us(end_ns > t.submit_ns ? end_ns - t.submit_ns : 0), &t);
    for (const StageSpan& s : stage_spans(t)) {
      // A zero endpoint marks a stage the request never reached (cache
      // hits skip the queue-to-merge stages entirely).
      if (s.begin_ns == 0 || s.end_ns == 0 || s.end_ns < s.begin_ns) continue;
      emit(s.name, t.id, to_us(s.begin_ns), to_us(s.end_ns - s.begin_ns),
           nullptr);
    }
  }
  os << "],\"displayTimeUnit\":\"ns\"}";
  return os.str();
}

SlowQueryLog::SlowQueryLog(std::size_t threshold_us, std::ostream* sink,
                           std::size_t min_interval_ms)
    : threshold_us_(threshold_us),
      min_interval_ns_(static_cast<std::int64_t>(min_interval_ms) * 1'000'000),
      sink_(sink != nullptr ? sink : &std::cerr) {}

std::string SlowQueryLog::format(const RequestTrace& t) {
  std::ostringstream os;
  const std::uint64_t end_ns =
      t.complete_ns != 0 ? t.complete_ns : t.cache_done_ns;
  os << "{\"slow_query\":{\"id\":" << t.id << ",\"e2e_us\":"
     << to_us(end_ns > t.submit_ns ? end_ns - t.submit_ns : 0)
     << ",\"stages_us\":{";
  bool first = true;
  for (const StageSpan& s : stage_spans(t)) {
    if (s.begin_ns == 0 || s.end_ns == 0 || s.end_ns < s.begin_ns) continue;
    if (!first) os << ",";
    first = false;
    os << "\"" << s.name << "\":" << to_us(s.end_ns - s.begin_ns);
  }
  os << "},\"facts\":";
  append_args(os, t);
  os << "}}";
  return os.str();
}

void SlowQueryLog::observe(const RequestTrace& trace) noexcept {
  if (threshold_us_ == 0) return;
  const std::uint64_t end_ns =
      trace.complete_ns != 0 ? trace.complete_ns : trace.cache_done_ns;
  if (end_ns <= trace.submit_ns) return;
  const std::uint64_t e2e_ns = end_ns - trace.submit_ns;
  if (e2e_ns < static_cast<std::uint64_t>(threshold_us_) * 1000) return;
  // Rate limit: one line per min_interval, claimed by CAS on the last-emit
  // timestamp so concurrent completions cannot double-emit inside one
  // window. complete_ns is monotone enough for a limiter.
  const auto now_ns = static_cast<std::int64_t>(trace.complete_ns);
  std::int64_t last = last_emit_ns_.load(std::memory_order_relaxed);
  if (last >= 0 && now_ns - last < min_interval_ns_) {
    suppressed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!last_emit_ns_.compare_exchange_strong(last, now_ns,
                                             std::memory_order_relaxed)) {
    suppressed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  try {
    (*sink_) << format(trace) << "\n";
    emitted_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    // A failing sink must never take down the serving path.
  }
}

}  // namespace factorhd::service
