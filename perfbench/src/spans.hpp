// In-memory span log of the traced run: one span around every call the
// benchmark makes into a layer (name, start, end, parent span, request id).
// Spans are kept in memory while the run measures and written out once, as
// Chrome trace-event JSON (loads in Perfetto / chrome://tracing), when it
// ends. A disabled log records nothing, which is how the untraced run pays
// no tracing cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0;
  static constexpr std::uint64_t kNoRequest = ~std::uint64_t{0};

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records one finished span; returns its id (0 when disabled). Safe to
  /// call from several threads.
  std::uint32_t add(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint32_t parent = kNoParent,
                    std::uint64_t request = kNoRequest) {
    if (!enabled_) return kNoParent;
    std::lock_guard lock(mu_);
    spans_.push_back({name, start, end, parent, request});
    return static_cast<std::uint32_t>(spans_.size());
  }

  /// Opens a span whose end is set later by close() — the phase roots that
  /// per-request spans name as their parent.
  std::uint32_t open(const char* name, std::uint32_t parent = kNoParent) {
    const auto now = Clock::now();
    return add(name, now, now, parent);
  }
  void close(std::uint32_t id) {
    if (!enabled_ || id == kNoParent) return;
    std::lock_guard lock(mu_);
    spans_[id - 1].end = Clock::now();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return spans_.size();
  }

  /// Writes every span as a Chrome "X" event; args carry the span id, its
  /// parent and the request id. \return False when the file cannot be
  /// written.
  bool write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    std::lock_guard lock(mu_);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
      };
      out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1"
          << ", \"tid\": " << (s.parent == kNoParent ? i + 1 : s.parent)
          << ", \"ts\": " << us(s.start)
          << ", \"dur\": " << us(s.end) - us(s.start)
          << ", \"args\": {\"id\": " << i + 1 << ", \"parent\": " << s.parent;
      if (s.request != kNoRequest) out << ", \"request\": " << s.request;
      out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::uint32_t parent;
    std::uint64_t request;
  };

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
