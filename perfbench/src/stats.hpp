// Pure helpers of the end-to-end benchmark: quantiles from raw samples,
// request accounting, the open-loop schedule, and the SLO ladder rule.
// Header-only and free of factorhd types so tests/selftest.cpp can pin
// every rule without a model.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <vector>

namespace perfbench {

/// q-quantile of an ascending sample, interpolating linearly between the
/// two closest ranks (numpy's default "linear" method). 0 for an empty one.
inline double quantile(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || sorted[lo] == sorted[hi]) return sorted[lo];
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

/// Samples that lie beyond the q-quantile of n samples: n - ceil(q * n).
/// (The epsilon keeps 0.99 * 1000, which is not exact in binary, at 990.)
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto at = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n > at ? n - at : 0;
}

/// A tail percentile is reported only when at least ten samples lie beyond
/// it; fewer make it an order statistic of noise.
inline bool tail_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

/// Median, over the `windows` consecutive time windows of a phase, of each
/// window's q-quantile. Sample i belongs to window[i]. A pause of the whole
/// box lands in one window and moves this by at most one rank, where it
/// would move the quantile of the pooled sample. nullopt unless every
/// window holds enough samples to support q.
inline std::optional<double> median_window_quantile(
    std::span<const double> latency_us, std::span<const std::size_t> window,
    std::size_t windows, double q) {
  std::vector<std::vector<double>> groups(windows);
  for (std::size_t i = 0; i < latency_us.size(); ++i) {
    groups.at(window[i]).push_back(latency_us[i]);
  }
  std::vector<double> per_window;
  for (auto& g : groups) {
    if (!tail_supported(g.size(), q)) return std::nullopt;
    std::sort(g.begin(), g.end());
    per_window.push_back(quantile(g, q));
  }
  if (per_window.empty()) return std::nullopt;
  std::sort(per_window.begin(), per_window.end());
  return quantile(per_window, 0.5);
}

/// Window of a sample at `offset` into a phase of `span` split into
/// `windows` equal parts (the last window is closed at the phase end).
inline std::size_t window_of(double offset, double span, std::size_t windows) {
  if (!(span > 0.0) || offset <= 0.0) return 0;
  const auto w = static_cast<std::size_t>(offset / span *
                                          static_cast<double>(windows));
  return std::min(w, windows - 1);
}

/// Matches the responses read from one connection to the requests sent on
/// it. Request ids count from 1, in send order. A response whose id names
/// no request sent, or a request already answered, is a fault; so is every
/// request still unanswered when the connection's responses end (lost, or
/// displaced by a duplicate).
class ResponseLedger {
 public:
  explicit ResponseLedger(std::size_t sent) : answered_(sent, false) {}

  /// \return Index (send order) of the request the response answers, or
  /// nullopt for a fault.
  std::optional<std::size_t> match(std::uint64_t request_id) {
    if (request_id == 0 || request_id > answered_.size() ||
        answered_[request_id - 1]) {
      ++bad_responses_;
      return std::nullopt;
    }
    answered_[request_id - 1] = true;
    ++matched_;
    return static_cast<std::size_t>(request_id - 1);
  }
  /// Unmatched or repeated responses plus unanswered requests.
  [[nodiscard]] std::size_t faults() const {
    return bad_responses_ + (answered_.size() - matched_);
  }

 private:
  std::vector<bool> answered_;
  std::size_t matched_ = 0;
  std::size_t bad_responses_ = 0;
};

/// Fate of every request sent in one phase. Each sent request ends as
/// exactly one of result / reject / error / timeout; `mismatches` counts the
/// results that differ from a direct factorize of the same target, and
/// `faults` the ResponseLedger faults of the phase's connections.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t results = 0;
  std::uint64_t rejects = 0;  ///< kOverload answers (admission control)
  std::uint64_t errors = 0;   ///< kError answers
  std::uint64_t timeouts = 0;  ///< never answered before the receive timeout
  std::uint64_t mismatches = 0;
  std::uint64_t faults = 0;

  /// Every result equals direct factorize, and every response matched
  /// exactly one request sent.
  [[nodiscard]] bool correct() const { return mismatches == 0 && faults == 0; }
  [[nodiscard]] std::uint64_t failed() const {
    return rejects + errors + timeouts + mismatches;
  }
  [[nodiscard]] double failed_frac() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(failed()) /
                           static_cast<double>(sent);
  }
  Tally& operator+=(const Tally& o) {
    sent += o.sent;
    results += o.results;
    rejects += o.rejects;
    errors += o.errors;
    timeouts += o.timeouts;
    mismatches += o.mismatches;
    faults += o.faults;
    return *this;
  }
};

/// Poisson arrival offsets (seconds from the phase start) at `rate_rps` for
/// `seconds`: exponential gaps drawn from `rng`.
template <class Rng>
std::vector<double> poisson_schedule(double rate_rps, double seconds,
                                     Rng& rng) {
  std::vector<double> due;
  std::exponential_distribution<double> gap(rate_rps);
  for (double t = gap(rng); t < seconds; t += gap(rng)) due.push_back(t);
  return due;
}

/// `rungs` absolute rates from `lowest` upward, each `ratio` times the last.
inline std::vector<double> geometric_ladder(double lowest, double ratio,
                                            std::size_t rungs) {
  std::vector<double> out;
  double r = lowest;
  for (std::size_t i = 0; i < rungs; ++i, r *= ratio) out.push_back(r);
  return out;
}

/// One open-loop ladder step as the SLO rule sees it.
struct StepOutcome {
  double rate_rps = 0.0;
  /// Latency of every request sent, failed ones as +infinity: a refused or
  /// lost request misses any limit.
  std::vector<double> latency_us;
  /// Time window of each request (see median_window_quantile).
  std::vector<std::size_t> window;
  std::size_t windows = 1;
  /// Requests sent but unanswered when the last one fell due.
  std::size_t backlog_at_end = 0;
};

/// Outstanding requests allowed at the end of a step: twice what Little's
/// law gives at the latency limit, plus slack for a burst. A backlog above
/// this means arrivals outran completions during the step.
inline std::size_t backlog_limit(double rate_rps, double limit_us) {
  return static_cast<std::size_t>(2.0 * rate_rps * limit_us * 1e-6) + 8;
}

/// The p99 the SLO rule judges a step by: the median window p99, failures
/// included. nullopt when a window is too short to support a p99.
inline std::optional<double> step_p99(const StepOutcome& step) {
  return median_window_quantile(step.latency_us, step.window, step.windows,
                                0.99);
}

/// A step meets the SLO when its p99 is supported and within `limit_us`,
/// and no backlog built up.
inline bool meets_slo(const StepOutcome& step, double limit_us) {
  const auto p99 = step_p99(step);
  return p99 && *p99 <= limit_us &&
         step.backlog_at_end <= backlog_limit(step.rate_rps, limit_us);
}

/// Binary search for the highest passing rung of a ladder, assuming passes
/// are monotone (a rung passes => every lower rung passes). `probe(i)` runs
/// rung i and reports whether it met the SLO; each rung runs at most once
/// and a ladder of 2^k - 1 rungs takes exactly k probes.
/// \return Index of the highest passing rung, or nullopt when none passed.
template <class Probe>
std::optional<std::size_t> ladder_search(std::size_t rungs, Probe&& probe) {
  std::ptrdiff_t pass = -1;
  auto fail = static_cast<std::ptrdiff_t>(rungs);
  while (fail - pass > 1) {
    const std::ptrdiff_t mid = pass + (fail - pass) / 2;
    if (probe(static_cast<std::size_t>(mid))) {
      pass = mid;
    } else {
      fail = mid;
    }
  }
  if (pass < 0) return std::nullopt;
  return static_cast<std::size_t>(pass);
}

}  // namespace perfbench
