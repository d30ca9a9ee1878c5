// Self-tests of the benchmark's own helpers (perfbench/src/stats.hpp): the
// quantile and tail-sample rule, windowed quantiles, request accounting,
// response matching, the Poisson schedule, and the SLO ladder rule. Exits
// non-zero when any check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void quantiles() {
  using perfbench::quantile;
  const std::vector<double> one{7.0};
  check(near(quantile(one, 0.5), 7.0) && near(quantile(one, 0.99), 7.0),
        "single sample is every quantile");
  check(quantile(std::vector<double>{}, 0.5) == 0.0, "empty sample reads 0");
  const std::vector<double> four{1.0, 2.0, 3.0, 4.0};
  check(near(quantile(four, 0.5), 2.5), "median interpolates between ranks");
  check(near(quantile(four, 0.0), 1.0) && near(quantile(four, 1.0), 4.0),
        "q=0 and q=1 are the extremes");
  std::vector<double> hundred_one;
  for (int i = 0; i <= 100; ++i) hundred_one.push_back(i);
  check(near(quantile(hundred_one, 0.99), 99.0), "p99 of 0..100 is 99");
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> with_failures{1.0, 2.0, inf};
  check(near(quantile(with_failures, 0.5), 2.0),
        "failures as +inf do not move a median below them");
  check(quantile(with_failures, 0.9) == inf,
        "between a result and a failure the quantile is a miss");
  const std::vector<double> all_failed{inf, inf, inf};
  check(quantile(all_failed, 0.5) == inf, "all failures read +inf, not NaN");
}

void windows() {
  using perfbench::window_of;
  check(window_of(0.0, 10.0, 4) == 0 && window_of(2.4, 10.0, 4) == 0 &&
            window_of(2.5, 10.0, 4) == 1 && window_of(10.0, 10.0, 4) == 3,
        "equal windows, the last closed at the phase end");
  check(window_of(-1.0, 10.0, 4) == 0 && window_of(5.0, 0.0, 4) == 0,
        "offsets before the start and empty phases fall in window 0");

  // Four windows of 1000 samples at 100 us; one window also holds a pause
  // that made 50 of its requests slow. Pooled, the pause would set the
  // p99; the median window p99 ignores it.
  std::vector<double> lat;
  std::vector<std::size_t> win;
  for (std::size_t w = 0; w < 4; ++w) {
    for (std::size_t i = 0; i < 1000; ++i) {
      lat.push_back(w == 2 && i < 50 ? 9000.0 : 100.0);
      win.push_back(w);
    }
  }
  const auto p99 = perfbench::median_window_quantile(lat, win, 4, 0.99);
  check(p99 && near(*p99, 100.0), "one paused window does not set the p99");
  for (std::size_t i = 0; i < 50; ++i) lat[1000 + i] = 9000.0;
  check(perfbench::median_window_quantile(lat, win, 4, 0.99).value() > 100.0,
        "a pause in half the windows does");
  win.back() = 0;  // window 3 now holds 999 samples: p99 unsupported there
  check(!perfbench::median_window_quantile(lat, win, 4, 0.99),
        "every window must support the quantile");
}

void tail_rule() {
  using perfbench::samples_beyond;
  using perfbench::tail_supported;
  check(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  check(tail_supported(1000, 0.99), "p99 reported at 1000 samples");
  check(!tail_supported(999, 0.99), "p99 withheld at 999 samples");
  check(tail_supported(20, 0.5), "p50 needs only 20 samples");
  check(!tail_supported(0, 0.5), "nothing is reported from no samples");
  check(tail_supported(10000, 0.999) && !tail_supported(9999, 0.999),
        "p99.9 needs 10000 samples");
}

void accounting() {
  perfbench::Tally t;
  t.sent = 100;
  t.results = 90;
  t.rejects = 6;
  t.errors = 1;
  t.timeouts = 3;
  check(t.failed() == 10 && near(t.failed_frac(), 0.10),
        "rejects, errors and timeouts all fail");
  check(t.correct(), "failed requests alone leave the run correct");
  t.mismatches = 2;
  check(t.failed() == 12, "a result differing from direct factorize fails");
  check(!t.correct(), "a mismatch makes the run incorrect");
  perfbench::Tally sum;
  sum += t;
  sum += t;
  check(sum.sent == 200 && sum.mismatches == 4, "tallies add field-wise");
  check(perfbench::Tally{}.failed_frac() == 0.0, "empty tally fails nothing");
  t.mismatches = 0;
  t.faults = 1;
  check(!t.correct(), "a response fault makes the run incorrect");
}

void ledger() {
  using perfbench::ResponseLedger;
  ResponseLedger exact(3);
  const auto a = exact.match(2);
  const auto b = exact.match(1);
  const auto c = exact.match(3);
  check(a == 1u && b == 0u && c == 2u && exact.faults() == 0,
        "each id answers its own request, in any order");
  ResponseLedger dup(3);
  (void)dup.match(1);
  check(!dup.match(1) && dup.match(3) == 2u, "a repeated id matches nothing");
  check(dup.faults() == 2,
        "a duplicate faults, and so does the request it displaced");
  ResponseLedger stray(2);
  check(!stray.match(0) && !stray.match(3), "ids outside 1..sent match nothing");
  (void)stray.match(1);
  (void)stray.match(2);
  check(stray.faults() == 2,
        "unmatched responses fault though every request was answered");
  ResponseLedger lost(4);
  (void)lost.match(1);
  check(lost.faults() == 3, "requests never answered fault");
}

void schedule() {
  std::mt19937_64 a(42), b(42);
  const auto s1 = perfbench::poisson_schedule(1000.0, 5.0, a);
  const auto s2 = perfbench::poisson_schedule(1000.0, 5.0, b);
  check(s1 == s2, "the same seed gives the same schedule");
  check(s1.size() > 4700 && s1.size() < 5300, "about rate x seconds arrivals");
  bool ascending = true;
  for (std::size_t i = 1; i < s1.size(); ++i) ascending &= s1[i] > s1[i - 1];
  check(ascending && s1.back() < 5.0, "offsets ascend within the phase");
  const auto ladder = perfbench::geometric_ladder(1000.0, 2.0, 4);
  check(ladder == std::vector<double>({1000.0, 2000.0, 4000.0, 8000.0}),
        "ladder rungs are fixed absolute rates");
}

/// A one-window step of n requests, `slow` of them at slow_us.
perfbench::StepOutcome step(double rate, std::size_t n, double lat_us,
                            std::size_t slow, double slow_us,
                            std::size_t backlog) {
  perfbench::StepOutcome s;
  s.rate_rps = rate;
  s.latency_us.assign(n - slow, lat_us);
  s.latency_us.insert(s.latency_us.end(), slow, slow_us);
  s.window.assign(n, 0);
  s.windows = 1;
  s.backlog_at_end = backlog;
  return s;
}

void slo_rule() {
  using perfbench::meets_slo;
  const double inf = std::numeric_limits<double>::infinity();
  check(meets_slo(step(1000, 1000, 300, 10, 5000, 0), 1000),
        "10 slow of 1000 leave p99 within the limit");
  check(!meets_slo(step(1000, 1000, 300, 11, 5000, 0), 1000),
        "11 slow of 1000 push p99 past the limit");
  check(!meets_slo(step(1000, 1000, 300, 11, inf, 0), 1000),
        "rejected requests count as misses");
  check(!meets_slo(step(1000, 999, 300, 0, 0, 0), 1000),
        "a step too short to support p99 fails");
  check(perfbench::backlog_limit(10000, 1000) == 28,
        "backlog limit is 2 x rate x limit + 8");
  check(meets_slo(step(10000, 2000, 300, 0, 0, 28), 1000) &&
            !meets_slo(step(10000, 2000, 300, 0, 0, 29), 1000),
        "a growing backlog fails the step");

  // Ladder search: monotone outcomes find the exact boundary in log2 probes.
  for (std::size_t boundary = 0; boundary <= 31; ++boundary) {
    std::size_t probes = 0;
    std::vector<int> seen(31, 0);
    const auto best = perfbench::ladder_search(31, [&](std::size_t i) {
      ++probes;
      ++seen[i];
      return i < boundary;
    });
    bool once = true;
    for (int s : seen) once &= s <= 1;
    check(probes == 5 && once, "31 rungs take 5 probes, each rung once");
    if (boundary == 0) {
      check(!best.has_value(), "no passing rung gives no rate");
    } else {
      check(best.has_value() && *best == boundary - 1,
            "search returns the highest passing rung");
    }
  }
}

}  // namespace

int main() {
  quantiles();
  tail_rule();
  windows();
  accounting();
  ledger();
  schedule();
  slo_rule();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return EXIT_SUCCESS;
}
