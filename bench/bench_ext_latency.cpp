// Extension bench: network tail latency and goodput under overload — the
// open-loop load generator over the FHN1 front end (src/net/).
//
// Unlike bench_ext_service (closed-loop producers that slow down when the
// server does), this harness sends on a Poisson schedule that does NOT
// wait for responses — the arrival process an actual service faces. A
// saturation probe first measures the server's closed-loop capacity; the
// sweep then offers 0.5x / 1x / 2x / 4x that rate (hot/cold target mix)
// through one pipelined NetClient connection and reports, per row:
// achieved goodput, p50/p99/p99.9 result latency, and how the excess load
// was shed (explicit kOverload rejects vs timeouts vs errors).
//
// The admission-control claim (ISSUE 10 acceptance, enforced by
// scripts/bench_json.py --check on the committed full-mode baseline):
//
//   * at 0.5x saturation the tail stays bounded: p99 <= 10x p50;
//   * at 4x saturation the excess is REJECTED (overload frames), never
//     silently timed out — rejects >= 1 and timeouts == 0.
//
// `--smoke` runs a tiny sweep for CI; `--json FILE` writes the
// factorhd.bench_latency.v1 document.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "common.hpp"
#include "hdc/kernels/simd.hpp"
#include "net/net.hpp"
#include "service/service.hpp"
#include "taxonomy/generator.hpp"

namespace {

using namespace factorhd;
using namespace std::chrono_literals;

using Clock = std::chrono::steady_clock;

double quantile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(idx, sorted_us.size() - 1)];
}

/// One row of the load sweep.
struct Row {
  std::string name;
  double multiplier = 0.0;    ///< offered rate / measured saturation
  double offered_rps = 0.0;   ///< Poisson arrival rate
  double seconds = 0.0;       ///< first send -> last response
  std::uint64_t sent = 0;
  std::uint64_t results = 0;
  std::uint64_t overloads = 0;  ///< explicit kOverload rejects
  std::uint64_t errors = 0;     ///< kError responses
  std::uint64_t timeouts = 0;   ///< responses that never arrived
  double goodput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

/// Open-loop Poisson run: a sender thread issues `requests` factorize
/// frames on schedule (exponential inter-arrivals at `rate` req/s, hot/cold
/// target mix), a receiver thread drains every response. Nothing in the
/// sender waits for the server.
Row run_open_loop(std::uint16_t port, const std::vector<hdc::Hypervector>& hot,
                  const std::vector<hdc::Hypervector>& cold, double hot_frac,
                  double rate, std::size_t requests, std::uint64_t seed,
                  std::chrono::milliseconds recv_timeout) {
  net::NetClient client("127.0.0.1", port);
  client.set_recv_timeout(recv_timeout);

  // Request ids are sequential from 1 (NetClient contract), so send times
  // index a flat vector; the mutex covers the sender/receiver handoff.
  std::mutex mu;
  std::vector<Clock::time_point> send_time(requests + 1);
  std::uint64_t sent = 0;

  const Clock::time_point start = Clock::now();
  std::thread sender([&] {
    util::Xoshiro256 rng(seed);
    double offset_s = 0.0;
    for (std::size_t i = 0; i < requests; ++i) {
      // Exponential inter-arrival; u in [0,1) so 1-u never hits log(0).
      offset_s += -std::log(1.0 - rng.uniform_double()) / rate;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offset_s)));
      const auto& target = rng.bernoulli(hot_frac)
                               ? hot[rng.uniform(hot.size())]
                               : cold[rng.uniform(cold.size())];
      {
        std::lock_guard lock(mu);
        send_time[sent + 1] = Clock::now();
        ++sent;
      }
      (void)client.send_factorize(target);
    }
  });

  Row row;
  std::vector<double> latencies_us;
  latencies_us.reserve(requests);
  Clock::time_point last_response = start;
  for (std::size_t i = 0; i < requests; ++i) {
    net::NetClient::Response resp;
    try {
      resp = client.recv_response();
    } catch (const std::exception&) {
      break;  // timeout or disconnect: stop waiting for the rest
    }
    last_response = Clock::now();
    switch (resp.kind) {
      case net::NetClient::Response::Kind::kResult: {
        ++row.results;
        Clock::time_point sent_at;
        {
          std::lock_guard lock(mu);
          sent_at = send_time[resp.request_id];
        }
        latencies_us.push_back(
            std::chrono::duration<double, std::micro>(last_response - sent_at)
                .count());
        break;
      }
      case net::NetClient::Response::Kind::kOverload:
        ++row.overloads;
        break;
      default:
        ++row.errors;
        break;
    }
  }
  sender.join();
  row.sent = sent;
  // Anything sent but never answered (within the receive timeout) is a
  // timeout — the failure mode the 4x acceptance bound forbids.
  row.timeouts = row.sent - row.results - row.overloads - row.errors;

  std::sort(latencies_us.begin(), latencies_us.end());
  row.offered_rps = rate;
  row.seconds =
      std::chrono::duration<double>(last_response - start).count();
  row.goodput_rps = row.seconds > 0
                        ? static_cast<double>(row.results) / row.seconds
                        : 0.0;
  row.p50_us = quantile(latencies_us, 0.50);
  row.p99_us = quantile(latencies_us, 0.99);
  row.p999_us = quantile(latencies_us, 0.999);
  return row;
}

void write_json(const std::string& path, bool smoke, std::size_t dim,
                std::size_t items, std::size_t requests, double saturation_rps,
                double hot_frac, std::uint64_t seed,
                const service::ServiceOptions& eopts,
                const net::ServerOptions& sopts, const std::vector<Row>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_ext_latency: cannot write " << path << "\n";
    std::exit(1);
  }
  namespace hk = hdc::kernels;
  const auto fmt = [](double v) { return util::fmt_double(v, 3); };
  out << "{\n"
      << "  \"schema\": \"factorhd.bench_latency.v1\",\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
      << "  \"context\": {\n"
      << "    \"dim\": " << dim << ",\n"
      << "    \"items\": " << items << ",\n"
      << "    \"requests_per_row\": " << requests << ",\n"
      << "    \"saturation_rps\": " << fmt(saturation_rps) << ",\n"
      << "    \"hot_fraction\": " << fmt(hot_frac) << ",\n"
      << "    \"admission_depth\": " << eopts.queue_capacity << ",\n"
      << "    \"client_quota\": " << sopts.admission.client_quota << ",\n"
      << "    \"seed\": " << seed << ",\n"
      << "    \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "    \"simd_level\": \""
      << hk::to_string(hk::dispatched_simd_level()) << "\"\n"
      << "  },\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"multiplier\": "
        << fmt(r.multiplier) << ", \"offered_rps\": " << fmt(r.offered_rps)
        << ", \"seconds\": " << util::fmt_double(r.seconds, 6)
        << ", \"sent\": " << r.sent << ", \"results\": " << r.results
        << ", \"overloads\": " << r.overloads << ", \"errors\": " << r.errors
        << ", \"timeouts\": " << r.timeouts
        << ", \"goodput_rps\": " << fmt(r.goodput_rps)
        << ", \"p50_us\": " << fmt(r.p50_us) << ", \"p99_us\": "
        << fmt(r.p99_us) << ", \"p999_us\": " << fmt(r.p999_us) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n"
      << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_ext_latency [--smoke] [--json FILE]\n";
      return 2;
    }
  }

  std::cout << "==============================================================\n"
            << "Extension: network tail latency + admission under overload\n"
            << "==============================================================\n";
  const std::uint64_t seed = util::experiment_seed();
  util::Xoshiro256 rng(seed);

  const std::size_t dim = smoke ? 256 : 512;
  const std::size_t items = smoke ? 16 : 64;
  const std::size_t requests =
      smoke ? 150 : (util::bench_full_scale() ? 4000 : 2400);
  const double hot_frac = 0.8;
  const tax::Taxonomy taxonomy(3, {items});
  auto model = service::Model::make(
      "bench", tax::TaxonomyCodebooks(taxonomy, dim, rng));

  // Engine tuned for serving (tiny flush deadline: latency, not batch
  // formation, dominates) and a request queue (the one depth bound behind
  // the server) small enough that 4x overload must reject rather than
  // buffer its way to timeouts.
  const service::ServiceOptions eopts{.max_batch = 64,
                                      .max_delay_us = 100,
                                      .queue_capacity = 128,
                                      .cache_capacity = 0};
  service::FactorizationEngine engine(model, eopts);
  net::ServerOptions sopts;
  sopts.admission.client_quota = 64;
  net::NetServer server(engine, sopts);
  server.start();

  std::vector<hdc::Hypervector> cold, hot;
  for (std::size_t i = 0; i < (smoke ? 24u : 128u); ++i) {
    cold.push_back(
        model->encoder().encode_object(tax::random_object(taxonomy, rng)));
  }
  hot.assign(cold.begin(), cold.begin() + (smoke ? 4 : 8));

  std::cout << "D=" << dim << ", F=3, M=" << items << ", " << requests
            << " requests/row, hot fraction " << hot_frac
            << ", queue capacity " << eopts.queue_capacity << ", quota "
            << sopts.admission.client_quota << " ("
            << server.poller_name() << ")\n\n";

  // Saturation probe: closed-loop pipelined requests measure what the
  // server can actually sustain on this machine; the sweep is relative to
  // it so the 0.5x/4x rows mean the same thing on any hardware.
  double saturation_rps = 0.0;
  {
    net::NetClient probe("127.0.0.1", server.port());
    probe.set_recv_timeout(30s);
    const std::size_t probe_n = smoke ? 60 : 400;
    constexpr std::size_t kWindow = 16;
    util::Stopwatch sw;
    std::size_t sent = 0;
    std::size_t received = 0;
    while (received < probe_n) {
      while (sent < probe_n && sent - received < kWindow) {
        (void)probe.send_factorize(cold[sent % cold.size()]);
        ++sent;
      }
      const auto resp = probe.recv_response();
      if (resp.kind != net::NetClient::Response::Kind::kResult) {
        std::cerr << "bench_ext_latency: saturation probe got a non-result "
                     "response\n";
        return 1;
      }
      ++received;
    }
    saturation_rps = static_cast<double>(probe_n) / sw.elapsed_seconds();
  }
  std::cout << "saturation (closed-loop, window 16): "
            << util::fmt_double(saturation_rps, 0) << " req/s\n\n";

  util::TextTable table({"load", "offered req/s", "goodput", "p50", "p99",
                         "p99.9", "results", "rejects", "timeouts"});
  std::vector<Row> rows;
  const double multipliers[] = {0.5, 1.0, 2.0, 4.0};
  for (const double mult : multipliers) {
    // Discarded warmup at the same rate: the measured window sees steady
    // state, not connection setup, cold caches, or clock ramp-up.
    (void)run_open_loop(server.port(), hot, cold, hot_frac,
                        mult * saturation_rps, requests / 6,
                        seed + static_cast<std::uint64_t>(mult * 1000) + 1,
                        smoke ? 10s : 30s);
    Row row = run_open_loop(server.port(), hot, cold, hot_frac,
                            mult * saturation_rps, requests,
                            seed + static_cast<std::uint64_t>(mult * 1000),
                            smoke ? 10s : 30s);
    row.multiplier = mult;
    row.name = "load " + util::fmt_double(mult, 1) + "x";
    table.add_row({row.name, util::fmt_double(row.offered_rps, 0),
                   util::fmt_double(row.goodput_rps, 0),
                   util::fmt_time_us(row.p50_us), util::fmt_time_us(row.p99_us),
                   util::fmt_time_us(row.p999_us), std::to_string(row.results),
                   std::to_string(row.overloads),
                   std::to_string(row.timeouts)});
    rows.push_back(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: below saturation the tail stays tight\n"
               "(p99 <= 10x p50 at 0.5x — the committed-baseline bound);\n"
               "past saturation goodput plateaus near capacity and the\n"
               "excess is shed as explicit overload rejects, not timeouts.\n";

  server.stop();
  engine.stop();

  if (!json_path.empty()) {
    write_json(json_path, smoke, dim, items, requests, saturation_rps,
               hot_frac, seed, eopts, sopts, rows);
    std::cout << "\nwrote " << json_path << "\n";
  }

  // Self-checks (both modes; the committed full-mode baseline re-enforces
  // them via bench_json.py --check): every send is accounted, and 4x
  // overload sheds by rejecting.
  for (const Row& r : rows) {
    if (r.results + r.overloads + r.errors + r.timeouts != r.sent) {
      std::cerr << "FAIL: " << r.name << ": sent " << r.sent
                << " != results+overloads+errors+timeouts\n";
      return 1;
    }
  }
  const Row& overload_row = rows.back();
  if (overload_row.timeouts != 0) {
    std::cerr << "FAIL: 4x overload shed " << overload_row.timeouts
              << " requests by timeout instead of rejecting\n";
    return 1;
  }
  if (overload_row.overloads == 0) {
    std::cerr << "FAIL: 4x overload produced no explicit rejects\n";
    return 1;
  }
  std::cout << "\ncheck: all sends accounted; 4x load shed by explicit "
               "rejects ("
            << overload_row.overloads << " overload frames, 0 timeouts)\n";
  return 0;
}
