// fhbench: the end-to-end benchmark of the factorhd serving stack.
//
//   fhbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out F]
//
// The stack is driven from the outside, through the FHN1 wire, with the
// engine and server at their default options (ServiceOptions{},
// ServerOptions{}) and no FACTORHD_* variable set, so a change of defaults
// is measured and a deleted knob needs no benchmark edit. The model is a
// fixed seeded fixture (kModelSeed); --seed drives the traffic: which
// objects and scenes are sent, the hot set, and the Poisson arrival times.
//
// Untraced run (--trace 0): set up the stack several times (setup_s is the
// median), warm up, then measure the workload's reference segments, each
// drawn just before it runs. Every wire result is compared bit for bit with
// a direct Factorizer::factorize of the same target, and every response
// must match exactly one request sent; a mismatch fails the request, and
// either makes the run exit non-zero. Prints the end-to-end metrics.
//
// Traced run (--trace 1): replay the same seeded reference inputs at each
// entry point of the stack, one layer lower each time, recording a span
// around every call: the wire (NetClient -> NetServer) without and with
// spans, the engine (FactorizationEngine::submit, same schedule, no
// socket), the factorizer (Factorizer::factorize / factorize_block, one
// thread) and the level-1 codebook scans (hdc::ItemMemory). A layer's tax
// is its entry point's latency minus that of the entry point below it. It
// also searches the workload's fixed SLO ladder. Prints the per-layer
// metrics and writes the spans as Chrome trace JSON.
//
// The workloads, why each exists, and the measurements that chose them are
// described in perfbench/README.md.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/factorizer.hpp"
#include "hdc/hash.hpp"
#include "hdc/item_memory.hpp"
#include "hdc/ops.hpp"
#include "machine.hpp"
#include "net/net.hpp"
#include "service/service.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "taxonomy/generator.hpp"

namespace {

using namespace factorhd;
using namespace std::chrono_literals;
using perfbench::Clock;
using perfbench::SpanLog;

/// The model is the same in every run, so setup does identical work.
constexpr std::uint64_t kModelSeed = 0xFAC70D5EEDull;
/// Every ladder has 15 rungs, a third of an octave apart (25x overall), so
/// the binary search takes exactly four probes.
constexpr std::size_t kRungs = 15;
const double kRungRatio = std::pow(2.0, 1.0 / 3.0);
/// Requests a ladder probe sends at least: ten beyond the p99 of each of
/// its windows, with margin for the Poisson count.
constexpr double kMinProbeRequests = 8 * 1100;
constexpr auto kRecvTimeout = 10s;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  std::size_t classes = 3;
  std::vector<std::size_t> branching;
  std::size_t dim = 1024;
  /// Rep 3 scenes of 2-3 objects (duplicates allowed), results streamed as
  /// kPartial frames; otherwise single objects and one kResult frame.
  bool multi_object = false;
  /// Open-loop reference rate: rung `reference_rung` of the ladder.
  std::size_t reference_rung = 0;
  /// Share of requests drawn from a hot set of `hot_set` targets.
  double hot_frac = 0.0;
  std::size_t hot_set = 0;
  /// SLO ladder: kRungs fixed absolute rates from ladder_lowest upward,
  /// and the p99 limit a rung must meet.
  double ladder_lowest = 0.0;
  double slo_limit_us = 0.0;

  [[nodiscard]] double rung_rate(std::size_t rung) const {
    return perfbench::geometric_ladder(ladder_lowest, kRungRatio, kRungs)
        .at(rung);
  }
};

Workload workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "paper_open") {
    // Paper-scale hierarchy; a direct factorize is a few us, so the
    // request path (net hops, engine queue and batching) is the work.
    w.branching = {32, 8};
    w.dim = 1024;
    w.reference_rung = 0;  // 2000 req/s
    w.ladder_lowest = 2000.0;
    w.slo_limit_us = 10000.0;
  } else if (name == "scene_hot_mix") {
    // Rep 3 scenes, streamed, 80% from a hot set: residual loops, cache
    // hits beside inserts and coalescing, multi-frame responses.
    w.branching = {32, 8};
    w.dim = 2048;
    w.multi_object = true;
    w.reference_rung = 0;  // 500 req/s
    w.hot_frac = 0.8;
    w.hot_set = 128;
    w.ladder_lowest = 500.0;
    w.slo_limit_us = 50000.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

core::FactorizeOptions request_options(const Workload& w) {
  core::FactorizeOptions opts;
  opts.multi_object = w.multi_object;
  return opts;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return perfbench::quantile(v, 0.5);
}

void log(const std::string& msg) { std::cerr << "fhbench: " << msg << "\n"; }

/// Runs fn(i) for i in [0, n) on every hardware thread (untimed work: the
/// correctness oracle).
template <class Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  const std::size_t width =
      std::max(1u, std::thread::hardware_concurrency());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < width; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

// ---------------------------------------------------------------------------
// Traffic: seeded targets with their ground truth
// ---------------------------------------------------------------------------

/// Encoded targets kept one byte per component (object and scene HVs hold
/// small integers), materialised as Hypervectors only when sent.
class TargetSet {
 public:
  explicit TargetSet(std::size_t dim) : dim_(dim) {}

  static constexpr std::size_t kCold = ~std::size_t{0};

  void add(const hdc::Hypervector& hv, tax::Scene truth) {
    for (const auto c : hv.components()) {
      if (c < -127 || c > 127) {
        throw std::logic_error("target component outside int8");
      }
      comps_.push_back(static_cast<std::int8_t>(c));
    }
    truth_.push_back(std::move(truth));
    hot_index_.push_back(kCold);
  }
  /// Appends target `i` of the hot set `hot`.
  void add_hot(const TargetSet& hot, std::size_t i) {
    const auto* p = hot.comps_.data() + i * dim_;
    comps_.insert(comps_.end(), p, p + dim_);
    truth_.push_back(hot.truth_[i]);
    hot_index_.push_back(i);
  }

  [[nodiscard]] std::size_t size() const noexcept { return truth_.size(); }
  [[nodiscard]] hdc::Hypervector target(std::size_t i) const {
    std::vector<hdc::Hypervector::value_type> v(
        comps_.begin() + static_cast<std::ptrdiff_t>(i * dim_),
        comps_.begin() + static_cast<std::ptrdiff_t>((i + 1) * dim_));
    return hdc::Hypervector(std::move(v));
  }
  [[nodiscard]] const tax::Scene& truth(std::size_t i) const {
    return truth_[i];
  }
  /// Index in the hot set, or kCold for a target sent once.
  [[nodiscard]] std::size_t hot_index(std::size_t i) const {
    return hot_index_[i];
  }

 private:
  std::size_t dim_;
  std::vector<std::int8_t> comps_;
  std::vector<tax::Scene> truth_;
  std::vector<std::size_t> hot_index_;
};

/// Draws targets for a workload from --seed. Each draw names a stream, so
/// a phase's inputs depend only on (seed, stream). Outside the hot set no
/// target is ever sent twice in a run: the result cache never hits on cold
/// traffic.
class Traffic {
 public:
  Traffic(const Workload& w, const service::Model& model, std::uint64_t seed)
      : w_(w), model_(model), seed_(seed), hot_(model.books().dim()) {
    util::Xoshiro256 rng(stream_seed(0));
    while (hot_.size() < w_.hot_set) {
      auto [scene, hv] = fresh(rng);
      hot_.add(hv, std::move(scene));
    }
  }

  [[nodiscard]] TargetSet draw(std::size_t n, std::uint64_t stream) {
    util::Xoshiro256 rng(stream_seed(stream));
    TargetSet out(model_.books().dim());
    for (std::size_t i = 0; i < n; ++i) {
      if (hot_.size() > 0 && rng.bernoulli(w_.hot_frac)) {
        out.add_hot(hot_, rng.uniform(hot_.size()));
      } else {
        auto [scene, hv] = fresh(rng);
        out.add(hv, std::move(scene));
      }
    }
    return out;
  }

  [[nodiscard]] std::uint64_t stream_seed(std::uint64_t stream) const {
    return util::SplitMix64(seed_ * 0x9E3779B97F4A7C15ull + stream).next();
  }

 private:
  std::pair<tax::Scene, hdc::Hypervector> fresh(util::Xoshiro256& rng) {
    const tax::Taxonomy& t = model_.books().taxonomy();
    for (;;) {
      tax::Scene scene;
      hdc::Hypervector hv;
      if (w_.multi_object) {
        tax::SceneGenOptions so;
        so.num_objects = 2 + rng.uniform(2);
        so.allow_duplicates = true;
        scene = tax::random_scene(t, rng, so);
        hv = model_.encoder().encode_scene(scene);
      } else {
        scene.push_back(tax::random_object(t, rng));
        hv = model_.encoder().encode_object(scene.front());
      }
      if (seen_.insert(hdc::hash_hypervector(hv)).second) {
        return {std::move(scene), std::move(hv)};
      }
    }
  }

  const Workload& w_;
  const service::Model& model_;
  std::uint64_t seed_;
  TargetSet hot_;
  std::unordered_set<std::uint64_t> seen_;
};

// ---------------------------------------------------------------------------
// The stack under test
// ---------------------------------------------------------------------------

struct Stack {
  std::shared_ptr<const service::Model> model;
  std::unique_ptr<service::FactorizationEngine> engine;
  std::unique_ptr<net::NetServer> server;  // last: stops before the engine

  /// A fresh engine and server over the same model, at default options.
  void restart_serving() {
    server.reset();
    engine.reset();
    engine = std::make_unique<service::FactorizationEngine>(model);
    server = std::make_unique<net::NetServer>(*engine, net::ServerOptions{});
    server->start();
  }
  /// Server first: it holds a reference to the engine.
  void tear_down() {
    server.reset();
    engine.reset();
    model.reset();
  }
};

/// One ping round trip over FHN1: the stack can now serve.
void ping(std::uint16_t port) {
  net::NetClient client("127.0.0.1", port);
  client.set_recv_timeout(kRecvTimeout);
  (void)client.send_ping("ready");
  if (client.recv_response().kind != net::NetClient::Response::Kind::kPong) {
    throw std::runtime_error("server did not answer the readiness ping");
  }
}

/// Builds the model, engine and server from nothing and waits for the
/// first ping answer. \return Seconds from `from` until then.
double set_up(const Workload& w, Stack& stack, SpanLog& spans,
              Clock::time_point from) {
  const std::uint32_t root = spans.open("setup");
  util::Xoshiro256 rng(kModelSeed);
  const auto t0 = Clock::now();
  tax::TaxonomyCodebooks books(tax::Taxonomy(w.classes, w.branching), w.dim,
                               rng);
  const auto t1 = Clock::now();
  spans.add("setup.codebooks", t0, t1, root);
  stack.model = service::Model::make(w.name, std::move(books));
  const auto t2 = Clock::now();
  spans.add("setup.model", t1, t2, root);  // packing and the tier build
  stack.restart_serving();
  ping(stack.server->port());
  spans.add("setup.serve", t2, Clock::now(), root);
  spans.close(root);
  return seconds_since(from);
}

// ---------------------------------------------------------------------------
// Phases: one request stream through one entry point
// ---------------------------------------------------------------------------

/// What became of one request.
struct Outcome {
  enum class Kind : std::uint8_t { kPending, kResult, kReject, kError };
  Kind kind = Kind::kPending;
  Clock::time_point start;  ///< when the request fell due
  Clock::time_point done;
  double send_lag_us = 0.0;  ///< how late the generator sent it
  std::uint32_t partial_frames = 0;
  core::FactorizeResult result;
};

/// One phase's requests. Those due before `measured_from` are its lead-in:
/// sent and verified, but not counted in its figures, which would otherwise
/// carry the start-up of fresh connections after the previous phase.
struct PhaseRun {
  std::vector<Outcome> req;  ///< index = input index, one per request sent
  Clock::time_point begin;
  Clock::time_point measured_from;
  Clock::time_point last_due;
  std::uint64_t mismatches = 0;  ///< filled by verify()
  std::uint64_t recovered = 0;   ///< measured results recovering the truth
  std::uint64_t faults = 0;      ///< ResponseLedger faults, every connection

  [[nodiscard]] bool measured(const Outcome& o) const {
    return o.start >= measured_from;
  }
  [[nodiscard]] perfbench::Tally tally() const {
    perfbench::Tally t;
    for (const Outcome& o : req) {
      if (!measured(o)) continue;
      ++t.sent;
      switch (o.kind) {
        case Outcome::Kind::kResult: ++t.results; break;
        case Outcome::Kind::kReject: ++t.rejects; break;
        case Outcome::Kind::kError: ++t.errors; break;
        case Outcome::Kind::kPending: ++t.timeouts; break;
      }
    }
    t.mismatches = mismatches;
    t.faults = faults;
    return t;
  }
  /// Latencies of the results, ascending.
  [[nodiscard]] std::vector<double> latency_us() const {
    std::vector<double> v;
    for (const Outcome& o : req) {
      if (measured(o) && o.kind == Outcome::Kind::kResult) {
        v.push_back(us_between(o.start, o.done));
      }
    }
    std::sort(v.begin(), v.end());
    return v;
  }
  [[nodiscard]] double seconds() const {
    Clock::time_point end = measured_from;
    for (const Outcome& o : req) {
      if (measured(o) && o.kind != Outcome::Kind::kPending) {
        end = std::max(end, o.done);
      }
    }
    return std::chrono::duration<double>(end - measured_from).count();
  }
  /// The phase as the SLO rule sees it: every request's latency (failures
  /// as +inf) and time window, the phase split into `windows` equal parts
  /// by start time, and the requests still unanswered when the last one
  /// fell due (a reject is an answer: it fails, but queues nothing).
  [[nodiscard]] perfbench::StepOutcome step(double rate,
                                            std::size_t windows) const {
    perfbench::StepOutcome s;
    s.rate_rps = rate;
    s.windows = windows;
    const double span = us_between(measured_from, last_due);
    for (const Outcome& o : req) {
      if (!measured(o)) continue;
      const bool ok = o.kind == Outcome::Kind::kResult;
      s.latency_us.push_back(ok ? us_between(o.start, o.done)
                                : std::numeric_limits<double>::infinity());
      s.window.push_back(perfbench::window_of(
          us_between(measured_from, o.start), span, windows));
      if (o.kind == Outcome::Kind::kPending || o.done > last_due) {
        ++s.backlog_at_end;
      }
    }
    return s;
  }
};

/// Windows of each ladder probe's p99.
constexpr std::size_t kWindows = 8;

/// Sleeps with microsecond slack (the default 50 us timer slack would add
/// itself to every open-loop send).
void tighten_timer_slack() { (void)prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

/// Inputs of one open-loop phase: targets, their due times, and the
/// lead-in before measuring starts.
struct PhaseInputs {
  TargetSet targets;
  std::vector<double> due;
  double lead_in_s = 0.0;
};

/// A phase whose requests fall due on `in`'s schedule, from 2 ms from now.
PhaseRun scheduled(const PhaseInputs& in) {
  PhaseRun run;
  run.req.resize(in.due.size());
  run.begin = Clock::now() + 2ms;
  run.measured_from = run.begin + to_duration(in.lead_in_s);
  for (std::size_t i = 0; i < in.due.size(); ++i) {
    run.req[i].start = run.begin + to_duration(in.due[i]);
  }
  run.last_due = in.due.empty() ? run.begin : run.req.back().start;
  return run;
}

/// Files one FHN1 response in its request's outcome.
void file_response(Outcome& o, net::NetClient::Response&& resp,
                   Clock::time_point now) {
  o.done = now;
  using Kind = net::NetClient::Response::Kind;
  if (resp.kind == Kind::kResult) {
    o.kind = Outcome::Kind::kResult;
    o.result = std::move(resp.result);
    o.partial_frames = static_cast<std::uint32_t>(resp.partial_frames);
  } else {
    o.kind = resp.kind == Kind::kOverload ? Outcome::Kind::kReject
                                          : Outcome::Kind::kError;
  }
}

/// Connections an open loop spreads its requests over, round robin:
/// independent users arrive on separate connections, and one sender plus
/// one receiver per connection stay within the box's hardware threads.
std::size_t open_loop_connections() {
  const std::size_t hw = std::max(2u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(hw - 1, 3);
}

/// Open loop: a sender thread sends request i at its due time, whatever
/// the server does, on connection i % C; one thread per connection
/// receives. Latency is timed from the due time, so a generator stall
/// counts against it.
PhaseRun wire_open(const Workload& w, std::uint16_t port,
                   const PhaseInputs& in, SpanLog& spans,
                   std::uint32_t parent) {
  const std::size_t conns = open_loop_connections();
  std::vector<std::unique_ptr<net::NetClient>> clients;
  for (std::size_t c = 0; c < conns; ++c) {
    clients.push_back(std::make_unique<net::NetClient>("127.0.0.1", port));
    clients.back()->set_recv_timeout(kRecvTimeout);
  }
  const auto opts = request_options(w);
  PhaseRun run = scheduled(in);
  std::vector<std::size_t> faults(conns, 0);
  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < conns; ++c) {
    receivers.emplace_back([&, c] {
      // Connection c carries requests c, c + conns, c + 2 conns, ...; it
      // reads as many responses as it was sent requests.
      const std::size_t expected = (run.req.size() + conns - 1 - c) / conns;
      perfbench::ResponseLedger ledger(expected);
      try {
        for (std::size_t got = 0; got < expected; ++got) {
          auto resp = clients[c]->recv_response();
          const auto k = ledger.match(resp.request_id);
          if (!k) continue;
          const std::size_t i = *k * conns + c;
          file_response(run.req[i], std::move(resp), Clock::now());
          spans.add("wire.request", run.req[i].start, run.req[i].done,
                    parent, i);
        }
      } catch (const std::exception& e) {
        log(std::string("wire receive stopped: ") + e.what());
      }
      faults[c] = ledger.faults();
    });
  }
  tighten_timer_slack();
  for (std::size_t i = 0; i < run.req.size(); ++i) {
    std::this_thread::sleep_until(run.req[i].start);
    run.req[i].send_lag_us = us_between(run.req[i].start, Clock::now());
    (void)clients[i % conns]->send_factorize(in.targets.target(i), opts,
                                             w.multi_object);
  }
  for (auto& r : receivers) r.join();
  for (const std::size_t f : faults) run.faults += f;
  if (run.faults != 0) {
    log(std::to_string(run.faults) + " response(s) unmatched or missing");
  }
  return run;
}

/// The engine entry point on the same open-loop schedule, no socket: a
/// sender thread submits at each due time; this thread polls the pending
/// futures every kPollPeriod and stamps each when it is found ready, so a
/// fast request (a cache hit) is not timed behind a slow one before it.
constexpr auto kPollPeriod = 20us;

PhaseRun engine_open(const Workload& w, service::FactorizationEngine& engine,
                     const PhaseInputs& in, SpanLog& spans,
                     std::uint32_t parent) {
  const auto opts = request_options(w);
  PhaseRun run = scheduled(in);
  using Pending = std::pair<std::size_t, std::future<core::FactorizeResult>>;
  std::mutex mu;
  std::vector<Pending> submitted;  // guarded by mu
  std::thread sender([&] {
    tighten_timer_slack();
    for (std::size_t i = 0; i < run.req.size(); ++i) {
      std::this_thread::sleep_until(run.req[i].start);
      run.req[i].send_lag_us = us_between(run.req[i].start, Clock::now());
      std::future<core::FactorizeResult> f;
      try {
        f = engine.submit(in.targets.target(i), opts);
      } catch (const std::exception&) {
        std::promise<core::FactorizeResult> refused;
        refused.set_exception(std::current_exception());
        f = refused.get_future();
      }
      std::lock_guard lock(mu);
      submitted.emplace_back(i, std::move(f));
    }
  });
  tighten_timer_slack();
  std::vector<Pending> live;
  for (std::size_t done = 0; done < run.req.size();) {
    {
      std::lock_guard lock(mu);
      for (auto& p : submitted) live.push_back(std::move(p));
      submitted.clear();
    }
    const auto now = Clock::now();
    for (auto it = live.begin(); it != live.end();) {
      if (it->second.wait_for(0s) != std::future_status::ready) {
        ++it;
        continue;
      }
      Outcome& o = run.req[it->first];
      try {
        o.result = it->second.get();
        o.kind = Outcome::Kind::kResult;
      } catch (const std::exception&) {
        o.kind = Outcome::Kind::kReject;
      }
      o.done = now;
      spans.add("engine.request", o.start, o.done, parent, it->first);
      it = live.erase(it);
      ++done;
    }
    std::this_thread::sleep_for(kPollPeriod);
  }
  sender.join();
  return run;
}

bool recovers(const core::FactorizeResult& r, const tax::Scene& truth,
              std::size_t classes) {
  tax::Scene got;
  for (const auto& obj : r.objects) got.push_back(obj.to_object(classes));
  return tax::same_multiset(got, truth);
}

/// The correctness oracle: every result must equal a direct
/// Factorizer::factorize of its target bit for bit. Also scores accuracy
/// against the generated ground truth. Hot targets repeat, so each distinct
/// one is factorized once.
void verify(const Workload& w, const service::Model& model,
            const TargetSet& in, PhaseRun& run) {
  std::vector<std::size_t> computed;  // request index of each direct result
  std::vector<std::size_t> slot(run.req.size());
  std::unordered_map<std::size_t, std::size_t> hot_slot;
  for (std::size_t i = 0; i < run.req.size(); ++i) {
    if (run.req[i].kind != Outcome::Kind::kResult) continue;
    const std::size_t hot = in.hot_index(i);
    const auto [it, fresh] =
        hot == TargetSet::kCold
            ? std::pair{hot_slot.end(), true}
            : hot_slot.emplace(hot, computed.size());
    slot[i] = fresh ? computed.size() : it->second;
    if (fresh) computed.push_back(i);
  }
  const auto opts = request_options(w);
  std::vector<core::FactorizeResult> direct(computed.size());
  parallel_for(computed.size(), [&](std::size_t k) {
    direct[k] = model.factorizer().factorize(in.target(computed[k]), opts);
  });
  run.mismatches = 0;
  run.recovered = 0;
  for (std::size_t i = 0; i < run.req.size(); ++i) {
    const Outcome& o = run.req[i];
    if (o.kind != Outcome::Kind::kResult) continue;
    if (!(direct[slot[i]] == o.result)) ++run.mismatches;
    if (run.measured(o) && recovers(o.result, in.truth(i), w.classes)) {
      ++run.recovered;
    }
  }
  if (run.mismatches != 0) {
    log(std::to_string(run.mismatches) +
        " result(s) differ from direct factorize");
  }
}

// ---------------------------------------------------------------------------
// Workload phases shared by both runs
// ---------------------------------------------------------------------------

/// Lead-in of every measured phase.
constexpr double kLeadInS = 0.25;

/// Poisson inputs at `rate` for the lead-in plus `seconds`.
PhaseInputs open_inputs(Traffic& traffic, double rate, double seconds,
                        std::uint64_t stream) {
  util::Xoshiro256 rng(traffic.stream_seed(stream) ^ 0xD0E5);
  auto due = perfbench::poisson_schedule(rate, kLeadInS + seconds, rng);
  return {traffic.draw(due.size(), stream), std::move(due), kLeadInS};
}

/// Stream ids: every phase draws its inputs from its own stream.
enum Stream : std::uint64_t {
  kWarmupStream = 1,
  kSegmentStream = 10,  // + segment
  kLadderStream = 100,  // + rung
  kRetryStream = 200,   // + rung
};

/// The reference phase is measured as kSegments separate segments, each
/// on fresh connections after a lead-in; latency reports the median
/// segment's p50, which a slow spell of the shared box within a few
/// segments does not move.
constexpr std::size_t kSegments = 9;

/// How a run spends --seconds: a discarded warmup, the reference segments,
/// and (traced run) the ladder probes: four, plus one retry per failed rung.
struct Schedule {
  double warmup_s;
  double segment_s;
  double probe_s;
};

Schedule schedule(double seconds) {
  return {0.05 * seconds, 0.7 * seconds / kSegments, 0.1 * seconds};
}

/// Inputs at the reference rate. Both runs draw the warmup and then
/// segments 0, 1, ... in that order, so they send identical targets.
PhaseInputs reference_inputs(const Workload& w, Traffic& traffic,
                             double seconds, std::uint64_t stream) {
  return open_inputs(traffic, w.rung_rate(w.reference_rung), seconds, stream);
}

/// Warmup and reference inputs, all drawn up front: the traced run replays
/// them at every entry point.
struct Reference {
  PhaseInputs warmup;
  std::vector<PhaseInputs> segments;
};

Reference draw_reference(const Workload& w, Traffic& traffic,
                         const Schedule& sch) {
  Reference r{reference_inputs(w, traffic, sch.warmup_s, kWarmupStream), {}};
  for (std::size_t k = 0; k < kSegments; ++k) {
    r.segments.push_back(reference_inputs(w, traffic, sch.segment_s,
                                          kSegmentStream + k));
  }
  return r;
}

/// A fresh engine and server, warmed by the warmup inputs: every phase
/// starts from the state the untraced run measures in.
void rewarm(const Workload& w, Stack& stack, const Reference& ref) {
  stack.restart_serving();
  SpanLog off(false);
  (void)wire_open(w, stack.server->port(), ref.warmup, off, 0);
}

/// Verified reference segments pooled: totals over all of them, and each
/// segment's own p50 and p99.
struct Pool {
  perfbench::Tally tally;
  std::uint64_t recovered = 0;
  double seconds = 0.0;
  std::vector<double> latency_us;  ///< every result, ascending after done()
  std::vector<double> segment_p50;
  std::vector<double> send_lag_us;
  double partial_frames = 0.0;

  void add(const PhaseRun& run) {
    tally += run.tally();
    recovered += run.recovered;
    seconds += run.seconds();
    const auto lat = run.latency_us();
    segment_p50.push_back(perfbench::quantile(lat, 0.5));
    latency_us.insert(latency_us.end(), lat.begin(), lat.end());
    for (const Outcome& o : run.req) {
      if (!run.measured(o)) continue;
      send_lag_us.push_back(o.send_lag_us);
      partial_frames += o.partial_frames;
    }
  }
  void done() {
    std::sort(latency_us.begin(), latency_us.end());
    std::sort(send_lag_us.begin(), send_lag_us.end());
  }
  /// p99 of every result, or 0 when too few results support one.
  [[nodiscard]] double p99() const {
    return perfbench::tail_supported(latency_us.size(), 0.99)
               ? perfbench::quantile(latency_us, 0.99)
               : 0.0;
  }
  [[nodiscard]] double throughput_rps() const {
    return seconds > 0
               ? static_cast<double>(tally.results - tally.mismatches) / seconds
               : 0.0;
  }
};

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_fingerprint(const perfbench::Fingerprint& f) {
  std::cout << "fingerprint {\"hardware_threads\": " << f.hardware_threads
            << ", \"cpu_model\": \"" << json_escape(f.cpu_model)
            << "\", \"simd_detected\": \"" << f.simd_detected
            << "\", \"simd_dispatched\": \"" << f.simd_dispatched
            << "\", \"scan_pool_width\": " << f.scan_pool_width
            << ", \"build_type\": \"" << f.build_type
            << "\", \"read_gbps\": " << number(f.read_gbps) << "}\n";
}

/// Prints the result line. \return Process exit code.
int emit(bool correct, const perfbench::Tally& basis,
         const std::vector<Metric>& metrics) {
  bool finite = true;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(basis.sent);
  out += ", \"failed\": " + std::to_string(basis.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    finite = finite && std::isfinite(m.value);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
           number(std::isfinite(m.value) ? m.value : 0.0) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  if (!finite) {
    log("a metric is not a finite number");
    return 1;
  }
  std::cout << out << std::endl;
  return correct ? 0 : 1;
}


// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics
// ---------------------------------------------------------------------------

/// The SLO ladder: binary search for the highest fixed rate whose p99
/// meets the workload's limit with no growing backlog. A rung that fails
/// is probed once more on fresh inputs and passes if either attempt does:
/// a pause of the box only ever fails a probe, so one miss is not yet
/// evidence the rate is too high. \return The rate, 0 when no rung passed.
double search_ladder(const Workload& w, const Stack& stack, Traffic& traffic,
                     const Schedule& sch, bool& correct) {
  SpanLog off(false);
  const auto probe_once = [&](std::size_t rung, std::uint64_t stream) {
    const double rate = w.rung_rate(rung);
    const double s = std::max(sch.probe_s, kMinProbeRequests / rate);
    const PhaseInputs in = open_inputs(traffic, rate, s, stream);
    PhaseRun probe = wire_open(w, stack.server->port(), in, off, 0);
    verify(w, *stack.model, in.targets, probe);
    correct = correct && probe.tally().correct();
    const auto step = probe.step(rate, kWindows);
    const bool pass = perfbench::meets_slo(step, w.slo_limit_us);
    const auto p99 = perfbench::step_p99(step);
    log("ladder " + number(rate) + " req/s: p99 " +
        (p99 ? number(*p99) : std::string("unsupported")) + " us, backlog " +
        std::to_string(step.backlog_at_end) + ", failed " +
        std::to_string(probe.tally().failed()) + "/" +
        std::to_string(probe.req.size()) + (pass ? ", pass" : ", fail"));
    return pass;
  };
  const auto passed = perfbench::ladder_search(kRungs, [&](std::size_t rung) {
    return probe_once(rung, kLadderStream + rung) ||
           probe_once(rung, kRetryStream + rung);
  });
  return passed ? w.rung_rate(*passed) : 0.0;
}

int run_untraced(const Workload& w, std::uint64_t seed, double seconds,
                 Clock::time_point process_start) {
  SpanLog off(false);
  const Schedule sch = schedule(seconds);

  // Set-up from nothing, at least three times; setup_s is the median. The
  // first counts from process start. Cheap set-ups repeat for about 2 s.
  std::vector<double> setup_s;
  Stack stack;
  setup_s.push_back(set_up(w, stack, off, process_start));
  double setup_total = setup_s.back();
  while (setup_s.size() < 3 || (setup_s.size() < 200 && setup_total < 2.0)) {
    stack.tear_down();
    setup_s.push_back(set_up(w, stack, off, Clock::now()));
    setup_total += setup_s.back();
  }

  Traffic traffic(w, *stack.model, seed);
  const double setup_rss = perfbench::peak_rss_mb();
  const std::uint16_t port = stack.server->port();
  (void)wire_open(w, port,
                  reference_inputs(w, traffic, sch.warmup_s, kWarmupStream),
                  off, 0);
  Pool pool;
  double rss = 0.0;
  for (std::size_t k = 0; k < kSegments; ++k) {
    // Each segment is drawn just before it runs, so the peak below holds
    // the stack and one segment's targets, not every segment's.
    const PhaseInputs seg =
        reference_inputs(w, traffic, sch.segment_s, kSegmentStream + k);
    PhaseRun run = wire_open(w, port, seg, off, 0);
    // Peak memory through the first segment: later ones only repeat it.
    if (k == 0) rss = perfbench::peak_rss_mb();
    verify(w, *stack.model, seg.targets, run);
    pool.add(run);
  }
  pool.done();
  stack.tear_down();
  print_fingerprint(perfbench::fingerprint());

  const perfbench::Tally& t = pool.tally;
  std::cout << "reference: " << t.sent << " sent, " << t.results
            << " results, " << t.rejects << " rejects, " << t.errors
            << " errors, " << t.timeouts << " timeouts, " << t.mismatches
            << " mismatches, " << t.faults << " response faults; "
            << pool.latency_us.size() << " latency samples in " << kSegments
            << " segments, p99 " << number(pool.p99())
            << " us (ungated); segment p50s";
  for (const double v : pool.segment_p50) std::cout << " " << number(v);
  std::cout << " us; peak rss " << number(setup_rss)
            << " MB after set-up, " << number(rss)
            << " MB through the first segment; setup reps " << setup_s.size()
            << "\n";
  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s"},
      {"throughput_rps", pool.throughput_rps(), "1/s"},
      {"latency_p50_us", median(pool.segment_p50), "us"},
      {"served_frac", 1.0 - t.failed_frac(), "frac"},
      {"accuracy",
       static_cast<double>(pool.recovered) /
           static_cast<double>(std::max<std::uint64_t>(1, t.results)),
       "frac"},
      {"peak_rss_mb", rss, "MB"},
  };
  return emit(t.correct(), t, metrics);
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------------

/// Direct factorize on one thread over the reference inputs in order, then
/// factorize_block over the same targets in blocks of the engine's batch
/// size.
struct CoreRun {
  std::vector<double> us;  ///< per factorize call, ascending
  double sim_ops = 0, rounds = 0, combinations = 0;
  double block_us_per_target = 0.0;
};

CoreRun core_phase(const Workload& w, const core::Factorizer& fz,
                   const TargetSet& in, double seconds, SpanLog& spans,
                   std::uint32_t parent) {
  CoreRun out;
  const auto opts = request_options(w);
  const auto stop = Clock::now() + to_duration(seconds);
  std::size_t n = 0;
  // At least 1000 calls so the p99 is supported, when the inputs allow.
  for (; n < in.size() && (n < 1000 || Clock::now() < stop); ++n) {
    const hdc::Hypervector target = in.target(n);
    const auto t0 = Clock::now();
    const core::FactorizeResult r = fz.factorize(target, opts);
    const auto t1 = Clock::now();
    spans.add("core.factorize", t0, t1, parent, n);
    out.us.push_back(us_between(t0, t1));
    out.sim_ops += static_cast<double>(r.similarity_ops);
    out.rounds += static_cast<double>(r.rounds);
    out.combinations += static_cast<double>(r.combinations_checked);
  }
  const double calls = static_cast<double>(std::max<std::size_t>(1, n));
  for (double* v : {&out.sim_ops, &out.rounds, &out.combinations}) {
    *v /= calls;
  }
  std::sort(out.us.begin(), out.us.end());

  const std::size_t q = service::ServiceOptions{}.max_batch;
  double block_us = 0.0;
  std::size_t blocked = 0;
  for (std::size_t b = 0; b + q <= std::max(n, q) && b + q <= in.size();
       b += q) {
    std::vector<hdc::Hypervector> block;
    for (std::size_t i = b; i < b + q; ++i) block.push_back(in.target(i));
    const auto t0 = Clock::now();
    (void)fz.factorize_block(block, opts);
    const auto t1 = Clock::now();
    spans.add("core.factorize_block", t0, t1, parent, b);
    block_us += us_between(t0, t1);
    blocked += q;
  }
  out.block_us_per_target = blocked ? block_us / static_cast<double>(blocked)
                                    : 0.0;
  return out;
}

/// Scans of the model's level-1 codebooks through hdc::ItemMemory, with
/// the unbound queries factorize forms (target bound with the product of
/// the other classes' labels).
struct HdcRun {
  std::vector<double> scan_us;  ///< best(q), ascending
  double block_us_per_query = 0.0;  ///< best_block over 64 queries
  double pack_s = 0.0;  ///< building the memories at the default backend
  double bytes_per_scan = 0.0;  ///< from codebook sizes, not measured
};

bool packs(const hdc::Hypervector& v) {
  for (const auto c : v.components()) {
    if (c < -1 || c > 1) return false;
  }
  return true;
}

HdcRun hdc_phase(const Workload& w, const service::Model& model,
                 const TargetSet& in, double seconds, SpanLog& spans,
                 std::uint32_t parent) {
  HdcRun out;
  const auto& books = model.books();
  std::vector<hdc::ItemMemory> mems;
  for (std::size_t c = 0; c < w.classes; ++c) {
    const auto t0 = Clock::now();
    mems.emplace_back(books.level_codebook(c, 1));
    const auto t1 = Clock::now();
    spans.add("hdc.pack", t0, t1, parent, c);
    out.pack_s += std::chrono::duration<double>(t1 - t0).count();
  }

  constexpr std::size_t kBlock = 64;
  const std::size_t targets = std::min<std::size_t>(in.size(), 1024);
  std::vector<std::vector<hdc::Hypervector>> queries(w.classes);
  for (std::size_t i = 0; i < targets; ++i) {
    const hdc::Hypervector t = in.target(i);
    for (std::size_t c = 0; c < w.classes; ++c) {
      queries[c].push_back(hdc::bind(t, books.other_labels_key(c)));
    }
  }
  const auto stop = Clock::now() + to_duration(seconds);
  for (std::size_t i = 0; i < targets && (i < 200 || Clock::now() < stop);
       ++i) {
    for (std::size_t c = 0; c < w.classes; ++c) {
      const auto t0 = Clock::now();
      (void)mems[c].best(queries[c][i]);
      const auto t1 = Clock::now();
      spans.add("hdc.scan", t0, t1, parent, i);
      out.scan_us.push_back(us_between(t0, t1));
    }
  }
  std::sort(out.scan_us.begin(), out.scan_us.end());

  double block_us = 0.0;
  std::size_t blocked = 0;
  for (std::size_t c = 0; c < w.classes; ++c) {
    for (std::size_t b = 0; b + kBlock <= targets; b += kBlock) {
      const std::span<const hdc::Hypervector> block(queries[c].data() + b,
                                                    kBlock);
      const auto t0 = Clock::now();
      (void)mems[c].best_block(block);
      const auto t1 = Clock::now();
      spans.add("hdc.scan_block", t0, t1, parent, b);
      block_us += us_between(t0, t1);
      blocked += kBlock;
    }
  }
  out.block_us_per_query =
      blocked ? block_us / static_cast<double>(blocked) : 0.0;

  // Bytes one scan streams: the packed sign planes when the query packs,
  // else the int32 codebook the scalar loop reads.
  const double rows = static_cast<double>(books.level_codebook(0, 1).size());
  out.bytes_per_scan =
      targets > 0 && packs(queries[0][0])
          ? rows * static_cast<double>((w.dim + 63) / 64) * 8.0
          : rows * static_cast<double>(w.dim) * 4.0;
  return out;
}

double p(const std::vector<double>& sorted, double q) {
  return perfbench::quantile(sorted, q);
}

int run_traced(const Workload& w, std::uint64_t seed, double seconds,
               Clock::time_point process_start, const std::string& trace_out) {
  SpanLog spans(true);
  SpanLog off(false);
  const Schedule sch = schedule(seconds);
  Stack stack;
  (void)set_up(w, stack, spans, process_start);
  Traffic traffic(w, *stack.model, seed);
  const Reference ref = draw_reference(w, traffic, sch);
  bool correct = true;
  // Every reference segment through one entry point, verified and pooled.
  const auto replay = [&](auto&& entry) {
    Pool pool;
    for (const PhaseInputs& seg : ref.segments) {
      PhaseRun run = entry(seg);
      verify(w, *stack.model, seg.targets, run);
      correct = correct && run.tally().correct();
      pool.add(run);
    }
    pool.done();
    return pool;
  };

  // The wire without spans, on a warmed stack: what the untraced run
  // measures.
  (void)wire_open(w, stack.server->port(), ref.warmup, off, 0);
  const Pool plain = replay([&](const PhaseInputs& seg) {
    return wire_open(w, stack.server->port(), seg, off, 0);
  });

  // The wire with spans, on a fresh engine and server warmed the same way.
  rewarm(w, stack, ref);
  const service::MetricsSnapshot eng0 = stack.engine->metrics();
  std::uint32_t root = spans.open("phase.wire");
  const Pool wire = replay([&](const PhaseInputs& seg) {
    return wire_open(w, stack.server->port(), seg, spans, root);
  });
  spans.close(root);
  const service::MetricsSnapshot eng1 = stack.engine->metrics();
  const service::MetricsSnapshot net1 = stack.server->net_metrics();

  // The engine entry point, same inputs and schedule, no socket.
  rewarm(w, stack, ref);
  root = spans.open("phase.engine");
  const Pool eng = replay([&](const PhaseInputs& seg) {
    return engine_open(w, *stack.engine, seg, spans, root);
  });
  spans.close(root);

  // The SLO ladder on a fresh engine and server.
  rewarm(w, stack, ref);
  const double slo_rps = search_ladder(w, stack, traffic, sch, correct);
  stack.server.reset();
  stack.engine.reset();

  const TargetSet& targets = ref.segments.front().targets;
  root = spans.open("phase.core");
  const CoreRun core = core_phase(w, stack.model->factorizer(), targets,
                                  sch.probe_s, spans, root);
  spans.close(root);
  root = spans.open("phase.hdc");
  const HdcRun hdc = hdc_phase(w, *stack.model, targets, sch.probe_s, spans,
                               root);
  spans.close(root);
  stack.tear_down();

  const perfbench::Fingerprint fp = perfbench::fingerprint();
  print_fingerprint(fp);
  if (!trace_out.empty() && !spans.write_chrome_json(trace_out)) {
    log("cannot write " + trace_out);
  }

  // p50 taxes and the overhead compare the median segment's p50, the
  // statistic the untraced run reports; p99 taxes the pooled p99.
  const auto p50 = [](const Pool& pool) { return median(pool.segment_p50); };
  const auto p99 = [](const Pool& pool) { return pool.p99(); };
  const perfbench::Tally& wt = wire.tally;
  const auto stage = [](const service::MetricsSnapshot& s, service::Stage st) {
    return s.stages[static_cast<std::size_t>(st)].p50_us;
  };
  const auto delta = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double submitted = std::max(1.0, delta(eng1.submitted, eng0.submitted));
  const double batches = std::max(1.0, delta(eng1.batches, eng0.batches));
  const double scan_p50 = p(hdc.scan_us, 0.5);
  const double scan_gbps =
      scan_p50 > 0 ? hdc.bytes_per_scan / (scan_p50 * 1e-6) / 1e9 : 0.0;

  std::cout << "traced: wire " << wire.latency_us.size() << " / engine "
            << eng.latency_us.size()
            << " / core " << core.us.size() << " / hdc " << hdc.scan_us.size()
            << " samples, " << spans.size() << " spans\n";
  const std::vector<Metric> metrics = {
      {"net.tax_us_p50", p50(wire) - p50(eng), "us"},
      {"net.tax_us_p99", p99(wire) - p99(eng), "us"},
      {"net.reject_frac",
       static_cast<double>(wt.rejects) / std::max<double>(1, wt.sent), "frac"},
      {"net.read_us_p50", stage(net1, service::Stage::kNetRead), "us_pow2"},
      {"net.admission_us_p50", stage(net1, service::Stage::kAdmission),
       "us_pow2"},
      {"net.write_us_p50", stage(net1, service::Stage::kNetWrite), "us_pow2"},
      {"net.partial_frames_per_req",
       wire.partial_frames / std::max<double>(1, wt.results), "count"},
      {"service.tax_us_p50", p50(eng) - p(core.us, 0.5), "us"},
      {"service.tax_us_p99", p99(eng) - p(core.us, 0.99), "us"},
      {"service.queue_wait_us_p50", stage(eng1, service::Stage::kQueueWait),
       "us_pow2"},
      {"service.batch_assembly_us_p50",
       stage(eng1, service::Stage::kBatchAssembly), "us_pow2"},
      {"service.scan_us_p50", stage(eng1, service::Stage::kScan), "us_pow2"},
      {"service.mean_batch",
       delta(eng1.batched_requests, eng0.batched_requests) / batches, "count"},
      {"service.cache_hit_frac",
       delta(eng1.cache_hits, eng0.cache_hits) / submitted, "frac"},
      {"service.coalesced_frac",
       delta(eng1.coalesced, eng0.coalesced) / submitted, "frac"},
      {"core.factorize_us_p50", p(core.us, 0.5), "us"},
      {"core.factorize_us_p99", p(core.us, 0.99), "us"},
      {"core.block_us_per_target", core.block_us_per_target, "us"},
      {"core.sim_ops_per_req", core.sim_ops, "count"},
      {"core.rounds_per_req", core.rounds, "count"},
      {"core.combinations_per_req", core.combinations, "count"},
      {"hdc.scan_us_p50", scan_p50, "us"},
      {"hdc.scan_block_us_per_query", hdc.block_us_per_query, "us"},
      {"hdc.scan_gbps", scan_gbps, "GB/s"},
      {"hdc.bw_frac", fp.read_gbps > 0 ? scan_gbps / fp.read_gbps : 0.0,
       "frac"},
      {"hdc.pack_s", hdc.pack_s, "s"},
      {"e2e.latency_p50_us", p50(plain), "us"},
      {"e2e.latency_p99_us", p99(plain), "us"},
      {"e2e.slo_rps", slo_rps, "1/s"},
      {"bench.send_lag_us_p99", p(plain.send_lag_us, 0.99), "us"},
      {"bench.trace_overhead", p50(wire) / p50(plain), "ratio"},
      {"machine.read_gbps", fp.read_gbps, "GB/s"},
      {"machine.hardware_threads", static_cast<double>(fp.hardware_threads),
       "count"},
      {"machine.scan_pool_width", static_cast<double>(fp.scan_pool_width),
       "count"},
  };
  return emit(correct, wt, metrics);
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        a.trace = std::stoi(val);
      } else if (key == "--trace-out") {
        a.trace_out = val;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || !(a.seconds > 0) ||
      (a.trace != 0 && a.trace != 1)) {
    return std::nullopt;
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  const auto args = parse(argc, argv);
  if (!args) {
    std::cerr << "usage: fhbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n";
    return 2;
  }
  try {
    const Workload w = workload(args->workload);
    return args->trace == 1
               ? run_traced(w, args->seed, args->seconds, process_start,
                            args->trace_out)
               : run_untraced(w, args->seed, args->seconds, process_start);
  } catch (const std::exception& e) {
    log(e.what());
    return 1;
  }
}
