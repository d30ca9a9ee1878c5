// Fault-injection suite for net::NetServer over real sockets.
//
// Everything here attacks the server the way a broken or hostile client
// would — trickled partial frames (slow loris), mid-request disconnects,
// pipelined bursts past the admission quota, garbage bytes — and asserts
// the server's contract: misbehaving connections are shed (with accurate
// counters and exactly-once admission-slot release), well-behaved ones are
// unaffected, and shutdown drains every admitted request. The suite name
// (NetFaults) is matched by the TSan job / `check.sh --tsan`, so every
// cross-thread path (loop submits / engine completion callbacks / stop())
// runs under the race detector.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "net/net.hpp"
#include "service/service.hpp"
#include "taxonomy/generator.hpp"

namespace {

using namespace factorhd;
using namespace std::chrono_literals;

/// Polls `pred` until true or `timeout` expires (server counters are
/// updated on the loop thread; tests must wait, not assume).
bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds timeout = 5s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

class NetFaults : public ::testing::Test {
 protected:
  static constexpr std::size_t kDim = 512;

  void SetUp() override {
    util::Xoshiro256 rng(4242);
    model_ = service::Model::make(
        "faults", tax::TaxonomyCodebooks(tax::Taxonomy(3, {8, 4}), kDim, rng));
    const tax::Taxonomy& taxonomy = model_->books().taxonomy();
    target_ = model_->encoder().encode_object(tax::random_object(taxonomy, rng));
  }

  /// Engine whose micro-batcher HOLDS requests (long flush deadline, large
  /// batch) so in-flight state is observable from the outside.
  [[nodiscard]] std::unique_ptr<service::FactorizationEngine> slow_engine() {
    return std::make_unique<service::FactorizationEngine>(
        model_, service::ServiceOptions{.max_batch = 1024,
                                        .max_delay_us = 200'000,
                                        .cache_capacity = 0});
  }

  /// Engine that answers promptly.
  [[nodiscard]] std::unique_ptr<service::FactorizationEngine> fast_engine() {
    return std::make_unique<service::FactorizationEngine>(
        model_, service::ServiceOptions{.max_batch = 1,
                                        .max_delay_us = 0,
                                        .cache_capacity = 0});
  }

  std::shared_ptr<const service::Model> model_;
  hdc::Hypervector target_;
};

// ---------------------------------------------------------------------------
// Slow loris: a partial frame trickled (or stalled) forever must hit the
// idle timeout — progress is protocol progress, not socket activity.
// ---------------------------------------------------------------------------

TEST_F(NetFaults, SlowLorisPartialHeaderTimesOut) {
  auto engine = fast_engine();
  net::ServerOptions opts;
  opts.idle_timeout_ms = 300;
  net::NetServer server(*engine, opts);
  server.start();

  net::NetClient loris("127.0.0.1", server.port());
  // Half a header, then silence.
  const std::uint8_t partial[] = {0x46, 0x48, 0x4E, 0x31, 0x01, 0x00};
  loris.send_raw(partial);

  EXPECT_TRUE(eventually(
      [&] { return server.counters().disconnects_idle >= 1; }))
      << "slow-loris connection was not shed";
  // The server closed us: the next read sees EOF.
  loris.set_recv_timeout(5s);
  EXPECT_THROW((void)loris.recv_response(), std::runtime_error);

  // A healthy client on the same server is unaffected afterwards.
  net::NetClient healthy("127.0.0.1", server.port());
  const core::FactorizeResult r = healthy.factorize(target_);
  EXPECT_TRUE(r == model_->factorizer().factorize(target_, {}));
  server.stop();
}

TEST_F(NetFaults, IdleConnectionWithNoBytesTimesOut) {
  auto engine = fast_engine();
  net::ServerOptions opts;
  opts.idle_timeout_ms = 200;
  net::NetServer server(*engine, opts);
  server.start();

  net::NetClient idle("127.0.0.1", server.port());
  EXPECT_TRUE(eventually(
      [&] { return server.counters().disconnects_idle >= 1; }));
  server.stop();
}

// ---------------------------------------------------------------------------
// Mid-request disconnect: the client vanishes while its request is in
// flight. The response is dropped (not delivered, not leaked) and the
// admission slot is released — the accounting a stuck quota would betray.
// ---------------------------------------------------------------------------

TEST_F(NetFaults, MidRequestDisconnectDropsResponseAndReleasesSlot) {
  auto engine = slow_engine();
  net::NetServer server(*engine, {});
  server.start();

  {
    net::NetClient doomed("127.0.0.1", server.port());
    (void)doomed.send_factorize(target_);
    // Wait until the request is admitted, then vanish.
    ASSERT_TRUE(eventually(
        [&] { return server.admission_stats().admitted >= 1; }));
  }  // ~NetClient closes the socket with the request still in flight

  EXPECT_TRUE(eventually(
      [&] { return server.counters().responses_dropped >= 1; }))
      << "response for the vanished client was not accounted as dropped";

  // The slot was released: a fresh client can run a full quota's worth of
  // requests through the same server.
  net::NetClient fresh("127.0.0.1", server.port());
  fresh.set_recv_timeout(10s);
  const core::FactorizeResult r = fresh.factorize(target_);
  EXPECT_TRUE(r == model_->factorizer().factorize(target_, {}));
  server.stop();
}

// ---------------------------------------------------------------------------
// Admission control: pipelined bursts past the bounds answer explicit
// kOverload frames, and admitted + rejected == sent, exactly.
// ---------------------------------------------------------------------------

TEST_F(NetFaults, PipelinedBurstPastQuotaAnswersOverload) {
  auto engine = slow_engine();  // holds requests so in-flight accumulates
  net::ServerOptions opts;
  opts.admission.client_quota = 2;
  net::NetServer server(*engine, opts);
  server.start();

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(10s);
  constexpr std::size_t kSent = 6;
  for (std::size_t i = 0; i < kSent; ++i) {
    (void)client.send_factorize(target_);
  }

  std::size_t results = 0;
  std::size_t overloads = 0;
  for (std::size_t i = 0; i < kSent; ++i) {
    const net::NetClient::Response resp = client.recv_response();
    if (resp.kind == net::NetClient::Response::Kind::kResult) {
      ++results;
      EXPECT_TRUE(resp.result == model_->factorizer().factorize(target_, {}));
    } else {
      ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kOverload);
      EXPECT_EQ(resp.overload.code, net::OverloadCode::kQuotaExceeded);
      EXPECT_EQ(resp.overload.limit, 2u);
      ++overloads;
    }
  }
  // The burst lands while the slow engine holds the first two, so at least
  // quota-many succeed and at least one is rejected; every send is
  // accounted exactly once.
  EXPECT_GE(results, 2u);
  EXPECT_GE(overloads, 1u);
  EXPECT_EQ(results + overloads, kSent);

  const net::AdmissionStats stats = server.admission_stats();
  EXPECT_EQ(stats.admitted, results);
  EXPECT_EQ(stats.rejected_quota, overloads);
  EXPECT_EQ(stats.rejected_full, 0u);
  EXPECT_EQ(stats.admitted + stats.rejected_quota + stats.rejected_full, kSent);
  server.stop();
}

TEST_F(NetFaults, QueueFullAnswersOverload) {
  // The engine queue (capacity 1, the one depth bound) holds a request for
  // 300 ms, and the loop's submit never blocks: of five pipelined sends at
  // most one is queued at a time, so at least two answer queue-full.
  auto engine = std::make_unique<service::FactorizationEngine>(
      model_, service::ServiceOptions{.max_batch = 1024,
                                      .max_delay_us = 300'000,
                                      .queue_capacity = 1,
                                      .cache_capacity = 0});
  net::ServerOptions opts;
  opts.admission.client_quota = 64;
  net::NetServer server(*engine, opts);
  server.start();

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(10s);
  constexpr std::size_t kSent = 5;
  for (std::size_t i = 0; i < kSent; ++i) {
    (void)client.send_factorize(target_);
  }
  std::size_t results = 0;
  std::size_t full = 0;
  for (std::size_t i = 0; i < kSent; ++i) {
    const net::NetClient::Response resp = client.recv_response();
    if (resp.kind == net::NetClient::Response::Kind::kResult) {
      ++results;
    } else {
      ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kOverload);
      EXPECT_EQ(resp.overload.code, net::OverloadCode::kQueueFull);
      ++full;
    }
  }
  EXPECT_EQ(results + full, kSent);
  EXPECT_GE(full, 2u);
  const net::AdmissionStats stats = server.admission_stats();
  EXPECT_EQ(stats.rejected_full, full);
  EXPECT_EQ(stats.admitted, results);
  server.stop();
}

TEST_F(NetFaults, OverQuotaFrameIsShedBeforeItsPayloadIsDecoded) {
  // Quota 1 and an engine that holds its one request until it is stopped:
  // the second factorize frame is over quota. Its payload is undecodable,
  // yet it answers kQuotaExceeded, not kBadPayload — the loop sheds from
  // the header without decoding.
  auto engine = std::make_unique<service::FactorizationEngine>(
      model_, service::ServiceOptions{.max_batch = 1024,
                                      .max_delay_us = 60'000'000,
                                      .cache_capacity = 0});
  net::ServerOptions opts;
  opts.admission.client_quota = 1;
  net::NetServer server(*engine, opts);
  server.start();

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(10s);
  const std::uint64_t held = client.send_factorize(target_);
  ASSERT_TRUE(eventually(
      [&] { return server.admission_stats().admitted >= 1; }));
  const std::uint8_t garbage[] = {0xFF, 0x01, 0x02};
  client.send_raw(net::encode_frame(net::Opcode::kFactorize, 0, 900, garbage));

  const net::NetClient::Response shed = client.recv_response();
  ASSERT_EQ(shed.kind, net::NetClient::Response::Kind::kOverload);
  EXPECT_EQ(shed.request_id, 900u);
  EXPECT_EQ(shed.overload.code, net::OverloadCode::kQuotaExceeded);
  engine->stop();  // runs the held request
  const net::NetClient::Response result = client.recv_response();
  ASSERT_EQ(result.kind, net::NetClient::Response::Kind::kResult);
  EXPECT_EQ(result.request_id, held);

  // With the slot free again, the same frame is decoded and refused.
  client.send_raw(net::encode_frame(net::Opcode::kFactorize, 0, 901, garbage));
  const net::NetClient::Response bad = client.recv_response();
  ASSERT_EQ(bad.kind, net::NetClient::Response::Kind::kError);
  EXPECT_EQ(bad.error_code, net::ErrorCode::kBadPayload);
  EXPECT_EQ(server.admission_stats().rejected_quota, 1u);
  server.stop();
}

// ---------------------------------------------------------------------------
// Garbage on the wire: one best-effort kError frame, then disconnect —
// never a crash, never a hang, and the parser never resynchronizes into
// a half-broken stream.
// ---------------------------------------------------------------------------

TEST_F(NetFaults, GarbageBytesAnswerErrorThenDisconnect) {
  auto engine = fast_engine();
  net::NetServer server(*engine, {});
  server.start();

  net::NetClient vandal("127.0.0.1", server.port());
  vandal.set_recv_timeout(5s);
  const std::uint8_t garbage[] = {0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE,
                                  0xEF, 0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD,
                                  0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF, 0xDE,
                                  0xAD, 0xBE, 0xEF};
  vandal.send_raw(garbage);

  const net::NetClient::Response resp = vandal.recv_response();
  ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kError);
  EXPECT_EQ(resp.error_code, net::ErrorCode::kBadFrame);
  EXPECT_THROW((void)vandal.recv_response(), std::runtime_error);  // EOF
  EXPECT_TRUE(eventually(
      [&] { return server.counters().disconnects_protocol >= 1; }));

  // Other connections are untouched.
  net::NetClient healthy("127.0.0.1", server.port());
  const core::FactorizeResult r = healthy.factorize(target_);
  EXPECT_TRUE(r == model_->factorizer().factorize(target_, {}));
  server.stop();
}

TEST_F(NetFaults, CorruptChecksumAnswersErrorThenDisconnect) {
  auto engine = fast_engine();
  net::NetServer server(*engine, {});
  server.start();

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(5s);
  const std::uint8_t payload[] = {1, 2, 3, 4};
  auto frame = net::encode_frame(net::Opcode::kPing, 0, 9, payload);
  frame[net::kHeaderSize] ^= 0x01;  // payload bit flip
  client.send_raw(frame);

  const net::NetClient::Response resp = client.recv_response();
  ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kError);
  EXPECT_EQ(resp.error_code, net::ErrorCode::kBadFrame);
  EXPECT_THROW((void)client.recv_response(), std::runtime_error);
  server.stop();
}

TEST_F(NetFaults, UnknownOpcodeKeepsTheConnection) {
  auto engine = fast_engine();
  net::NetServer server(*engine, {});
  server.start();

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(5s);
  auto frame = net::encode_frame(net::Opcode::kPing, 0, 11, {});
  frame[4] = 0x0F;  // a request-range opcode the server does not speak
  client.send_raw(frame);

  const net::NetClient::Response resp = client.recv_response();
  ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kError);
  EXPECT_EQ(resp.error_code, net::ErrorCode::kUnknownOpcode);
  // Not fatal: the same connection still factorizes.
  const core::FactorizeResult r = client.factorize(target_);
  EXPECT_TRUE(r == model_->factorizer().factorize(target_, {}));
  server.stop();
}

TEST_F(NetFaults, DimensionMismatchAnswersTypedError) {
  auto engine = fast_engine();
  net::NetServer server(*engine, {});
  server.start();

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(5s);
  try {
    (void)client.factorize(hdc::Hypervector({1, -1, 1, -1}));
    FAIL() << "dimension mismatch was accepted";
  } catch (const net::ServerError& e) {
    EXPECT_EQ(e.code(), net::ErrorCode::kDimensionMismatch);
  }
  // The connection survives a rejected request.
  const core::FactorizeResult r = client.factorize(target_);
  EXPECT_TRUE(r == model_->factorizer().factorize(target_, {}));
  server.stop();
}

// ---------------------------------------------------------------------------
// Shutdown drains: every admitted request is answered before the listener
// goes away; nothing is silently dropped and nothing hangs.
// ---------------------------------------------------------------------------

TEST_F(NetFaults, StopDrainsInFlightRequests) {
  auto engine = slow_engine();  // requests are in flight when stop() lands
  net::NetServer server(*engine, {});
  server.start();

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(10s);
  constexpr std::size_t kSent = 4;
  for (std::size_t i = 0; i < kSent; ++i) {
    (void)client.send_factorize(target_);
  }
  ASSERT_TRUE(eventually(
      [&] { return server.admission_stats().admitted >= kSent; }));

  std::jthread stopper([&] { server.stop(); });
  const core::FactorizeResult expected =
      model_->factorizer().factorize(target_, {});
  for (std::size_t i = 0; i < kSent; ++i) {
    const net::NetClient::Response resp = client.recv_response();
    ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kResult)
        << "in-flight request " << i << " was not drained";
    EXPECT_TRUE(resp.result == expected);
  }
  stopper.join();
  EXPECT_FALSE(server.running());
}

TEST_F(NetFaults, StopDuringPipelinedBurstAnswersEveryRequestOnce) {
  // stop() lands while the loop is still submitting a pipelined burst. The
  // engine holds what it takes until every frame has been read, so each
  // one is answered exactly once: with its result (submitted before the
  // drain began) or kShuttingDown (after).
  auto engine = std::make_unique<service::FactorizationEngine>(
      model_, service::ServiceOptions{.max_batch = 4096,
                                      .max_delay_us = 60'000'000,
                                      .queue_capacity = 4096,
                                      .cache_capacity = 0});
  net::ServerOptions opts;
  opts.admission.client_quota = 4096;
  net::NetServer server(*engine, opts);
  server.start();

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(20s);
  constexpr std::size_t kSent = 256;
  std::jthread stopper([&] {
    while (server.counters().frames_in < kSent / 4) std::this_thread::yield();
    server.stop();
  });
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kSent; ++i) {
    ids.push_back(client.send_factorize(target_));
  }
  // stop() waits on the held requests, so the loop keeps reading; once it
  // has read the whole burst, stopping the engine runs the held flight.
  ASSERT_TRUE(eventually(
      [&] { return server.counters().frames_in >= kSent; }, 60s));
  engine->stop();

  const core::FactorizeResult expected =
      model_->factorizer().factorize(target_, {});
  std::map<std::uint64_t, int> answers;
  std::size_t results = 0;
  for (std::size_t i = 0; i < kSent; ++i) {
    const net::NetClient::Response resp = client.recv_response();
    ++answers[resp.request_id];
    if (resp.kind == net::NetClient::Response::Kind::kResult) {
      ++results;
      EXPECT_TRUE(resp.result == expected);
    } else {
      ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kError);
      EXPECT_EQ(resp.error_code, net::ErrorCode::kShuttingDown);
    }
  }
  EXPECT_THROW((void)client.recv_response(), std::runtime_error);  // EOF
  stopper.join();
  ASSERT_EQ(answers.size(), kSent);
  for (const std::uint64_t id : ids) EXPECT_EQ(answers[id], 1) << id;
  EXPECT_GE(results, kSent / 4 - 1);  // frames handled before stop() began
  EXPECT_EQ(server.admission_stats().admitted, results);
}

TEST_F(NetFaults, RequestsAfterDrainStartAreRejectedShuttingDown) {
  auto engine = slow_engine();
  net::NetServer server(*engine, {});
  server.start();

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(10s);
  (void)client.send_factorize(target_);
  ASSERT_TRUE(eventually(
      [&] { return server.admission_stats().admitted >= 1; }));

  std::jthread stopper([&] { server.stop(); });
  // Responses during the drain are either the real result or a typed
  // kShuttingDown error for frames landing after the drain began — but
  // never silence.
  std::size_t seen = 0;
  try {
    while (seen < 1) {
      const net::NetClient::Response resp = client.recv_response();
      ASSERT_TRUE(resp.kind == net::NetClient::Response::Kind::kResult ||
                  (resp.kind == net::NetClient::Response::Kind::kError &&
                   resp.error_code == net::ErrorCode::kShuttingDown));
      ++seen;
    }
  } catch (const std::runtime_error&) {
    // EOF after the drain finished is also a clean outcome.
  }
  stopper.join();
  EXPECT_GE(seen, 1u);
}

// ---------------------------------------------------------------------------
// The completion path: results reach the loop through engine callbacks, so
// no response waits behind another request's computation, and a submit the
// engine refuses is answered through the same path.
// ---------------------------------------------------------------------------

TEST_F(NetFaults, CacheHitOvertakesHeldColdRequests) {
  // The batcher holds cold requests for 500 ms. A cache hit never enters
  // its queue, so its response must overtake them on the same connection.
  auto engine = std::make_unique<service::FactorizationEngine>(
      model_, service::ServiceOptions{.max_batch = 1024,
                                      .max_delay_us = 500'000,
                                      .cache_capacity = 64});
  net::NetServer server(*engine, {});
  server.start();
  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(10s);
  (void)client.factorize(target_);  // cached from here on

  util::Xoshiro256 rng(77);
  const tax::Taxonomy& taxonomy = model_->books().taxonomy();
  constexpr std::size_t kCold = 3;
  for (std::size_t i = 0; i < kCold; ++i) {
    (void)client.send_factorize(
        model_->encoder().encode_object(tax::random_object(taxonomy, rng)));
  }
  const std::uint64_t hit_id = client.send_factorize(target_);
  const net::NetClient::Response first = client.recv_response();
  ASSERT_EQ(first.kind, net::NetClient::Response::Kind::kResult);
  EXPECT_EQ(first.request_id, hit_id)
      << "the cache hit was queued behind held cold requests";
  EXPECT_TRUE(first.result == model_->factorizer().factorize(target_, {}));
  for (std::size_t i = 0; i < kCold; ++i) {
    EXPECT_EQ(client.recv_response().kind,
              net::NetClient::Response::Kind::kResult);
  }
  server.stop();
}

TEST_F(NetFaults, StoppedEngineAnswersShuttingDownAndReleasesTheSlot) {
  auto engine = fast_engine();
  net::NetServer server(*engine, {});
  server.start();
  engine->stop();  // every engine submit now throws EngineStoppedError

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(5s);
  for (int i = 0; i < 2; ++i) {
    try {
      (void)client.factorize(target_);
      FAIL() << "a stopped engine's refusal was not answered";
    } catch (const net::ServerError& e) {
      EXPECT_EQ(e.code(), net::ErrorCode::kShuttingDown);
    }
  }
  EXPECT_EQ(server.admission_stats().admitted, 2u);
  server.stop();  // would hang if a refused ticket stayed dispatched
  EXPECT_FALSE(server.running());
}

// ---------------------------------------------------------------------------
// Poller parity: the poll(2) fallback sheds faults exactly like epoll.
// ---------------------------------------------------------------------------

TEST_F(NetFaults, PollFallbackShedsSlowLorisToo) {
  auto engine = fast_engine();
  net::ServerOptions opts;
  opts.prefer_epoll = false;
  opts.idle_timeout_ms = 300;
  net::NetServer server(*engine, opts);
  server.start();
  EXPECT_STREQ(server.poller_name(), "poll");

  net::NetClient loris("127.0.0.1", server.port());
  const std::uint8_t partial[] = {0x46, 0x48};
  loris.send_raw(partial);
  EXPECT_TRUE(eventually(
      [&] { return server.counters().disconnects_idle >= 1; }));

  net::NetClient healthy("127.0.0.1", server.port());
  const core::FactorizeResult r = healthy.factorize(target_);
  EXPECT_TRUE(r == model_->factorizer().factorize(target_, {}));
  server.stop();
}

}  // namespace
