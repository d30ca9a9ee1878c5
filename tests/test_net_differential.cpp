// Network-path differential suite: a FactorizeResult decoded from the FHN1
// wire is bit-identical (FactorizeResult::operator==, doubles included) to
// the result of calling the engine directly — across engine batch
// configurations, model shard counts, pipelining depths, and streamed
// (kPartial-reassembled) multi-object responses. This is the acceptance
// property of the network front end: the socket adds latency, never bits.
//
// Integration-labeled (real sockets + threads); runs under ASan/UBSan in
// the Debug CI job.
#include <gtest/gtest.h>

#include <chrono>
#include <unordered_map>
#include <vector>

#include "net/net.hpp"
#include "service/service.hpp"
#include "taxonomy/generator.hpp"

namespace {

using namespace factorhd;
using namespace std::chrono_literals;

struct WorkItem {
  hdc::Hypervector target;
  core::FactorizeOptions opts;
  core::FactorizeResult expected;
};

class NetDifferentialTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kDim = 512;

  /// Builds a model (optionally sharded) and a seeded mixed workload —
  /// single-object, partial-factorization, and multi-object items, some
  /// repeated — with direct-call ground truth from that same model.
  void build(std::size_t shards) {
    util::Xoshiro256 rng(2026);
    std::optional<hdc::kernels::ShardedConfig> sharded;
    if (shards > 1) sharded = hdc::kernels::ShardedConfig{.shards = shards};
    model_ = service::Model::make(
        "netdiff", tax::TaxonomyCodebooks(tax::Taxonomy(3, {8, 4}), kDim, rng),
        hdc::ScanBackend::kAuto, sharded);

    core::FactorizeOptions single;
    core::FactorizeOptions partial;
    partial.selected_classes = {0, 2};
    partial.max_depth = 1;
    core::FactorizeOptions multi;
    multi.multi_object = true;
    multi.num_objects_hint = 2;
    core::FactorizeOptions traced;
    traced.collect_trace = true;

    const tax::Taxonomy& taxonomy = model_->books().taxonomy();
    work_.clear();
    for (std::size_t i = 0; i < 14; ++i) {
      WorkItem item;
      if (i % 4 == 2) {
        const tax::Scene scene = tax::random_scene(
            taxonomy, rng,
            {.num_objects = 2, .object = {}, .allow_duplicates = true});
        item.target = model_->encoder().encode_scene(scene);
        item.opts = multi;
      } else {
        item.target =
            model_->encoder().encode_object(tax::random_object(taxonomy, rng));
        item.opts = (i % 4 == 1) ? partial : (i % 4 == 3) ? traced : single;
      }
      item.expected = model_->factorizer().factorize(item.target, item.opts);
      work_.push_back(std::move(item));
    }
    // Repeats exercise engine-side coalescing/caching through the socket.
    work_.push_back(work_[0]);
    work_.push_back(work_[2]);
  }

  /// Pushes the workload through a NetServer over `engine` with
  /// `pipeline_depth` requests outstanding at a time, and asserts every
  /// wire response is bit-identical to the precomputed direct result.
  void run_differential(service::FactorizationEngine& engine,
                        std::size_t pipeline_depth, bool stream) {
    net::NetServer server(engine, {});
    server.start();
    net::NetClient client("127.0.0.1", server.port());
    client.set_recv_timeout(30s);

    std::unordered_map<std::uint64_t, std::size_t> id_to_item;
    std::size_t sent = 0;
    std::size_t received = 0;
    while (received < work_.size()) {
      while (sent < work_.size() && sent - received < pipeline_depth) {
        const std::uint64_t id =
            client.send_factorize(work_[sent].target, work_[sent].opts, stream);
        id_to_item.emplace(id, sent);
        ++sent;
      }
      const net::NetClient::Response resp = client.recv_response();
      ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kResult);
      const auto it = id_to_item.find(resp.request_id);
      ASSERT_NE(it, id_to_item.end()) << "unknown request id echoed";
      const WorkItem& item = work_[it->second];
      EXPECT_TRUE(resp.result == item.expected)
          << "wire result differs from direct factorize at item "
          << it->second;
      if (stream) {
        // Streamed responses carry one kPartial per object, reassembled by
        // the client into the identical result.
        EXPECT_EQ(resp.partial_frames, item.expected.objects.size())
            << "streamed partial count mismatch at item " << it->second;
      } else {
        EXPECT_EQ(resp.partial_frames, 0u);
      }
      id_to_item.erase(it);
      ++received;
    }
    server.stop();
  }

  std::shared_ptr<const service::Model> model_;
  std::vector<WorkItem> work_;
};

TEST_F(NetDifferentialTest, NoBatchingUnshardedSynchronous) {
  build(/*shards=*/1);
  service::FactorizationEngine engine(
      model_, {.max_batch = 1, .max_delay_us = 0, .cache_capacity = 0});
  run_differential(engine, /*pipeline_depth=*/1, /*stream=*/false);
}

TEST_F(NetDifferentialTest, MicroBatchingPipelined) {
  build(/*shards=*/1);
  service::FactorizationEngine engine(
      model_, {.max_batch = 8, .max_delay_us = 500, .cache_capacity = 0});
  run_differential(engine, /*pipeline_depth=*/8, /*stream=*/false);
}

TEST_F(NetDifferentialTest, LargeBatchDeepPipeline) {
  build(/*shards=*/1);
  service::FactorizationEngine engine(model_, {.max_batch = 64,
                                               .max_delay_us = 2000,
                                               .batch_threads = 4,
                                               .cache_capacity = 0});
  run_differential(engine, /*pipeline_depth=*/16, /*stream=*/false);
}

TEST_F(NetDifferentialTest, ShardedModelMatchesDirect) {
  build(/*shards=*/4);
  service::FactorizationEngine engine(
      model_, {.max_batch = 8, .max_delay_us = 500, .cache_capacity = 0});
  run_differential(engine, /*pipeline_depth=*/8, /*stream=*/false);
}

TEST_F(NetDifferentialTest, StreamedPartialsReassembleExactly) {
  build(/*shards=*/1);
  service::FactorizationEngine engine(
      model_, {.max_batch = 8, .max_delay_us = 500, .cache_capacity = 0});
  run_differential(engine, /*pipeline_depth=*/4, /*stream=*/true);
}

TEST_F(NetDifferentialTest, StreamedShardedCachedPipelined) {
  // Everything at once: sharded model, caching + coalescing engine, deep
  // pipelining, streamed responses — and two passes so the second is
  // largely cache-served through the socket.
  build(/*shards=*/4);
  service::FactorizationEngine engine(model_, {.max_batch = 8,
                                               .max_delay_us = 500,
                                               .dispatchers = 2,
                                               .cache_capacity = 128});
  run_differential(engine, /*pipeline_depth=*/16, /*stream=*/true);
  run_differential(engine, /*pipeline_depth=*/16, /*stream=*/true);
}

TEST_F(NetDifferentialTest, LoneFrameRunsInPlaceOnTheLoop) {
  // One request outstanding at a time: every frame is the only one the loop
  // holds and the engine queue is empty, so each single-object request runs
  // in place on the loop thread. Scenes still go to the dispatcher.
  build(/*shards=*/1);
  service::FactorizationEngine engine(model_, {.cache_capacity = 0});
  run_differential(engine, /*pipeline_depth=*/1, /*stream=*/false);
  engine.stop();
  std::size_t singles = 0;
  for (const WorkItem& item : work_) singles += item.opts.multi_object ? 0 : 1;
  const auto m = engine.metrics();
  EXPECT_EQ(m.in_place, singles);
  EXPECT_EQ(m.batched_requests, work_.size() - singles);
  EXPECT_EQ(m.completed, work_.size());
}

TEST_F(NetDifferentialTest, PipelinedBurstRunsAtMostItsLastFrameInPlace) {
  // Every single-object frame of the workload written with one send, so the
  // loop reads them as one burst: all but the last must queue (and batch),
  // and the last may run in place only if the dispatcher has already
  // emptied the queue.
  build(/*shards=*/1);
  service::FactorizationEngine engine(
      model_, {.cache_capacity = 0, .trace_sample = 1});
  net::NetServer server(engine, {});
  server.start();
  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(30s);

  std::vector<std::uint8_t> burst;
  std::unordered_map<std::uint64_t, std::size_t> id_to_item;
  for (std::size_t i = 0; i < work_.size(); ++i) {
    if (work_[i].opts.multi_object) continue;
    net::FactorizeRequest req;
    req.opts = work_[i].opts;
    req.target = work_[i].target;
    const std::uint64_t id = 1000 + i;
    const auto frame = net::encode_frame(net::Opcode::kFactorize, 0, id,
                                         net::encode_factorize_request(req));
    burst.insert(burst.end(), frame.begin(), frame.end());
    id_to_item.emplace(id, i);
  }
  const std::size_t n = id_to_item.size();
  client.send_raw(burst);
  for (std::size_t r = 0; r < n; ++r) {
    const net::NetClient::Response resp = client.recv_response();
    ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kResult);
    const auto it = id_to_item.find(resp.request_id);
    ASSERT_NE(it, id_to_item.end()) << "unknown or repeated request id";
    EXPECT_TRUE(resp.result == work_[it->second].expected)
        << "wire result differs from direct factorize at item " << it->second;
    id_to_item.erase(it);
  }
  server.stop();
  engine.stop();

  const auto m = engine.metrics();
  EXPECT_LE(m.in_place, 1u);
  EXPECT_EQ(m.in_place + m.batched_requests, n);
  EXPECT_GE(m.batches, 1u);
  // Engine trace ids follow submit order: only the last may be in place.
  const auto traces = engine.trace_samples();
  ASSERT_EQ(traces.size(), n);
  for (std::size_t i = 0; i + 1 < traces.size(); ++i) {
    EXPECT_FALSE(traces[i].in_place) << "frame " << i << " of the burst";
  }
}

}  // namespace
