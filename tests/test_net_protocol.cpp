// Frame-codec fuzz suite for the FHN1 wire protocol (src/net/protocol.hpp).
//
// The contract under test: no byte stream — truncated, oversized,
// bit-flipped, split across reads, or outright random — may crash, hang,
// or silently misparse the codec. Malformed input must surface as a
// ProtocolError (connection-fatal framing violations) or decode cleanly;
// valid input must round-trip bit-identically, doubles included. Runs
// under ASan/UBSan in CI's Debug job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>
#include <vector>

#include "net/protocol.hpp"
#include "util/rng.hpp"

namespace {

using namespace factorhd;
using net::Frame;
using net::FrameParser;
using net::Opcode;
using net::ProtocolError;

std::vector<std::uint8_t> sample_payload() {
  return {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
}

core::FactorizeResult sample_result(bool with_trace) {
  core::FactorizeResult r;
  for (std::size_t o = 0; o < 3; ++o) {
    core::FactorizedObject obj;
    for (std::size_t c = 0; c < 2; ++c) {
      core::ClassFactorization cf;
      cf.cls = c;
      cf.present = (o + c) % 2 == 0;
      cf.path = {o, c + 1};
      cf.level_similarities = {0.1 * static_cast<double>(o + 1), -0.25};
      cf.null_similarity = 0.015625 + static_cast<double>(c);
      obj.classes.push_back(cf);
    }
    obj.match_similarity = 0.62 + 1e-17 * static_cast<double>(o);
    r.objects.push_back(obj);
  }
  r.similarity_ops = 123456789;
  r.combinations_checked = 4242;
  r.converged = false;
  r.rounds = 5;
  if (with_trace) {
    core::RoundTrace rt;
    rt.candidates_per_class = {2, 0, 5};
    rt.null_candidates = 1;
    rt.combinations = 30;
    rt.best_similarity = 0.99999999999999;
    rt.accepted = true;
    r.trace = {rt, rt};
    r.trace[1].accepted = false;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(NetProtocol, FrameRoundTrip) {
  const auto payload = sample_payload();
  const auto bytes = net::encode_frame(Opcode::kFactorize, net::kFlagStream,
                                       0xDEADBEEFCAFEBABEull, payload);
  ASSERT_EQ(bytes.size(), net::kHeaderSize + payload.size());

  FrameParser parser;
  std::vector<Frame> frames;
  parser.feed(bytes, frames);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].opcode(), Opcode::kFactorize);
  EXPECT_EQ(frames[0].header.flags, net::kFlagStream);
  EXPECT_EQ(frames[0].header.request_id, 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(frames[0].payload, payload);
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(NetProtocol, EmptyPayloadFrame) {
  const auto bytes = net::encode_frame(Opcode::kPing, 0, 7, {});
  FrameParser parser;
  std::vector<Frame> frames;
  parser.feed(bytes, frames);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(frames[0].payload.empty());
}

TEST(NetProtocol, SplitAcrossReadsByteByByte) {
  const auto payload = sample_payload();
  const auto bytes = net::encode_frame(Opcode::kResult, 0, 42, payload);
  FrameParser parser;
  std::vector<Frame> frames;
  for (const std::uint8_t b : bytes) {
    parser.feed(std::span<const std::uint8_t>(&b, 1), frames);
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload, payload);
}

TEST(NetProtocol, SplitAcrossReadsRandomChunks) {
  util::Xoshiro256 rng(99);
  std::vector<std::uint8_t> stream;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::uint64_t i = 0; i < 17; ++i) {
    std::vector<std::uint8_t> p(static_cast<std::size_t>(rng() % 200));
    for (auto& b : p) b = static_cast<std::uint8_t>(rng());
    const auto f = net::encode_frame(Opcode::kPartial, 0, i, p);
    stream.insert(stream.end(), f.begin(), f.end());
    payloads.push_back(std::move(p));
  }
  FrameParser parser;
  std::vector<Frame> frames;
  std::size_t off = 0;
  while (off < stream.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(1 + rng() % 97, stream.size() - off);
    parser.feed(std::span<const std::uint8_t>(stream.data() + off, chunk),
                frames);
    off += chunk;
  }
  ASSERT_EQ(frames.size(), payloads.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].header.request_id, i);
    EXPECT_EQ(frames[i].payload, payloads[i]);
  }
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(NetProtocol, TruncatedHeaderProducesNothing) {
  const auto bytes = net::encode_frame(Opcode::kPing, 0, 1, sample_payload());
  for (std::size_t cut = 0; cut < net::kHeaderSize; ++cut) {
    FrameParser parser;
    std::vector<Frame> frames;
    parser.feed(std::span<const std::uint8_t>(bytes.data(), cut), frames);
    EXPECT_TRUE(frames.empty()) << "cut=" << cut;
    EXPECT_EQ(parser.buffered(), cut);
  }
}

TEST(NetProtocol, TruncatedPayloadProducesNothing) {
  const auto bytes = net::encode_frame(Opcode::kPing, 0, 1, sample_payload());
  FrameParser parser;
  std::vector<Frame> frames;
  parser.feed(std::span<const std::uint8_t>(bytes.data(), bytes.size() - 1),
              frames);
  EXPECT_TRUE(frames.empty());
  EXPECT_GT(parser.buffered(), 0u);
}

// ---------------------------------------------------------------------------
// Framing violations
// ---------------------------------------------------------------------------

TEST(NetProtocol, BadMagicThrows) {
  auto bytes = net::encode_frame(Opcode::kPing, 0, 1, {});
  bytes[0] ^= 0xFF;
  FrameParser parser;
  std::vector<Frame> frames;
  EXPECT_THROW(parser.feed(bytes, frames), ProtocolError);
  // Poisoned: even valid bytes are rejected afterwards.
  const auto good = net::encode_frame(Opcode::kPing, 0, 2, {});
  EXPECT_THROW(parser.feed(good, frames), ProtocolError);
}

TEST(NetProtocol, NonzeroReservedThrows) {
  auto bytes = net::encode_frame(Opcode::kPing, 0, 1, {});
  bytes[6] = 1;
  FrameParser parser;
  std::vector<Frame> frames;
  EXPECT_THROW(parser.feed(bytes, frames), ProtocolError);
}

TEST(NetProtocol, OversizedLengthPrefixThrowsBeforeAllocating) {
  auto bytes = net::encode_frame(Opcode::kFactorize, 0, 1, {});
  // A hostile length prefix (4 GiB - 1) must be rejected from the header
  // alone — no allocation, no waiting for payload bytes.
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + 16, &huge, sizeof huge);
  FrameParser parser(1 << 20);
  std::vector<Frame> frames;
  EXPECT_THROW(parser.feed(bytes, frames), ProtocolError);
}

TEST(NetProtocol, PayloadChecksumMismatchThrows) {
  auto bytes = net::encode_frame(Opcode::kPing, 0, 1, sample_payload());
  bytes[net::kHeaderSize + 3] ^= 0x10;  // flip one payload bit
  FrameParser parser;
  std::vector<Frame> frames;
  EXPECT_THROW(parser.feed(bytes, frames), ProtocolError);
}

TEST(NetProtocol, BitFlipSweepNeverCrashes) {
  // Every single-bit corruption of a valid frame must either throw
  // ProtocolError, yield no frame (reinterpreted as incomplete), or yield
  // some frame — never crash or hang. Payload-region flips specifically
  // must be caught by the checksum.
  const auto pristine =
      net::encode_frame(Opcode::kFactorize, 0, 1234, sample_payload());
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bytes = pristine;
      bytes[byte] ^= static_cast<std::uint8_t>(1 << bit);
      FrameParser parser;
      std::vector<Frame> frames;
      bool threw = false;
      try {
        parser.feed(bytes, frames);
      } catch (const ProtocolError&) {
        threw = true;
      }
      if (byte >= net::kHeaderSize) {
        EXPECT_TRUE(threw) << "payload flip escaped the checksum at byte "
                           << byte << " bit " << bit;
      }
      if (!threw && !frames.empty()) {
        // Whatever came out still honors the length invariant.
        EXPECT_EQ(frames[0].payload.size(), frames[0].header.payload_len);
      }
    }
  }
}

TEST(NetProtocol, UnknownOpcodeIsDeliveredNotFatal) {
  // The parser delivers unknown opcodes (the server answers kError and
  // keeps the connection; the policy is not the parser's).
  auto bytes = net::encode_frame(Opcode::kPing, 0, 5, {});
  bytes[4] = 0xEE;
  FrameParser parser;
  std::vector<Frame> frames;
  parser.feed(bytes, frames);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.opcode, 0xEE);
  EXPECT_FALSE(net::known_opcode(0xEE));
}

TEST(NetProtocol, RandomByteSoupNeverCrashes) {
  util::Xoshiro256 rng(31337);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> soup(static_cast<std::size_t>(rng() % 512));
    for (auto& b : soup) b = static_cast<std::uint8_t>(rng());
    FrameParser parser;
    std::vector<Frame> frames;
    try {
      parser.feed(soup, frames);
    } catch (const ProtocolError&) {
      // expected for most soups
    }
  }
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

TEST(NetProtocol, FactorizeRequestRoundTrip) {
  net::FactorizeRequest req;
  req.opts.multi_object = true;
  req.opts.collect_trace = true;
  req.opts.threshold = 0.1;  // not exactly representable: bit-exactness test
  req.opts.num_objects_hint = 3;
  req.opts.max_objects = 7;
  req.opts.max_depth = 2;
  req.opts.max_candidates_per_class = 5;
  req.opts.selected_classes = {0, 2, 5};
  req.deadline_hint_us = 123456;
  req.target = hdc::Hypervector({1, -1, 0, 42, -17, 2, -2, 9});

  const auto payload = net::encode_factorize_request(req);
  const net::FactorizeRequest back = net::decode_factorize_request(payload);
  EXPECT_TRUE(back.opts == req.opts);
  EXPECT_EQ(back.deadline_hint_us, req.deadline_hint_us);
  const auto a = back.target.components();
  const auto b = req.target.components();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(NetProtocol, DoubleBitPatternsSurviveTheWire) {
  // bit_cast framing: -0.0, denormals, and giant magnitudes round-trip
  // exactly. (NaN would too, but FactorizeOptions never carries one.)
  for (const double d :
       {-0.0, std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(), -1.0 / 3.0, 1e-300}) {
    net::PayloadWriter w;
    w.put_f64(d);
    net::PayloadReader r(w.bytes());
    const double back = r.get_f64();
    EXPECT_EQ(std::memcmp(&back, &d, sizeof d), 0) << d;
  }
}

TEST(NetProtocol, FactorizeRequestTruncationSweep) {
  net::FactorizeRequest req;
  req.opts.selected_classes = {1, 2};
  req.target = hdc::Hypervector({5, -5, 7, -7});
  const auto payload = net::encode_factorize_request(req);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW(
        (void)net::decode_factorize_request(
            std::span<const std::uint8_t>(payload.data(), cut)),
        ProtocolError)
        << "cut=" << cut;
  }
  // Trailing garbage is equally fatal (expect_end).
  auto padded = payload;
  padded.push_back(0);
  EXPECT_THROW((void)net::decode_factorize_request(padded), ProtocolError);
}

TEST(NetProtocol, LargeRequestTruncationSweepThrowsBeforeAllocating) {
  net::FactorizeRequest req;
  req.opts.selected_classes = {3};
  std::vector<std::int32_t> comps(4096);
  for (std::size_t i = 0; i < comps.size(); ++i) {
    comps[i] = static_cast<std::int32_t>(i % 7) - 3;
  }
  req.target = hdc::Hypervector(std::move(comps));
  const auto payload = net::encode_factorize_request(req);
  ASSERT_EQ(payload.size(), 54u + 4u + 4u * 4096u);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    ASSERT_THROW((void)net::decode_factorize_request(
                     std::span<const std::uint8_t>(payload.data(), cut)),
                 ProtocolError)
        << "cut=" << cut;
  }
  // A dim field larger than the bytes that follow it is refused by its
  // count check: 0xFFFFFFFF components would be a 16 GiB allocation.
  const std::size_t dim_at = payload.size() - 4u * 4096u - 4u;
  for (const std::uint32_t dim : {4097u, 0x40000000u, 0xFFFFFFFFu}) {
    auto bad = payload;
    for (std::size_t b = 0; b < 4; ++b) {
      bad[dim_at + b] = static_cast<std::uint8_t>(dim >> (8 * b));
    }
    EXPECT_THROW((void)net::decode_factorize_request(bad), ProtocolError)
        << "dim=" << dim;
  }
}

// ---------------------------------------------------------------------------
// Pinned payload bytes: the exact wire form of each payload, so a codec
// rewrite cannot change what a peer reads.
// ---------------------------------------------------------------------------

core::FactorizedObject pinned_object() {
  core::FactorizedObject obj;
  core::ClassFactorization cf;
  cf.cls = 2;
  cf.present = true;
  cf.path = {3, 1};
  cf.level_similarities = {0.5, -0.25};
  cf.null_similarity = 0.125;
  obj.classes.push_back(cf);
  obj.match_similarity = 0.75;
  return obj;
}

TEST(NetProtocol, FactorizeRequestBytesArePinned) {
  net::FactorizeRequest req;
  req.opts.multi_object = true;
  req.opts.collect_trace = true;
  req.opts.threshold = 0.1;
  req.opts.num_objects_hint = 3;
  req.opts.max_objects = 4;
  req.opts.max_depth = 2;
  req.opts.max_candidates_per_class = 5;
  req.opts.selected_classes = {1, 300};
  req.deadline_hint_us = 0x01020304;
  req.target = hdc::Hypervector({std::numeric_limits<std::int32_t>::min(), -2,
                                 -1, 0, 1, 2,
                                 std::numeric_limits<std::int32_t>::max()});
  const std::vector<std::uint8_t> expected = {
      0x01, 0x01,                                      // multi_object, trace
      0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0x3f,  // threshold 0.1
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // num_objects_hint
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // max_objects
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // max_depth
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // max_candidates
      0x02, 0x00, 0x00, 0x00,                          // 2 selected classes
      0x01, 0x00, 0x00, 0x00, 0x2c, 0x01, 0x00, 0x00,  // 1, 300
      0x04, 0x03, 0x02, 0x01,                          // deadline hint
      0x07, 0x00, 0x00, 0x00,                          // dim 7
      0x00, 0x00, 0x00, 0x80, 0xfe, 0xff, 0xff, 0xff,  // INT32_MIN, -2
      0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00,  // -1, 0
      0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,  // 1, 2
      0xff, 0xff, 0xff, 0x7f,                          // INT32_MAX
  };
  EXPECT_EQ(net::encode_factorize_request(req), expected);
  EXPECT_EQ(net::encode_factorize_request(req.opts, req.deadline_hint_us,
                                          req.target),
            expected);
  const net::FactorizeRequest back = net::decode_factorize_request(expected);
  EXPECT_TRUE(back.opts == req.opts);
  EXPECT_EQ(back.deadline_hint_us, req.deadline_hint_us);
  EXPECT_TRUE(back.target == req.target);
}

TEST(NetProtocol, ResultAndPartialBytesArePinned) {
  core::FactorizeResult r;
  r.similarity_ops = 123;
  r.combinations_checked = 45;
  r.rounds = 1;
  r.converged = true;
  core::RoundTrace rt;
  rt.candidates_per_class = {2};
  rt.null_candidates = 1;
  rt.combinations = 6;
  rt.best_similarity = -0.5;
  rt.accepted = true;
  r.trace = {rt};
  r.objects = {pinned_object()};
  // The object as it travels inline in a kResult and after the index of a
  // kPartial.
  const std::vector<std::uint8_t> object = {
      0x01, 0x00, 0x00, 0x00,                          // 1 class
      0x02, 0x00, 0x00, 0x00, 0x01,                    // cls 2, present
      0x02, 0x00, 0x00, 0x00,                          // 2 path steps
      0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,  // 3, 1
      0x02, 0x00, 0x00, 0x00,                          // 2 levels
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,  // 0.5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0xbf,  // -0.25
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x3f,  // null 0.125
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0x3f,  // match 0.75
  };
  std::vector<std::uint8_t> result = {
      0x7b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // similarity_ops
      0x2d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // combinations
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // rounds
      0x01,                                            // converged
      0x01, 0x00, 0x00, 0x00,                          // 1 round trace
      0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,  // 1 class: 2
      0x01, 0x00, 0x00, 0x00,                          // null candidates
      0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // combinations
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0xbf,  // best -0.5
      0x01,                                            // accepted
      0x01, 0x00, 0x00, 0x00,                          // 1 object
  };
  result.insert(result.end(), object.begin(), object.end());
  ASSERT_EQ(result.size(), 119u);
  EXPECT_EQ(net::encode_result(r, /*streamed=*/false), result);
  EXPECT_TRUE(net::decode_result(result, false, {}) == r);

  std::vector<std::uint8_t> partial = {0x09, 0x00, 0x00, 0x00};  // index 9
  partial.insert(partial.end(), object.begin(), object.end());
  ASSERT_EQ(partial.size(), 61u);
  EXPECT_EQ(net::encode_partial(9, pinned_object()), partial);
}

TEST(NetProtocol, ResultRoundTripInline) {
  const core::FactorizeResult r = sample_result(true);
  const auto payload = net::encode_result(r, /*streamed=*/false);
  const core::FactorizeResult back =
      net::decode_result(payload, /*streamed=*/false, {});
  EXPECT_TRUE(back == r);  // bit-level, doubles included
}

TEST(NetProtocol, ResultRoundTripStreamedReassembly) {
  const core::FactorizeResult r = sample_result(false);
  // Server side: one kPartial payload per object + a final streamed result.
  std::vector<core::FactorizedObject> collected;
  for (std::size_t i = 0; i < r.objects.size(); ++i) {
    const auto partial =
        net::encode_partial(static_cast<std::uint32_t>(i), r.objects[i]);
    auto [index, obj] = net::decode_partial(partial);
    EXPECT_EQ(index, i);
    collected.push_back(std::move(obj));
  }
  const auto fin = net::encode_result(r, /*streamed=*/true);
  EXPECT_LT(fin.size(), net::encode_result(r, false).size());
  const core::FactorizeResult back =
      net::decode_result(fin, /*streamed=*/true, std::move(collected));
  EXPECT_TRUE(back == r);
}

TEST(NetProtocol, StreamedResultPartialCountMismatchThrows) {
  const core::FactorizeResult r = sample_result(false);
  const auto fin = net::encode_result(r, true);
  std::vector<core::FactorizedObject> tooFew(r.objects.begin(),
                                             r.objects.end() - 1);
  EXPECT_THROW((void)net::decode_result(fin, true, std::move(tooFew)),
               ProtocolError);
}

TEST(NetProtocol, ErrorAndOverloadRoundTrip) {
  const auto err = net::encode_error(net::ErrorCode::kDimensionMismatch,
                                     "dim 8 != model dim 1024");
  const auto [code, message] = net::decode_error(err);
  EXPECT_EQ(code, net::ErrorCode::kDimensionMismatch);
  EXPECT_EQ(message, "dim 8 != model dim 1024");

  net::OverloadInfo info;
  info.code = net::OverloadCode::kQuotaExceeded;
  info.queue_depth = 17;
  info.limit = 32;
  info.detail = "quota";
  const auto back = net::decode_overload(net::encode_overload(info));
  EXPECT_EQ(back.code, info.code);
  EXPECT_EQ(back.queue_depth, info.queue_depth);
  EXPECT_EQ(back.limit, info.limit);
  EXPECT_EQ(back.detail, info.detail);
}

TEST(NetProtocol, PayloadDecoderFuzzNeverCrashes) {
  // Seeded random payloads through every decoder: clean ProtocolError or
  // clean success, never a crash (ASan/UBSan enforce the "clean").
  util::Xoshiro256 rng(777);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(rng() % 256));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    try {
      (void)net::decode_factorize_request(bytes);
    } catch (const ProtocolError&) {
    }
    try {
      (void)net::decode_result(bytes, false, {});
    } catch (const ProtocolError&) {
    }
    try {
      (void)net::decode_partial(bytes);
    } catch (const ProtocolError&) {
    }
    try {
      (void)net::decode_error(bytes);
    } catch (const ProtocolError&) {
    }
    try {
      (void)net::decode_overload(bytes);
    } catch (const ProtocolError&) {
    }
  }
}

TEST(NetProtocol, ChecksumIsCrc32c) {
  // Pin the checksum function: an accidental algorithm change would break
  // every deployed peer silently. Published CRC-32C check values, the last
  // three from RFC 3720 appendix B.4.
  const auto crc = [](std::string_view s) {
    return net::payload_checksum(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  };
  EXPECT_EQ(net::payload_checksum({}), 0x00000000u);
  EXPECT_EQ(crc("123456789"), 0xE3069283u);
  EXPECT_EQ(crc("abc"), 0x364B3FB7u);
  EXPECT_EQ(crc("hi"), 0xF59DD9C2u);
  std::vector<std::uint8_t> block(32, 0x00);
  EXPECT_EQ(net::payload_checksum(block), 0x8A9136AAu);
  std::fill(block.begin(), block.end(), 0xFF);
  EXPECT_EQ(net::payload_checksum(block), 0x62A8AB43u);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(net::payload_checksum(block), 0x46DD794Eu);
  EXPECT_EQ(net::detail::crc32c_portable(block), 0x46DD794Eu);
}

TEST(NetProtocol, Crc32cHardwareMatchesPortable) {
  // Every length through a D=1024 request payload at every start alignment:
  // the 8-byte word loop and the byte tail of the instruction path must
  // agree with the table walk.
  util::Xoshiro256 rng(2024);
  std::vector<std::uint8_t> bytes(4200 + 8);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  if (!net::detail::crc32c_hardware({}).has_value()) {
    GTEST_SKIP() << "no crc32 instruction on this CPU";
  }
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 4200; ++len) {
      const std::span<const std::uint8_t> s(bytes.data() + align, len);
      const std::uint32_t portable = net::detail::crc32c_portable(s);
      ASSERT_EQ(net::detail::crc32c_hardware(s), portable)
          << "align=" << align << " len=" << len;
      ASSERT_EQ(net::payload_checksum(s), portable);
    }
  }
}

}  // namespace
