#include "net/protocol.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <utility>

#if defined(__x86_64__)
#define FACTORHD_X86_CRC32 1
#include <nmmintrin.h>
#endif

namespace factorhd::net {
namespace {

// Sanity ceiling on variable-length counts inside payloads (selected
// classes, rounds, per-round candidate vectors, level similarities). Any
// legitimate count is bounded by the payload size itself; this cuts off
// hostile counts early with a clear error instead of a huge loop.
constexpr std::size_t kMaxInlineCount = 1u << 20;

void check_count(std::uint64_t n, std::size_t remaining, std::size_t elem_size,
                 const char* what) {
  if (n > kMaxInlineCount || n * elem_size > remaining) {
    throw ProtocolError(std::string("implausible count for ") + what);
  }
}

}  // namespace

const char* to_string(Opcode op) noexcept {
  switch (op) {
    case Opcode::kFactorize: return "factorize";
    case Opcode::kPing: return "ping";
    case Opcode::kStats: return "stats";
    case Opcode::kResult: return "result";
    case Opcode::kPartial: return "partial";
    case Opcode::kPong: return "pong";
    case Opcode::kStatsText: return "stats_text";
    case Opcode::kError: return "error";
    case Opcode::kOverload: return "overload";
  }
  return "unknown";
}

bool known_opcode(std::uint8_t raw) noexcept {
  switch (static_cast<Opcode>(raw)) {
    case Opcode::kFactorize:
    case Opcode::kPing:
    case Opcode::kStats:
    case Opcode::kResult:
    case Opcode::kPartial:
    case Opcode::kPong:
    case Opcode::kStatsText:
    case Opcode::kError:
    case Opcode::kOverload:
      return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// CRC-32C payload checksum
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;  // reflected Castagnoli

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? kCrc32cPoly : 0u);
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32cTable = make_crc32c_table();

#if FACTORHD_X86_CRC32
// Eight bytes per crc32 instruction, then the sub-word tail byte by byte.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const std::uint8_t* p, std::size_t n) noexcept {
  std::uint64_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

bool have_sse42() noexcept {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return have;
}
#endif

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(std::span<const std::uint8_t> bytes) noexcept {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    crc = kCrc32cTable[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::optional<std::uint32_t> crc32c_hardware(
    [[maybe_unused]] std::span<const std::uint8_t> bytes) noexcept {
#if FACTORHD_X86_CRC32
  if (have_sse42()) return crc32c_sse42(bytes.data(), bytes.size());
#endif
  return std::nullopt;
}

}  // namespace detail

std::uint32_t payload_checksum(std::span<const std::uint8_t> bytes) noexcept {
  if (const auto crc = detail::crc32c_hardware(bytes)) return *crc;
  return detail::crc32c_portable(bytes);
}

// ---------------------------------------------------------------------------
// Frame encode / incremental decode
// ---------------------------------------------------------------------------

namespace {

void put_le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_le64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_le32(out, static_cast<std::uint32_t>(v));
  put_le32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_le32(p)) |
         (static_cast<std::uint64_t>(get_le32(p + 4)) << 32);
}

}  // namespace

std::vector<std::uint8_t> encode_frame(Opcode opcode, std::uint8_t flags,
                                       std::uint64_t request_id,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + payload.size());
  put_le32(out, kMagic);
  out.push_back(static_cast<std::uint8_t>(opcode));
  out.push_back(flags);
  out.push_back(0);  // reserved
  out.push_back(0);
  put_le64(out, request_id);
  put_le32(out, static_cast<std::uint32_t>(payload.size()));
  put_le32(out, payload_checksum(payload));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

FrameParser::FrameParser(std::size_t max_payload) : max_payload_(max_payload) {}

std::uint32_t FrameParser::check_header(const std::uint8_t* h) {
  if (get_le32(h) != kMagic) {
    poisoned_ = true;
    throw ProtocolError("bad frame magic");
  }
  if (h[6] != 0 || h[7] != 0) {
    poisoned_ = true;
    throw ProtocolError("nonzero reserved header bits");
  }
  const std::uint32_t payload_len = get_le32(h + 16);
  if (payload_len > max_payload_) {
    poisoned_ = true;
    throw ProtocolError("frame payload length " + std::to_string(payload_len) +
                        " exceeds limit " + std::to_string(max_payload_));
  }
  return payload_len;
}

void FrameParser::emit(const std::uint8_t* h, std::uint32_t payload_len,
                       std::vector<Frame>& out) {
  Frame frame;
  frame.header.opcode = h[4];
  frame.header.flags = h[5];
  frame.header.request_id = get_le64(h + 8);
  frame.header.payload_len = payload_len;
  frame.header.checksum = get_le32(h + 20);
  const std::span<const std::uint8_t> payload(h + kHeaderSize, payload_len);
  if (payload_checksum(payload) != frame.header.checksum) {
    poisoned_ = true;
    throw ProtocolError("payload checksum mismatch on request " +
                        std::to_string(frame.header.request_id));
  }
  frame.payload.assign(payload.begin(), payload.end());
  out.push_back(std::move(frame));
}

void FrameParser::feed(std::span<const std::uint8_t> data,
                       std::vector<Frame>& out) {
  if (poisoned_) throw ProtocolError("parser poisoned by earlier framing error");
  if (!buf_.empty()) {
    // Finish the buffered frame with only the bytes it still lacks; the
    // rest of `data` is parsed in place below.
    const auto top_up = [&](std::size_t want) {
      const std::size_t take = std::min(want - buf_.size(), data.size());
      buf_.insert(buf_.end(), data.begin(),
                  data.begin() + static_cast<std::ptrdiff_t>(take));
      data = data.subspan(take);
      return buf_.size() == want;
    };
    if (buf_.size() < kHeaderSize && !top_up(kHeaderSize)) return;
    const std::uint32_t payload_len = check_header(buf_.data());
    buf_.reserve(kHeaderSize + payload_len);
    if (!top_up(kHeaderSize + payload_len)) return;
    emit(buf_.data(), payload_len, out);
    buf_.clear();
  }
  std::size_t pos = 0;
  while (data.size() - pos >= kHeaderSize) {
    const std::uint8_t* h = data.data() + pos;
    const std::uint32_t payload_len = check_header(h);
    if (data.size() - pos < kHeaderSize + payload_len) break;  // incomplete
    emit(h, payload_len, out);
    pos += kHeaderSize + payload_len;
  }
  buf_.assign(data.begin() + static_cast<std::ptrdiff_t>(pos), data.end());
}

// ---------------------------------------------------------------------------
// PayloadReader / PayloadWriter
// ---------------------------------------------------------------------------

void PayloadReader::need(std::size_t n) const {
  if (bytes_.size() - offset_ < n) {
    throw ProtocolError("payload truncated");
  }
}

std::uint8_t PayloadReader::get_u8() {
  need(1);
  return bytes_[offset_++];
}

std::uint16_t PayloadReader::get_u16() {
  need(2);
  const std::uint16_t v =
      static_cast<std::uint16_t>(bytes_[offset_]) |
      static_cast<std::uint16_t>(static_cast<std::uint16_t>(bytes_[offset_ + 1])
                                 << 8);
  offset_ += 2;
  return v;
}

std::uint32_t PayloadReader::get_u32() {
  need(4);
  const std::uint32_t v = get_le32(bytes_.data() + offset_);
  offset_ += 4;
  return v;
}

std::uint64_t PayloadReader::get_u64() {
  need(8);
  const std::uint64_t v = get_le64(bytes_.data() + offset_);
  offset_ += 8;
  return v;
}

std::int32_t PayloadReader::get_i32() {
  return static_cast<std::int32_t>(get_u32());
}

void PayloadReader::get_i32s(std::span<std::int32_t> out) {
  need(out.size_bytes());
  if constexpr (std::endian::native == std::endian::little) {
    if (!out.empty()) {
      std::memcpy(out.data(), bytes_.data() + offset_, out.size_bytes());
    }
    offset_ += out.size_bytes();
  } else {
    for (std::int32_t& c : out) c = get_i32();
  }
}

double PayloadReader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::string PayloadReader::get_string() {
  const std::uint32_t len = get_u32();
  need(len);
  std::string s(reinterpret_cast<const char*>(bytes_.data() + offset_), len);
  offset_ += len;
  return s;
}

void PayloadReader::expect_end() const {
  if (remaining() != 0) {
    throw ProtocolError("trailing bytes in payload");
  }
}

void PayloadWriter::put_u8(std::uint8_t v) { bytes_.push_back(v); }

void PayloadWriter::put_u16(std::uint16_t v) {
  bytes_.push_back(static_cast<std::uint8_t>(v));
  bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void PayloadWriter::put_u32(std::uint32_t v) { put_le32(bytes_, v); }

void PayloadWriter::put_u64(std::uint64_t v) { put_le64(bytes_, v); }

void PayloadWriter::put_i32(std::int32_t v) {
  put_u32(static_cast<std::uint32_t>(v));
}

void PayloadWriter::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void PayloadWriter::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void PayloadWriter::put_i32s(std::span<const std::int32_t> v) {
  if constexpr (std::endian::native == std::endian::little) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    bytes_.insert(bytes_.end(), p, p + v.size_bytes());
  } else {
    for (const std::int32_t c : v) put_i32(c);
  }
}

// ---------------------------------------------------------------------------
// Factorize request
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_factorize_request(const FactorizeRequest& req) {
  return encode_factorize_request(req.opts, req.deadline_hint_us, req.target);
}

std::vector<std::uint8_t> encode_factorize_request(
    const core::FactorizeOptions& o, std::uint32_t deadline_hint_us,
    const hdc::Hypervector& target) {
  // Fixed fields: two u8 flags, f64 threshold, four u64 bounds and the
  // three u32s (class count, deadline, dim).
  constexpr std::size_t kFixedBytes = 2 + 8 + 4 * 8 + 3 * 4;
  PayloadWriter w;
  w.reserve(kFixedBytes + 4 * (o.selected_classes.size() + target.dim()));
  w.put_u8(o.multi_object ? 1 : 0);
  w.put_u8(o.collect_trace ? 1 : 0);
  w.put_f64(o.threshold);
  w.put_u64(o.num_objects_hint);
  w.put_u64(o.max_objects);
  w.put_u64(o.max_depth);
  w.put_u64(o.max_candidates_per_class);
  w.put_u32(static_cast<std::uint32_t>(o.selected_classes.size()));
  for (const std::size_t c : o.selected_classes) {
    w.put_u32(static_cast<std::uint32_t>(c));
  }
  w.put_u32(deadline_hint_us);
  w.put_u32(static_cast<std::uint32_t>(target.dim()));
  w.put_i32s(target.components());
  return w.take();
}

FactorizeRequest decode_factorize_request(
    std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  FactorizeRequest req;
  core::FactorizeOptions& o = req.opts;
  o.multi_object = r.get_u8() != 0;
  o.collect_trace = r.get_u8() != 0;
  o.threshold = r.get_f64();
  o.num_objects_hint = static_cast<std::size_t>(r.get_u64());
  o.max_objects = static_cast<std::size_t>(r.get_u64());
  o.max_depth = static_cast<std::size_t>(r.get_u64());
  o.max_candidates_per_class = static_cast<std::size_t>(r.get_u64());
  const std::uint32_t num_selected = r.get_u32();
  check_count(num_selected, r.remaining(), 4, "selected classes");
  o.selected_classes.reserve(num_selected);
  for (std::uint32_t i = 0; i < num_selected; ++i) {
    o.selected_classes.push_back(r.get_u32());
  }
  req.deadline_hint_us = r.get_u32();
  const std::uint32_t dim = r.get_u32();
  check_count(dim, r.remaining(), 4, "hypervector dimension");
  std::vector<std::int32_t> comps(dim);
  r.get_i32s(comps);
  r.expect_end();
  req.target = hdc::Hypervector(std::move(comps));
  return req;
}

// ---------------------------------------------------------------------------
// FactorizedObject / FactorizeResult
// ---------------------------------------------------------------------------

namespace {

void encode_class(PayloadWriter& w, const core::ClassFactorization& cf) {
  w.put_u32(static_cast<std::uint32_t>(cf.cls));
  w.put_u8(cf.present ? 1 : 0);
  w.put_u32(static_cast<std::uint32_t>(cf.path.size()));
  for (const std::size_t s : cf.path) w.put_u32(static_cast<std::uint32_t>(s));
  w.put_u32(static_cast<std::uint32_t>(cf.level_similarities.size()));
  for (const double d : cf.level_similarities) w.put_f64(d);
  w.put_f64(cf.null_similarity);
}

core::ClassFactorization decode_class(PayloadReader& r) {
  core::ClassFactorization cf;
  cf.cls = r.get_u32();
  cf.present = r.get_u8() != 0;
  const std::uint32_t num_steps = r.get_u32();
  check_count(num_steps, r.remaining(), 4, "path steps");
  cf.path.reserve(num_steps);
  for (std::uint32_t i = 0; i < num_steps; ++i) cf.path.push_back(r.get_u32());
  const std::uint32_t num_levels = r.get_u32();
  check_count(num_levels, r.remaining(), 8, "level similarities");
  cf.level_similarities.reserve(num_levels);
  for (std::uint32_t i = 0; i < num_levels; ++i) {
    cf.level_similarities.push_back(r.get_f64());
  }
  cf.null_similarity = r.get_f64();
  return cf;
}

void encode_round_trace(PayloadWriter& w, const core::RoundTrace& rt) {
  w.put_u32(static_cast<std::uint32_t>(rt.candidates_per_class.size()));
  for (const std::size_t c : rt.candidates_per_class) {
    w.put_u32(static_cast<std::uint32_t>(c));
  }
  w.put_u32(static_cast<std::uint32_t>(rt.null_candidates));
  w.put_u64(rt.combinations);
  w.put_f64(rt.best_similarity);
  w.put_u8(rt.accepted ? 1 : 0);
}

core::RoundTrace decode_round_trace(PayloadReader& r) {
  core::RoundTrace rt;
  const std::uint32_t num_classes = r.get_u32();
  check_count(num_classes, r.remaining(), 4, "trace candidate counts");
  rt.candidates_per_class.reserve(num_classes);
  for (std::uint32_t i = 0; i < num_classes; ++i) {
    rt.candidates_per_class.push_back(r.get_u32());
  }
  rt.null_candidates = r.get_u32();
  rt.combinations = r.get_u64();
  rt.best_similarity = r.get_f64();
  rt.accepted = r.get_u8() != 0;
  return rt;
}

}  // namespace

void encode_factorized_object(PayloadWriter& w,
                              const core::FactorizedObject& obj) {
  w.put_u32(static_cast<std::uint32_t>(obj.classes.size()));
  for (const auto& cf : obj.classes) encode_class(w, cf);
  w.put_f64(obj.match_similarity);
}

core::FactorizedObject decode_factorized_object(PayloadReader& r) {
  core::FactorizedObject obj;
  const std::uint32_t num_classes = r.get_u32();
  check_count(num_classes, r.remaining(), 14, "object classes");
  obj.classes.reserve(num_classes);
  for (std::uint32_t i = 0; i < num_classes; ++i) {
    obj.classes.push_back(decode_class(r));
  }
  obj.match_similarity = r.get_f64();
  return obj;
}

std::vector<std::uint8_t> encode_result(const core::FactorizeResult& result,
                                        bool streamed) {
  PayloadWriter w;
  w.put_u64(result.similarity_ops);
  w.put_u64(result.combinations_checked);
  w.put_u64(result.rounds);
  w.put_u8(result.converged ? 1 : 0);
  w.put_u32(static_cast<std::uint32_t>(result.trace.size()));
  for (const auto& rt : result.trace) encode_round_trace(w, rt);
  w.put_u32(static_cast<std::uint32_t>(result.objects.size()));
  if (!streamed) {
    for (const auto& obj : result.objects) encode_factorized_object(w, obj);
  }
  return w.take();
}

core::FactorizeResult decode_result(
    std::span<const std::uint8_t> payload, bool streamed,
    std::vector<core::FactorizedObject> partials) {
  PayloadReader r(payload);
  core::FactorizeResult result;
  result.similarity_ops = r.get_u64();
  result.combinations_checked = r.get_u64();
  result.rounds = r.get_u64();
  result.converged = r.get_u8() != 0;
  const std::uint32_t num_rounds = r.get_u32();
  check_count(num_rounds, r.remaining(), 21, "round traces");
  result.trace.reserve(num_rounds);
  for (std::uint32_t i = 0; i < num_rounds; ++i) {
    result.trace.push_back(decode_round_trace(r));
  }
  const std::uint32_t num_objects = r.get_u32();
  if (streamed) {
    r.expect_end();
    if (partials.size() != num_objects) {
      throw ProtocolError("streamed result expected " +
                          std::to_string(num_objects) + " partials, got " +
                          std::to_string(partials.size()));
    }
    result.objects = std::move(partials);
  } else {
    check_count(num_objects, r.remaining(), 12, "result objects");
    result.objects.reserve(num_objects);
    for (std::uint32_t i = 0; i < num_objects; ++i) {
      result.objects.push_back(decode_factorized_object(r));
    }
    r.expect_end();
  }
  return result;
}

std::vector<std::uint8_t> encode_partial(std::uint32_t index,
                                         const core::FactorizedObject& obj) {
  PayloadWriter w;
  w.put_u32(index);
  encode_factorized_object(w, obj);
  return w.take();
}

std::pair<std::uint32_t, core::FactorizedObject> decode_partial(
    std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  const std::uint32_t index = r.get_u32();
  core::FactorizedObject obj = decode_factorized_object(r);
  r.expect_end();
  return {index, std::move(obj)};
}

// ---------------------------------------------------------------------------
// Error / overload
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_error(ErrorCode code,
                                       std::string_view message) {
  PayloadWriter w;
  w.put_u16(static_cast<std::uint16_t>(code));
  w.put_string(message);
  return w.take();
}

std::pair<ErrorCode, std::string> decode_error(
    std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  const auto code = static_cast<ErrorCode>(r.get_u16());
  std::string message = r.get_string();
  r.expect_end();
  return {code, std::move(message)};
}

std::vector<std::uint8_t> encode_overload(const OverloadInfo& info) {
  PayloadWriter w;
  w.put_u16(static_cast<std::uint16_t>(info.code));
  w.put_u32(info.queue_depth);
  w.put_u32(info.limit);
  w.put_string(info.detail);
  return w.take();
}

OverloadInfo decode_overload(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  OverloadInfo info;
  info.code = static_cast<OverloadCode>(r.get_u16());
  info.queue_depth = r.get_u32();
  info.limit = r.get_u32();
  info.detail = r.get_string();
  r.expect_end();
  return info;
}

}  // namespace factorhd::net
