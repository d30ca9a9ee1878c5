#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace factorhd::net {

NetClient::NetClient(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error("socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("not an IPv4 address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect(" + host + ":" + std::to_string(port) +
                             ") failed: " + err);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

NetClient::~NetClient() { close(); }

void NetClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void NetClient::set_recv_timeout(std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

void NetClient::send_raw(std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send failed: " +
                               std::string(std::strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }
}

std::uint64_t NetClient::send_frame(Opcode opcode, std::uint8_t flags,
                                    std::span<const std::uint8_t> payload) {
  const std::uint64_t id = next_request_id_++;
  send_raw(encode_frame(opcode, flags, id, payload));
  return id;
}

std::uint64_t NetClient::send_factorize(const hdc::Hypervector& target,
                                        const core::FactorizeOptions& opts,
                                        bool stream,
                                        std::uint32_t deadline_hint_us) {
  return send_frame(Opcode::kFactorize, stream ? kFlagStream : 0,
                    encode_factorize_request(opts, deadline_hint_us, target));
}

std::uint64_t NetClient::send_ping(const std::string& payload) {
  return send_frame(
      Opcode::kPing, 0,
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(payload.data()),
          payload.size()));
}

std::uint64_t NetClient::send_stats() {
  return send_frame(Opcode::kStats, 0, {});
}

NetClient::Response NetClient::recv_response() {
  while (true) {
    // Consume already-parsed frames first (pipelined responses often arrive
    // several per read).
    while (!pending_.empty()) {
      Frame frame = std::move(pending_.front());
      pending_.erase(pending_.begin());
      const std::uint64_t rid = frame.header.request_id;
      switch (frame.opcode()) {
        case Opcode::kPartial: {
          auto [index, obj] = decode_partial(frame.payload);
          auto& objs = partials_[rid];
          if (index != objs.size()) {
            throw ProtocolError("partial index " + std::to_string(index) +
                                " out of order (expected " +
                                std::to_string(objs.size()) + ")");
          }
          objs.push_back(std::move(obj));
          continue;  // not a logical response yet
        }
        case Opcode::kResult: {
          Response resp;
          resp.request_id = rid;
          resp.kind = Response::Kind::kResult;
          const bool streamed = (frame.header.flags & kFlagStreamed) != 0;
          std::vector<core::FactorizedObject> objs;
          if (streamed) {
            const auto it = partials_.find(rid);
            if (it != partials_.end()) {
              objs = std::move(it->second);
              partials_.erase(it);
            }
          }
          resp.partial_frames = streamed ? objs.size() : 0;
          resp.result = decode_result(frame.payload, streamed, std::move(objs));
          return resp;
        }
        case Opcode::kPong: {
          Response resp;
          resp.request_id = rid;
          resp.kind = Response::Kind::kPong;
          resp.text.assign(frame.payload.begin(), frame.payload.end());
          return resp;
        }
        case Opcode::kStatsText: {
          Response resp;
          resp.request_id = rid;
          resp.kind = Response::Kind::kStats;
          PayloadReader r(frame.payload);
          resp.text = r.get_string();
          r.expect_end();
          return resp;
        }
        case Opcode::kError: {
          Response resp;
          resp.request_id = rid;
          resp.kind = Response::Kind::kError;
          auto [code, message] = decode_error(frame.payload);
          resp.error_code = code;
          resp.text = std::move(message);
          return resp;
        }
        case Opcode::kOverload: {
          Response resp;
          resp.request_id = rid;
          resp.kind = Response::Kind::kOverload;
          resp.overload = decode_overload(frame.payload);
          return resp;
        }
        default:
          throw ProtocolError("unexpected response opcode " +
                              std::to_string(frame.header.opcode));
      }
    }
    std::uint8_t buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      parser_.feed(std::span<const std::uint8_t>(buf,
                                                 static_cast<std::size_t>(n)),
                   pending_);
      continue;
    }
    if (n == 0) throw std::runtime_error("server closed the connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw std::runtime_error("receive timeout");
    }
    throw std::runtime_error("recv failed: " +
                             std::string(std::strerror(errno)));
  }
}

core::FactorizeResult NetClient::factorize(const hdc::Hypervector& target,
                                           const core::FactorizeOptions& opts,
                                           bool stream,
                                           std::uint32_t deadline_hint_us) {
  const std::uint64_t id =
      send_factorize(target, opts, stream, deadline_hint_us);
  while (true) {
    Response resp = recv_response();
    if (resp.request_id != id) {
      // A pipelined caller mixing factorize() with manual sends would hit
      // this; the synchronous helper owns the connection by contract.
      throw ProtocolError("response id " + std::to_string(resp.request_id) +
                          " does not match request " + std::to_string(id));
    }
    switch (resp.kind) {
      case Response::Kind::kResult:
        return std::move(resp.result);
      case Response::Kind::kError:
        throw ServerError(resp.error_code, resp.text);
      case Response::Kind::kOverload:
        throw OverloadError(std::move(resp.overload));
      default:
        throw ProtocolError("unexpected response kind to factorize");
    }
  }
}

}  // namespace factorhd::net
