#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <cerrno>
#include <cstring>
#include <optional>
#include <sstream>
#include <utility>

#include "util/env.hpp"

namespace factorhd::net {

namespace {

double us_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// The server whose event loop runs on this thread, if any.
thread_local const NetServer* tls_loop_owner = nullptr;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// poll(2)-based fallback: interest map rebuilt into a pollfd array per
/// wait. O(n) per tick, which is fine at the connection counts a test or
/// a single-box deployment sees.
class PollPoller final : public Poller {
 public:
  void add(int fd, bool want_write) override { interest_[fd] = want_write; }
  void update(int fd, bool want_write) override { interest_[fd] = want_write; }
  void remove(int fd) override { interest_.erase(fd); }

  void wait(int timeout_ms, std::vector<PollEvent>& out) override {
    fds_.clear();
    for (const auto& [fd, want_write] : interest_) {
      pollfd p{};
      p.fd = fd;
      p.events = POLLIN;
      if (want_write) p.events |= POLLOUT;
      fds_.push_back(p);
    }
    const int n = ::poll(fds_.data(), fds_.size(), timeout_ms);
    if (n <= 0) return;
    for (const pollfd& p : fds_) {
      if (p.revents == 0) continue;
      PollEvent ev;
      ev.fd = p.fd;
      ev.readable = (p.revents & (POLLIN | POLLHUP)) != 0;
      ev.writable = (p.revents & POLLOUT) != 0;
      ev.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
      out.push_back(ev);
    }
  }

  [[nodiscard]] const char* name() const noexcept override { return "poll"; }

 private:
  std::unordered_map<int, bool> interest_;
  std::vector<pollfd> fds_;
};

#ifdef __linux__
class EpollPoller final : public Poller {
 public:
  EpollPoller() : epfd_(::epoll_create1(0)) {
    if (epfd_ < 0) {
      throw std::runtime_error("epoll_create1 failed: " +
                               std::string(std::strerror(errno)));
    }
  }
  ~EpollPoller() override { ::close(epfd_); }

  void add(int fd, bool want_write) override { ctl(EPOLL_CTL_ADD, fd, want_write); }
  void update(int fd, bool want_write) override {
    ctl(EPOLL_CTL_MOD, fd, want_write);
  }
  void remove(int fd) override {
    epoll_event ev{};
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
  }

  void wait(int timeout_ms, std::vector<PollEvent>& out) override {
    epoll_event events[64];
    const int n = ::epoll_wait(epfd_, events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      PollEvent ev;
      ev.fd = events[i].data.fd;
      ev.readable = (events[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      ev.writable = (events[i].events & EPOLLOUT) != 0;
      ev.error = (events[i].events & EPOLLERR) != 0;
      out.push_back(ev);
    }
  }

  [[nodiscard]] const char* name() const noexcept override { return "epoll"; }

 private:
  void ctl(int op, int fd, bool want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    ::epoll_ctl(epfd_, op, fd, &ev);
  }
  int epfd_;
};
#endif

}  // namespace

std::unique_ptr<Poller> make_poller(bool prefer_epoll) {
#ifdef __linux__
  if (prefer_epoll) return std::make_unique<EpollPoller>();
#else
  (void)prefer_epoll;
#endif
  return std::make_unique<PollPoller>();
}

ServerOptions server_options_from_env() {
  ServerOptions opts;
  opts.port = static_cast<std::uint16_t>(
      util::env_size_t("FACTORHD_NET_PORT", 0, 0, 65535));
  opts.admission.client_quota =
      util::env_size_t("FACTORHD_NET_CLIENT_QUOTA", 32, 1, 1u << 20);
  opts.idle_timeout_ms =
      util::env_size_t("FACTORHD_NET_IDLE_TIMEOUT_MS", 30000, 10, 86'400'000);
  opts.max_frame = util::env_size_t("FACTORHD_NET_MAX_FRAME",
                                    kDefaultMaxPayload, 1024, 1u << 30);
  opts.write_buffer_limit =
      util::env_size_t("FACTORHD_NET_WRITE_BUF", 8u << 20, 4096, 1u << 30);
  opts.prefer_epoll = util::env_string("FACTORHD_NET_POLLER", "epoll") != "poll";
  return opts;
}

NetServer::NetServer(service::FactorizationEngine& engine, ServerOptions opts)
    : engine_(engine), opts_(opts) {}

NetServer::~NetServer() { stop(); }

const char* NetServer::poller_name() const noexcept {
  return poller_ ? poller_->name() : "unstarted";
}

void NetServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind(127.0.0.1:" + std::to_string(opts_.port) +
                             ") failed: " + err);
  }
  if (::listen(listen_fd_, 128) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("listen() failed: " + err);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("pipe() failed: " +
                             std::string(std::strerror(errno)));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  set_nonblocking(wake_read_fd_);
  set_nonblocking(wake_write_fd_);

  poller_ = make_poller(opts_.prefer_epoll);
  poller_->add(listen_fd_, false);
  poller_->add(wake_read_fd_, false);

  draining_ = false;
  loop_exit_ = false;
  running_ = true;
  stopped_ = false;
  loop_thread_ = std::thread([this] { event_loop(); });
}

void NetServer::stop() {
  if (!running_ || stopped_) return;
  stopped_ = true;

  // 1. Refuse new work: no more accepts, factorize frames answered with
  //    kShuttingDown. Set under dispatched_mu_, so every submit either
  //    counted itself in dispatched_ before this point or sees draining_.
  // 2. Wait for the engine to complete every submitted request; all
  //    response bytes are in the outbox afterwards.
  {
    std::unique_lock lock(dispatched_mu_);
    draining_ = true;
    dispatched_cv_.wait(lock, [this] { return dispatched_ == 0; });
  }

  // 3. Let the loop flush: it exits once the outbox and every write buffer
  //    are empty (bounded by a drain deadline so a stuck client cannot
  //    wedge shutdown).
  loop_exit_ = true;
  wake_loop();
  loop_thread_.join();

  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
  poller_.reset();
  running_ = false;
}

void NetServer::wake_loop() {
  if (wake_write_fd_ < 0) return;
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void NetServer::event_loop() {
  tls_loop_owner = this;
  std::vector<PollEvent> events;
  std::chrono::steady_clock::time_point drain_deadline{};
  bool drain_armed = false;
  while (true) {
    events.clear();
    poller_->wait(50, events);
    // The last readable connection of the batch: only its last frame may
    // run in place, since no other connection has a frame waiting behind it.
    std::size_t last_readable = events.size();
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].readable && fd_to_id_.contains(events[i].fd)) {
        last_readable = i;
      }
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      const PollEvent& ev = events[i];
      if (ev.fd == listen_fd_) {
        if (!draining_) accept_ready();
        continue;
      }
      if (ev.fd == wake_read_fd_) {
        char buf[256];
        while (::read(wake_read_fd_, buf, sizeof buf) > 0) {
        }
        continue;
      }
      const auto id_it = fd_to_id_.find(ev.fd);
      if (id_it == fd_to_id_.end()) continue;
      const std::uint64_t id = id_it->second;
      if (ev.error) {
        close_connection(id, nullptr);
        continue;
      }
      if (ev.readable) handle_readable(conns_.at(id), i == last_readable);
      // handle_readable may have closed the connection.
      const auto it = conns_.find(id);
      if (it != conns_.end() && ev.writable) flush_writes(it->second);
    }
    drain_outbox();
    check_timeouts();
    if (loop_exit_) {
      if (!drain_armed) {
        drain_armed = true;
        drain_deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(opts_.idle_timeout_ms);
      }
      bool pending;
      {
        std::lock_guard lock(outbox_mu_);
        pending = !outbox_.empty();
      }
      for (const auto& [id, conn] : conns_) {
        if (conn.write_buf.size() > conn.write_off) pending = true;
      }
      if (!pending || std::chrono::steady_clock::now() >= drain_deadline) {
        break;
      }
    }
  }
  // Final teardown: close every connection (their fds are loop-owned).
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) close_connection(id, nullptr);
  tls_loop_owner = nullptr;
}

void NetServer::accept_ready() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient failure: back to the poller
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const std::uint64_t id = next_client_id_++;
    Connection conn(opts_.max_frame);
    conn.fd = fd;
    conn.id = id;
    conn.last_progress = std::chrono::steady_clock::now();
    conns_.emplace(id, std::move(conn));
    fd_to_id_[fd] = id;
    poller_->add(fd, false);
    accepted_.bump();
  }
}

void NetServer::handle_readable(Connection& conn, bool last_in_batch) {
  const std::uint64_t id = conn.id;
  std::uint8_t buf[65536];
  std::vector<Frame> frames;
  // The newest complete frame is held back until the socket runs dry: only
  // then is it known to be the last frame this connection has sent.
  std::optional<Frame> held;
  std::chrono::steady_clock::time_point held_read_start{};
  // Handles the held frame, if any. \return false once `conn` is closed.
  const auto release_held = [&](service::Placement placement) {
    if (!held) return true;
    handle_frame(conn, std::move(*held), held_read_start, placement);
    held.reset();
    return conns_.contains(id);
  };
  while (true) {
    const ssize_t n = ::read(conn.fd, buf, sizeof buf);
    if (n > 0) {
      const auto read_start = std::chrono::steady_clock::now();
      frames.clear();
      try {
        conn.parser.feed(std::span<const std::uint8_t>(buf,
                                                       static_cast<std::size_t>(n)),
                         frames);
      } catch (const ProtocolError& e) {
        if (!release_held(service::Placement::kQueue)) return;
        // Framing violation: best-effort error frame, then disconnect once
        // it flushes. The parser is poisoned; stop reading this client.
        // close_after_flush is set first — append_response may close the
        // connection itself (write-buffer overflow), so nothing may touch
        // `conn` after the call.
        conn.close_after_flush = true;
        protocol_.bump();
        append_response(
            conn, encode_frame(Opcode::kError, 0, 0,
                               encode_error(ErrorCode::kBadFrame, e.what())));
        return;
      }
      if (frames.empty()) continue;
      if (!release_held(service::Placement::kQueue)) return;
      for (std::size_t f = 0; f + 1 < frames.size(); ++f) {
        handle_frame(conn, std::move(frames[f]), read_start,
                     service::Placement::kQueue);
        if (!conns_.contains(id)) return;  // closed mid-batch
      }
      held = std::move(frames.back());
      held_read_start = read_start;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Drained: the held frame is the last one the loop holds when no
      // later connection in this poll batch is readable.
      release_held(last_in_batch ? service::Placement::kInPlaceIfIdle
                                 : service::Placement::kQueue);
      return;
    }
    // Orderly peer close (possibly with requests in flight) or a read error.
    if (release_held(service::Placement::kQueue)) close_connection(id, nullptr);
    return;
  }
}

void NetServer::handle_frame(Connection& conn, Frame&& frame,
                             std::chrono::steady_clock::time_point read_start,
                             service::Placement placement) {
  const auto now = std::chrono::steady_clock::now();
  conn.last_progress = now;  // a complete frame is protocol progress
  frames_in_.bump();
  const std::uint64_t rid = frame.header.request_id;
  const std::uint8_t raw_op = frame.header.opcode;
  const auto reply = [&](Opcode op, std::uint8_t flags,
                         std::span<const std::uint8_t> payload) {
    append_response(conn, encode_frame(op, flags, rid, payload));
  };

  // A request opcode must be one the server speaks; response opcodes
  // arriving here are equally unknown-as-requests.
  if (raw_op != static_cast<std::uint8_t>(Opcode::kFactorize) &&
      raw_op != static_cast<std::uint8_t>(Opcode::kPing) &&
      raw_op != static_cast<std::uint8_t>(Opcode::kStats)) {
    reply(Opcode::kError, 0,
          encode_error(ErrorCode::kUnknownOpcode,
                       "unknown request opcode " + std::to_string(raw_op)));
    return;
  }

  switch (static_cast<Opcode>(raw_op)) {
    case Opcode::kPing: {
      reply(Opcode::kPong, 0, frame.payload);
      return;
    }
    case Opcode::kStats: {
      PayloadWriter w;
      w.put_string(engine_.metrics().to_string() + "\n" + stats_text());
      reply(Opcode::kStatsText, 0, w.bytes());
      return;
    }
    case Opcode::kFactorize:
      break;
    default:
      return;  // unreachable: filtered above
  }

  // Shed from the header: a draining server or an exhausted quota answers
  // before the payload is decoded, so a burst past the quota costs no decode.
  if (draining_) {
    reply(Opcode::kError, 0,
          encode_error(ErrorCode::kShuttingDown, "server draining"));
    return;
  }
  if (conn.in_flight >= opts_.admission.client_quota) {
    rejected_quota_.bump();
    net_metrics_.on_rejected();
    OverloadInfo info;
    info.code = OverloadCode::kQuotaExceeded;
    info.queue_depth = static_cast<std::uint32_t>(engine_.queue_depth());
    info.limit = static_cast<std::uint32_t>(opts_.admission.client_quota);
    info.detail = "per-client in-flight quota exhausted";
    reply(Opcode::kOverload, 0, encode_overload(info));
    return;
  }

  FactorizeRequest request;
  try {
    request = decode_factorize_request(frame.payload);
  } catch (const ProtocolError& e) {
    // Frame-aligned garbage: the stream itself is intact, so answer an
    // error and keep the connection.
    reply(Opcode::kError, 0, encode_error(ErrorCode::kBadPayload, e.what()));
    return;
  }
  net_metrics_.on_stage(service::Stage::kNetRead, us_between(read_start, now));

  const std::size_t model_dim = engine_.model().books().dim();
  if (request.target.dim() != model_dim) {
    reply(Opcode::kError, 0,
          encode_error(ErrorCode::kDimensionMismatch,
                       "target dim " + std::to_string(request.target.dim()) +
                           " != model dim " + std::to_string(model_dim)));
    return;
  }
  submit(conn, {conn.id, rid, (frame.header.flags & kFlagStream) != 0, now},
         std::move(request), placement);
}

void NetServer::submit(Connection& conn, const ReplyTo& to,
                       FactorizeRequest&& request,
                       service::Placement placement) {
  bool refused;
  {
    // One critical section with stop()'s flip of draining_: stop() cannot
    // see dispatched_ == 0 while this submit is under way.
    std::lock_guard lock(dispatched_mu_);
    refused = draining_;
    if (!refused) ++dispatched_;
  }
  if (refused) {
    append_response(conn, encode_frame(Opcode::kError, 0, to.request_id,
                                       encode_error(ErrorCode::kShuttingDown,
                                                    "server draining")));
    return;
  }
  const std::uint32_t hint = request.deadline_hint_us != 0
                                 ? request.deadline_hint_us
                                 : opts_.default_deadline_us;
  const service::SubmitStatus status = engine_.try_submit(
      std::move(request.target), request.opts,
      to.arrival + std::chrono::microseconds(hint),
      [this, to](std::exception_ptr error,
                 const core::FactorizeResult& result) {
        complete(to, std::move(error), result);
      },
      placement);
  net_metrics_.on_stage(
      service::Stage::kAdmission,
      us_between(to.arrival, std::chrono::steady_clock::now()));
  if (status == service::SubmitStatus::kQueueFull) {
    end_dispatch();
    rejected_full_.bump();
    net_metrics_.on_rejected();
    OverloadInfo info;
    info.code = OverloadCode::kQueueFull;
    info.limit =
        static_cast<std::uint32_t>(engine_.options().queue_capacity);
    info.queue_depth = info.limit;  // full
    info.detail = "engine queue full";
    append_response(conn, encode_frame(Opcode::kOverload, 0, to.request_id,
                                       encode_overload(info)));
    return;
  }
  // Accepted, or refused by a stopped engine: either way the response comes
  // through complete() and the outbox, which releases the quota slot.
  ++conn.in_flight;
  admitted_.bump();
  net_metrics_.on_submitted();
  if (status == service::SubmitStatus::kStopped) {
    complete(to,
             std::make_exception_ptr(
                 service::EngineStoppedError("engine is stopped")),
             core::FactorizeResult{});
  }
}

void NetServer::append_response(Connection& conn,
                                std::span<const std::uint8_t> bytes) {
  conn.write_buf.insert(conn.write_buf.end(), bytes.begin(), bytes.end());
  frames_out_.bump();
  if (conn.write_buf.size() - conn.write_off > opts_.write_buffer_limit) {
    // Slow reader: responses are piling up faster than the client drains
    // them. Cut the connection instead of buffering unboundedly.
    close_connection(conn.id, &overflow_);
    return;
  }
  flush_writes(conn);
}

void NetServer::flush_writes(Connection& conn) {
  while (conn.write_off < conn.write_buf.size()) {
    const ssize_t n = ::write(conn.fd, conn.write_buf.data() + conn.write_off,
                              conn.write_buf.size() - conn.write_off);
    if (n > 0) {
      conn.write_off += static_cast<std::size_t>(n);
      conn.last_progress = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_connection(conn.id, nullptr);
    return;
  }
  if (conn.write_off == conn.write_buf.size()) {
    conn.write_buf.clear();
    conn.write_off = 0;
    if (conn.close_after_flush) {
      close_connection(conn.id, nullptr);
      return;
    }
  }
  update_poll_interest(conn);
}

void NetServer::update_poll_interest(Connection& conn) {
  const bool want_write = conn.write_off < conn.write_buf.size();
  if (want_write != conn.want_write) {
    conn.want_write = want_write;
    poller_->update(conn.fd, want_write);
  }
}

void NetServer::drain_outbox() {
  std::vector<Outgoing> local;
  {
    std::lock_guard lock(outbox_mu_);
    local.swap(outbox_);
  }
  for (Outgoing& out : local) {
    const auto now = std::chrono::steady_clock::now();
    const auto it = conns_.find(out.client_id);
    if (it == conns_.end()) {
      dropped_.bump();  // its quota count went with the connection
    } else {
      // In-flight ends here whether the bytes are buffered or dropped — the
      // exactly-once release point of the quota. Released before
      // append_response, which may close the connection.
      --it->second.in_flight;
      if (it->second.close_after_flush) {
        dropped_.bump();
      } else {
        append_response(it->second, out.bytes);
      }
    }
    net_metrics_.on_stage(service::Stage::kNetWrite,
                          us_between(out.ready, now));
    net_metrics_.on_completed(us_between(out.arrival, now));
  }
}

void NetServer::check_timeouts() {
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(opts_.idle_timeout_ms);
  std::vector<std::uint64_t> expired;
  for (const auto& [id, conn] : conns_) {
    if (now - conn.last_progress > limit) expired.push_back(id);
  }
  for (const std::uint64_t id : expired) {
    close_connection(id, &idle_);
  }
}

void NetServer::close_connection(std::uint64_t id, LoopCounter* counter) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  const int fd = it->second.fd;
  poller_->remove(fd);
  ::close(fd);
  fd_to_id_.erase(fd);
  conns_.erase(it);
  closed_.bump();
  if (counter != nullptr) counter->bump();
}

// ---------------------------------------------------------------------------
// The completion path
// ---------------------------------------------------------------------------

void NetServer::complete(const ReplyTo& to, std::exception_ptr error,
                         const core::FactorizeResult& result) {
  Outgoing out;
  out.client_id = to.client_id;
  out.ready = std::chrono::steady_clock::now();
  out.arrival = to.arrival;
  const std::uint64_t rid = to.request_id;
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const service::EngineStoppedError& e) {
      out.bytes = encode_frame(
          Opcode::kError, 0, rid,
          encode_error(ErrorCode::kShuttingDown, e.what()));
    } catch (const std::exception& e) {
      out.bytes = encode_frame(Opcode::kError, 0, rid,
                               encode_error(ErrorCode::kInternal, e.what()));
    }
  } else if (to.stream) {
    // One kPartial per object, then the final kResult (kFlagStreamed)
    // carrying the scalars + object count — all in one buffer so the frames
    // reach the write buffer atomically and in order.
    for (std::size_t i = 0; i < result.objects.size(); ++i) {
      const auto partial = encode_frame(
          Opcode::kPartial, 0, rid,
          encode_partial(static_cast<std::uint32_t>(i), result.objects[i]));
      out.bytes.insert(out.bytes.end(), partial.begin(), partial.end());
    }
    const auto fin = encode_frame(Opcode::kResult, kFlagStreamed, rid,
                                  encode_result(result, true));
    out.bytes.insert(out.bytes.end(), fin.begin(), fin.end());
  } else {
    out.bytes =
        encode_frame(Opcode::kResult, 0, rid, encode_result(result, false));
  }
  {
    std::lock_guard lock(outbox_mu_);
    outbox_.push_back(std::move(out));
  }
  // On the loop thread (a cache hit or an in-place run) the loop drains the
  // outbox before it polls again; only other threads need the self-pipe.
  if (tls_loop_owner != this) wake_loop();
  // Last: once the count reaches zero stop() may return and destroy the
  // server, so nothing after this call may touch `this`.
  end_dispatch();
}

void NetServer::end_dispatch() {
  std::lock_guard lock(dispatched_mu_);
  if (--dispatched_ == 0) dispatched_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

ServerCounters NetServer::counters() const {
  ServerCounters c;
  c.connections_accepted = accepted_.get();
  c.connections_closed = closed_.get();
  c.disconnects_idle = idle_.get();
  c.disconnects_protocol = protocol_.get();
  c.disconnects_overflow = overflow_.get();
  c.frames_in = frames_in_.get();
  c.frames_out = frames_out_.get();
  c.responses_dropped = dropped_.get();
  return c;
}

AdmissionStats NetServer::admission_stats() const {
  return {admitted_.get(), rejected_full_.get(), rejected_quota_.get()};
}

std::string NetServer::stats_text() const {
  const ServerCounters c = counters();
  const AdmissionStats a = admission_stats();
  const std::size_t queued = engine_.queue_depth();
  const service::MetricsSnapshot net = net_metrics_.snapshot(queued);
  std::ostringstream os;
  os << "net:       " << c.connections_accepted << " accepted, "
     << c.connections_closed << " closed (" << c.disconnects_idle
     << " idle, " << c.disconnects_protocol << " protocol, "
     << c.disconnects_overflow << " overflow), poller " << poller_name()
     << "\nnet io:    " << c.frames_in << " frames in, " << c.frames_out
     << " frames out, " << c.responses_dropped << " responses dropped\n"
     << "admission: " << a.admitted << " admitted, " << a.rejected_full
     << " queue-full rejects, " << a.rejected_quota << " quota rejects, "
     << queued << " queued in the engine";
  for (const service::Stage stage :
       {service::Stage::kNetRead, service::Stage::kAdmission,
        service::Stage::kNetWrite}) {
    const auto& d = net.stages[static_cast<std::size_t>(stage)];
    os << "\nstage " << service::to_string(stage) << ": " << d.count
       << " samples, p50 ~ " << d.p50_us << " us, p99 ~ " << d.p99_us
       << " us, p99.9 ~ " << d.p999_us << " us";
  }
  return os.str();
}

}  // namespace factorhd::net
