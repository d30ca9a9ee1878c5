// NetServer: the non-blocking TCP front end over a
// service::FactorizationEngine — what turns the library into a servable
// system (ROADMAP item 3).
//
//                    event-loop thread (epoll, poll fallback)
//   accept ──► per-connection FrameParser ──► ping/stats answered inline
//                       │ factorize frame              ▲
//                       ▼                              │ write buffers,
//              shed from the header: draining ──►      │ timeouts,
//              kShuttingDown, client over quota ──►    │ outbox drain
//              kOverload (no payload decode)           │
//                       │ decode, dim check            │
//                       ▼                              │
//              engine.try_submit(target, opts, arrival + deadline hint,
//                       │        callback)    full ──► kOverload (queue)
//                       ▼                              │
//              callback (cache hit or in-place run: inline on the loop,
//              written in the same iteration; queued: on the engine's
//              batcher): serialize kPartial*/kResult frames, push to the
//              outbox, wake the loop
//
// Run to completion when idle: a connection is read until the socket runs
// dry, and every frame is queued except the last one. When no later
// connection of the same poll batch is readable, that last frame is the
// only one the loop holds, so it is submitted with
// Placement::kInPlaceIfIdle: a cheap single-object request meeting an empty
// engine queue is factorized on the loop thread and answered in the same
// iteration, skipping both thread hops. Bursts still batch on the
// dispatcher, and overload still sheds with explicit rejects.
//
// Concurrency shape: exactly one thread, the event loop, owns every socket,
// all connection state and the per-client quota counts — no locks on the
// read/write paths. Work crosses threads in two places only: the engine's
// queue (loop → batcher) and the outbox (batcher completion callbacks →
// loop, woken via a self-pipe). No thread ever blocks waiting for a result,
// so a fast request (a cache hit) is never queued behind a slow one. A
// request's quota slot is charged when the engine takes it and released on
// the loop thread when the response bytes reach the client's write buffer
// (or are dropped because the client vanished), so every admitted request
// releases exactly once.
//
// Robustness: bounded read buffers (FrameParser's max_payload), bounded
// write buffers (slow readers are disconnected at the limit), and an idle
// timeout keyed on protocol progress — a complete frame parsed or response
// bytes flushed — so a slow-loris client trickling a partial frame times
// out like a silent one. The fault suite (tests/test_net_faults.cpp)
// exercises all three over real sockets under TSan.
//
// Latency attribution: the server owns a service::Metrics set recording
// Stage::kNetRead / kAdmission (frame parsed → engine submit returned) /
// kNetWrite plus end-to-end completions, so network time is attributed
// exactly like the engine's pipeline stages.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "service/engine.hpp"
#include "service/metrics.hpp"

namespace factorhd::net {

/// Readiness events a Poller reports for one fd.
struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

/// Minimal readiness-notification interface: epoll on Linux, poll(2) as
/// the portable fallback. Both implementations are always compiled (and
/// unit-tested) where available; selection is ServerOptions::poller /
/// FACTORHD_NET_POLLER.
class Poller {
 public:
  virtual ~Poller() = default;
  virtual void add(int fd, bool want_write) = 0;
  virtual void update(int fd, bool want_write) = 0;
  virtual void remove(int fd) = 0;
  /// Blocks up to `timeout_ms` and appends ready fds to `out`.
  virtual void wait(int timeout_ms, std::vector<PollEvent>& out) = 0;
  /// \return "epoll" or "poll" (diagnostics).
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// \param prefer_epoll False forces the poll(2) implementation.
[[nodiscard]] std::unique_ptr<Poller> make_poller(bool prefer_epoll);

/// Admission bound of the net front end. The queue-depth bound is the
/// engine's (ServiceOptions::queue_capacity): a full engine queue answers
/// kOverload / OverloadCode::kQueueFull.
struct AdmissionConfig {
  /// Factorize requests one connection may have in flight (submitted, not
  /// yet answered); past it: kOverload / OverloadCode::kQuotaExceeded, so
  /// one pipelining-happy client cannot starve the rest.
  std::size_t client_quota = 32;
};

struct AdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t rejected_quota = 0;
};

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 asks the kernel for an ephemeral
  /// port (read it back from NetServer::port()). Env: FACTORHD_NET_PORT.
  std::uint16_t port = 0;
  /// Per-client quota. Env: FACTORHD_NET_CLIENT_QUOTA.
  AdmissionConfig admission{};
  /// Disconnect a connection making no protocol progress (no complete
  /// frame parsed, no response bytes flushed) for this long.
  /// Env: FACTORHD_NET_IDLE_TIMEOUT_MS.
  std::size_t idle_timeout_ms = 30000;
  /// Per-frame payload bound (read side). Env: FACTORHD_NET_MAX_FRAME.
  std::size_t max_frame = kDefaultMaxPayload;
  /// Per-connection write-buffer bound; a client not draining its
  /// responses is disconnected here. Env: FACTORHD_NET_WRITE_BUF.
  std::size_t write_buffer_limit = 8u << 20;
  /// Engine-queue deadline applied when a request carries no hint (us).
  std::uint32_t default_deadline_us = 1'000'000;
  /// False selects poll(2) even where epoll is available.
  /// Env: FACTORHD_NET_POLLER (epoll | poll).
  bool prefer_epoll = true;
};

/// ServerOptions with every FACTORHD_NET_* knob resolved from the
/// environment (see util::env_knobs() and docs/TUNING.md).
[[nodiscard]] ServerOptions server_options_from_env();

/// Server-side counters (beyond the Metrics stage histograms).
struct ServerCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t disconnects_idle = 0;      ///< idle/slow-loris timeout
  std::uint64_t disconnects_protocol = 0;  ///< framing violation
  std::uint64_t disconnects_overflow = 0;  ///< write-buffer limit
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t responses_dropped = 0;  ///< computed for a vanished client
};

class NetServer {
 public:
  /// \param engine Engine to serve; must outlive the server (the serve tool
  ///   stops the server before swapping engines).
  NetServer(service::FactorizationEngine& engine, ServerOptions opts);
  /// Stops (drains) if still running.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts the event-loop thread.
  /// \throws std::runtime_error On socket/bind/listen failure.
  void start();

  /// Graceful drain: stop accepting, reject new factorize frames with
  /// kShuttingDown, wait for every submitted request's response, flush
  /// write buffers, then join the loop thread. Never returns while the loop
  /// is inside an engine submit. Idempotent.
  void stop();

  /// \return The bound TCP port (after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }
  [[nodiscard]] bool running() const noexcept { return running_; }
  /// \return "epoll" or "poll" (after start()).
  [[nodiscard]] const char* poller_name() const noexcept;

  [[nodiscard]] ServerCounters counters() const;
  [[nodiscard]] AdmissionStats admission_stats() const;
  /// Net-side stage latencies (kNetRead/kAdmission/kNetWrite) + completions.
  [[nodiscard]] service::MetricsSnapshot net_metrics() const {
    return net_metrics_.snapshot(engine_.queue_depth());
  }
  /// Human-readable net section appended to the serve tool's `stats`.
  [[nodiscard]] std::string stats_text() const;
  [[nodiscard]] const ServerOptions& options() const noexcept { return opts_; }

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    FrameParser parser;
    std::vector<std::uint8_t> write_buf;
    std::size_t write_off = 0;
    std::chrono::steady_clock::time_point last_progress;
    bool close_after_flush = false;
    bool want_write = false;  ///< current poller registration
    std::size_t in_flight = 0;  ///< submitted, unanswered (the quota count)

    explicit Connection(std::size_t max_frame) : parser(max_frame) {}
  };

  /// Where a submitted request's response goes; small enough to copy into
  /// an engine callback.
  struct ReplyTo {
    std::uint64_t client_id = 0;   ///< server-assigned connection identity
    std::uint64_t request_id = 0;  ///< wire request id (echoed on responses)
    bool stream = false;           ///< client asked for kPartial streaming
    /// Frame fully parsed — start of the admission stage.
    std::chrono::steady_clock::time_point arrival{};
  };

  /// Response bytes crossing from an engine completion back to the loop
  /// thread. Appending (or dropping) one releases its quota slot.
  struct Outgoing {
    std::uint64_t client_id = 0;
    std::vector<std::uint8_t> bytes;
    /// Engine-completion time — start of the kNetWrite stage.
    std::chrono::steady_clock::time_point ready{};
    /// Request arrival time — end-to-end completion is measured from here.
    std::chrono::steady_clock::time_point arrival{};
  };

  /// A counter only the loop thread writes; other threads read it relaxed.
  class LoopCounter {
   public:
    void bump() noexcept {
      v_.store(v_.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t get() const noexcept {
      return v_.load(std::memory_order_relaxed);
    }

   private:
    std::atomic<std::uint64_t> v_{0};
  };

  void event_loop();

  void accept_ready();
  /// Reads `conn` dry and handles its frames. Every frame is queued except
  /// the last one, which may run in place when `last_in_batch` (no later
  /// connection in this poll batch is readable).
  void handle_readable(Connection& conn, bool last_in_batch);
  void handle_frame(Connection& conn, Frame&& frame,
                    std::chrono::steady_clock::time_point read_start,
                    service::Placement placement);
  void flush_writes(Connection& conn);
  void append_response(Connection& conn, std::span<const std::uint8_t> bytes);
  void drain_outbox();
  void check_timeouts();
  void close_connection(std::uint64_t id, LoopCounter* counter);
  void update_poll_interest(Connection& conn);
  void wake_loop();
  /// Submits a decoded factorize request to the engine, or answers it.
  void submit(Connection& conn, const ReplyTo& to, FactorizeRequest&& request,
              service::Placement placement);
  /// The one completion path of a submitted request — engine result, failed
  /// flight, or a stopped engine: encodes the response, hands it to the
  /// loop, and ends the dispatch (see stop()).
  void complete(const ReplyTo& to, std::exception_ptr error,
                const core::FactorizeResult& result);
  /// Ends one dispatch; the last one lets a waiting stop() proceed.
  void end_dispatch();

  service::FactorizationEngine& engine_;
  ServerOptions opts_;
  service::Metrics net_metrics_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::unique_ptr<Poller> poller_;

  // Loop-thread-only state (no lock).
  std::unordered_map<std::uint64_t, Connection> conns_;
  std::unordered_map<int, std::uint64_t> fd_to_id_;
  std::uint64_t next_client_id_ = 1;

  // Loop-written counters (ServerCounters + AdmissionStats).
  LoopCounter accepted_, closed_, idle_, protocol_, overflow_;
  LoopCounter frames_in_, frames_out_, dropped_;
  LoopCounter admitted_, rejected_full_, rejected_quota_;

  // Cross-thread state.
  mutable std::mutex outbox_mu_;
  std::vector<Outgoing> outbox_;
  /// Requests handed to the engine whose completion has not run yet; stop()
  /// waits for zero before letting the loop flush and exit. draining_ is
  /// set under the same mutex, so the loop's draining_ check and its
  /// increment form one critical section against stop().
  std::mutex dispatched_mu_;
  std::condition_variable dispatched_cv_;
  std::size_t dispatched_ = 0;

  std::atomic<bool> draining_{false};
  std::atomic<bool> loop_exit_{false};
  bool running_ = false;
  bool stopped_ = false;

  std::thread loop_thread_;
};

}  // namespace factorhd::net
