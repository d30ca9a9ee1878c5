// Admission control for the network front end: a bounded priority queue
// over decoded-but-not-yet-dispatched factorize requests.
//
// The design transplants the bounded priority schedule of CaDiCaL's
// FactorSchedule heap: a hand-rolled binary min-heap (sift-up/sift-down
// over a flat vector) keyed here by (deadline, admission sequence), so the
// dispatcher always pulls the oldest-deadline request next and ties break
// FIFO — deterministic ordering under equal deadlines.
//
// Two bounds, both of which reject EXPLICITLY instead of queueing
// unboundedly (the reject becomes a kOverload frame on the wire):
//
//  * depth      — total tickets queued. Full queue => kQueueFull.
//  * per-client — tickets a single client may have in flight (queued OR
//    dispatched-but-unanswered). Exceeded => kQuotaExceeded, so one
//    pipelining-happy client cannot starve the rest.
//
// "In flight" ends when the server hands the response bytes to the
// client's write buffer (or drops them for a vanished client) and calls
// on_complete() — not when the engine finishes — so the quota also bounds
// response-buffer growth per client.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"

namespace factorhd::net {

/// Where a ticket's response goes: the connection bookkeeping the server
/// needs to route it back, small enough to copy into an engine callback.
struct ReplyTo {
  std::uint64_t client_id = 0;   ///< server-assigned connection identity
  std::uint64_t request_id = 0;  ///< wire request id (echoed on responses)
  bool stream = false;           ///< client asked for kPartial streaming
  /// Arrival time (frame fully parsed) — start of the admission stage.
  std::chrono::steady_clock::time_point arrival{};
};

/// One admitted unit of work: the decoded request plus where to answer it.
struct Ticket {
  ReplyTo reply;
  FactorizeRequest request;
  /// Absolute dispatch deadline in microseconds on the steady clock:
  /// arrival + client hint (or the server default). The heap key.
  std::uint64_t deadline_us = 0;
};

struct AdmissionConfig {
  std::size_t depth = 256;        ///< max queued tickets
  std::size_t client_quota = 32;  ///< max in-flight tickets per client
};

/// try_admit outcome. Everything except kAdmitted maps to a reject frame.
enum class Admit : std::uint8_t {
  kAdmitted,
  kQueueFull,       ///< kOverload / OverloadCode::kQueueFull
  kQuotaExceeded,   ///< kOverload / OverloadCode::kQuotaExceeded
  kShuttingDown,    ///< kError / ErrorCode::kShuttingDown
};

struct AdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t rejected_quota = 0;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionConfig config);

  /// Attempts to admit `ticket`. On kAdmitted the ticket is queued and the
  /// client's in-flight count is charged; any reject leaves no trace.
  [[nodiscard]] Admit try_admit(Ticket&& ticket);

  /// Blocks until a ticket is available (popped in (deadline, seq) order)
  /// or the queue is stopped AND drained.
  /// \return False only at stopped-and-empty — the dispatcher's exit signal.
  [[nodiscard]] bool pop(Ticket& out);

  /// Releases one in-flight slot of `client_id` (response handed to the
  /// write buffer, or dropped because the client disconnected). Must be
  /// called exactly once per admitted ticket.
  void on_complete(std::uint64_t client_id);

  /// Stop admitting (subsequent try_admit => kShuttingDown) and wake the
  /// dispatcher; already-queued tickets still drain through pop().
  void stop();

  [[nodiscard]] std::size_t size() const;
  /// \return In-flight count currently charged to `client_id` (tests).
  [[nodiscard]] std::size_t in_flight(std::uint64_t client_id) const;
  [[nodiscard]] AdmissionStats stats() const;
  [[nodiscard]] const AdmissionConfig& config() const noexcept {
    return config_;
  }

 private:
  struct Entry {
    std::uint64_t deadline_us;
    std::uint64_t seq;
    Ticket ticket;
  };
  /// True when the heap entry at `a` dispatches before the one at `b`.
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    return a.deadline_us != b.deadline_us ? a.deadline_us < b.deadline_us
                                          : a.seq < b.seq;
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  AdmissionConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Entry> heap_;
  std::unordered_map<std::uint64_t, std::size_t> in_flight_;
  AdmissionStats stats_;
  std::uint64_t next_seq_ = 0;
  bool stopped_ = false;
};

}  // namespace factorhd::net
