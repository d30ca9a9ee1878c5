#include "net/admission.hpp"

#include <utility>

namespace factorhd::net {

AdmissionQueue::AdmissionQueue(AdmissionConfig config) : config_(config) {
  heap_.reserve(config_.depth);
}

void AdmissionQueue::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void AdmissionQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t left = 2 * i + 1;
    const std::size_t right = left + 1;
    std::size_t best = i;
    if (left < n && before(heap_[left], heap_[best])) best = left;
    if (right < n && before(heap_[right], heap_[best])) best = right;
    if (best == i) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

Admit AdmissionQueue::try_admit(Ticket&& ticket) {
  std::lock_guard lock(mu_);
  if (stopped_) return Admit::kShuttingDown;
  const auto it = in_flight_.find(ticket.reply.client_id);
  if (it != in_flight_.end() && it->second >= config_.client_quota) {
    ++stats_.rejected_quota;
    return Admit::kQuotaExceeded;
  }
  if (heap_.size() >= config_.depth) {
    ++stats_.rejected_full;
    return Admit::kQueueFull;
  }
  ++in_flight_[ticket.reply.client_id];
  ++stats_.admitted;
  heap_.push_back(
      Entry{ticket.deadline_us, next_seq_++, std::move(ticket)});
  sift_up(heap_.size() - 1);
  cv_.notify_one();
  return Admit::kAdmitted;
}

bool AdmissionQueue::pop(Ticket& out) {
  std::unique_lock lock(mu_);
  cv_.wait(lock, [&] { return stopped_ || !heap_.empty(); });
  if (heap_.empty()) return false;  // stopped and drained
  out = std::move(heap_.front().ticket);
  if (heap_.size() > 1) {
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    sift_down(0);
  } else {
    heap_.pop_back();
  }
  return true;
}

void AdmissionQueue::on_complete(std::uint64_t client_id) {
  std::lock_guard lock(mu_);
  const auto it = in_flight_.find(client_id);
  if (it == in_flight_.end()) return;
  if (--it->second == 0) in_flight_.erase(it);
}

void AdmissionQueue::stop() {
  std::lock_guard lock(mu_);
  stopped_ = true;
  cv_.notify_all();
}

std::size_t AdmissionQueue::size() const {
  std::lock_guard lock(mu_);
  return heap_.size();
}

std::size_t AdmissionQueue::in_flight(std::uint64_t client_id) const {
  std::lock_guard lock(mu_);
  const auto it = in_flight_.find(client_id);
  return it == in_flight_.end() ? 0 : it->second;
}

AdmissionStats AdmissionQueue::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace factorhd::net
