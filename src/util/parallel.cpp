#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/env.hpp"

namespace factorhd::util {

namespace {

// Number of fanned-out parallel_for calls this thread is working for; > 0
// makes nested calls run inline.
thread_local int worker_depth = 0;

std::atomic<std::size_t> spawned{0};

}  // namespace

// Registered in util::env_knobs().
std::size_t pool_width() {
  static const std::size_t width = [] {
    const std::size_t env = env_size_t("FACTORHD_SCAN_THREADS", 0, 0, 256);
    if (env > 0) return env;
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    return std::min<std::size_t>(hw, 8);
  }();
  return width;
}

std::size_t threads_spawned() noexcept {
  return spawned.load(std::memory_order_relaxed);
}

std::size_t parallel_width(std::size_t requested) noexcept {
  return worker_depth > 0 ? 1 : requested;
}

namespace detail {

void fork_join(std::size_t tasks, std::size_t workers,
               const std::function<void(std::size_t)>& task) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex error_mutex;
  std::size_t error_task = tasks;
  std::exception_ptr error;

  const auto work = [&] {
    ++worker_depth;
    // Check `stop` before taking an index, never after: every handed-out
    // task runs, which makes the lowest-indexed throwing task always run.
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks) break;
      try {
        task(i);
      } catch (...) {
        stop.store(true, std::memory_order_relaxed);
        const std::lock_guard lock(error_mutex);
        if (i < error_task) {
          error_task = i;
          error = std::current_exception();
        }
      }
    }
    --worker_depth;
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  try {
    for (std::size_t w = 1; w < workers; ++w) {
      pool.emplace_back(work);
      spawned.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (...) {
    // Destroying joinable threads would call std::terminate.
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : pool) t.join();
    throw;
  }
  work();
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace detail

}  // namespace factorhd::util
