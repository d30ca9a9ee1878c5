// Fork-join over independent tasks: the one place the library starts
// short-lived worker threads.
//
// parallel_for(tasks, workers, fn) calls fn(0) .. fn(tasks - 1), each exactly
// once, on up to `workers` threads: the caller works as one of them and the
// others are spawned for this call and joined before it returns. Workers
// pull task indices from one shared counter, so timing decides which thread
// runs a task. Callers that must be byte-identical at any width give each
// task its own output slots (one task per fixed row block, shard or target)
// and reduce in task order afterwards.
//
// Errors: once a task throws, no further tasks are handed out. After every
// started thread has joined, the exception of the lowest-indexed failed task
// is rethrown. Indices are handed out in increasing order and a handed-out
// task always runs, so that is the lowest-indexed throwing task overall —
// the exception a sequential loop would raise. If spawning a thread fails,
// the threads already started are joined and the spawn error propagates.
//
// Nesting: while a thread works on the tasks of a call that fanned out, a
// nested parallel_for on it runs its tasks inline and in order, so thread
// counts never multiply. parallel_width() reports this to callers that size
// their work (or pick a sequential fast path) from the width.
//
// Width: pool_width() is the one cap on how many threads any fork-join
// uses — plane scans, shard scatters and auto-width batches alike.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>

namespace factorhd::util {

/// Widest fork-join any caller should ask for: FACTORHD_SCAN_THREADS when
/// set (1 disables threading), else min(hardware threads, 8). Read once.
[[nodiscard]] std::size_t pool_width();

/// Threads util::parallel_for has spawned in this process so far (the
/// caller's own share of the work is not counted). Tests read it to check
/// that a call ran without fanning out.
[[nodiscard]] std::size_t threads_spawned() noexcept;

/// `requested`, or 1 on a thread that is working on a fanned-out
/// parallel_for call (where a nested call would run inline anyway).
[[nodiscard]] std::size_t parallel_width(std::size_t requested) noexcept;

namespace detail {
/// The threaded path of parallel_for; requires 2 <= workers <= tasks.
void fork_join(std::size_t tasks, std::size_t workers,
               const std::function<void(std::size_t)>& task);
}  // namespace detail

/// Runs `fn(task)` for every task in [0, tasks) on up to `workers` threads
/// (see the file comment for hand-out, error and nesting rules). A width of
/// 1 — `workers` <= 1, `tasks` <= 1, or a nested call — runs the tasks in
/// order on the caller without spawning.
template <typename Fn>
void parallel_for(std::size_t tasks, std::size_t workers, const Fn& fn) {
  const std::size_t width = std::min(parallel_width(workers), tasks);
  if (width <= 1) {
    for (std::size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  detail::fork_join(tasks, width, std::cref(fn));
}

}  // namespace factorhd::util
