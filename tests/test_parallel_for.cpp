// util::parallel_for — the fork-join primitive under every worker pool:
//
//  * coverage — every task runs exactly once, on at most `workers` threads,
//    for task and worker counts around the edge cases (0, 1, fewer tasks
//    than workers, odd splits);
//  * errors — with several throwing tasks the lowest-indexed task's
//    exception is rethrown, and only after every started task has finished;
//  * nesting — a parallel_for inside a worker runs inline on that worker's
//    thread, and parallel_width() reports 1 there.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel.hpp"

namespace {

using factorhd::util::parallel_for;
using factorhd::util::parallel_width;

TEST(ParallelFor, RunsEveryTaskExactlyOnce) {
  for (std::size_t tasks : {0, 1, 2, 5, 17, 64}) {
    for (std::size_t workers : {1, 2, 3, 4, 7, 9}) {
      SCOPED_TRACE("tasks=" + std::to_string(tasks) +
                   " workers=" + std::to_string(workers));
      std::vector<std::atomic<int>> runs(tasks);
      std::mutex ids_mutex;
      std::set<std::thread::id> ids;
      parallel_for(tasks, workers, [&](std::size_t i) {
        runs[i].fetch_add(1, std::memory_order_relaxed);
        const std::lock_guard lock(ids_mutex);
        ids.insert(std::this_thread::get_id());
      });
      for (std::size_t i = 0; i < tasks; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "task " << i;
      }
      EXPECT_LE(ids.size(), std::max<std::size_t>(1, workers));
      if (workers == 1 || tasks == 1) {
        // Width 1 runs on the caller.
        EXPECT_TRUE(ids.empty() ||
                    (ids.size() == 1 &&
                     *ids.begin() == std::this_thread::get_id()));
      }
    }
  }
}

TEST(ParallelFor, RethrowsLowestIndexedFailureAfterJoin) {
  // Tasks 3, 9 and 40 throw; the others sleep briefly so some are still
  // running when the first exception is raised. Task 3 is always handed
  // out before 9 or 40 and a handed-out task always runs, so its exception
  // is the one rethrown, and every task that started has finished by then.
  for (int round = 0; round < 20; ++round) {
    for (std::size_t workers : {2, 4, 7}) {
      std::atomic<int> started{0};
      std::atomic<int> finished{0};
      try {
        parallel_for(64, workers, [&](std::size_t i) {
          started.fetch_add(1);
          if (i == 3 || i == 9 || i == 40) {
            finished.fetch_add(1);
            throw std::runtime_error(std::to_string(i));
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          finished.fetch_add(1);
        });
        ADD_FAILURE() << "parallel_for did not throw";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "3");
        EXPECT_EQ(started.load(), finished.load());
      }
      EXPECT_EQ(parallel_width(workers), workers);  // depth unwound
    }
  }
}

TEST(ParallelFor, InlineRunRethrowsFirstFailure) {
  std::vector<std::size_t> ran;
  EXPECT_THROW(parallel_for(8, 1,
                            [&](std::size_t i) {
                              ran.push_back(i);
                              if (i >= 2) throw std::invalid_argument("x");
                            }),
               std::invalid_argument);
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ParallelFor, NestedCallRunsInlineOnTheWorkerThread) {
  EXPECT_EQ(parallel_width(4), 4u);
  std::atomic<int> inner_runs{0};
  std::atomic<int> off_thread{0};
  parallel_for(4, 4, [&](std::size_t) {
    EXPECT_EQ(parallel_width(4), 1u);
    const std::thread::id outer = std::this_thread::get_id();
    std::vector<std::size_t> order;
    parallel_for(8, 4, [&](std::size_t j) {
      if (std::this_thread::get_id() != outer) off_thread.fetch_add(1);
      order.push_back(j);  // single-threaded by contract: no lock
      inner_runs.fetch_add(1);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  });
  EXPECT_EQ(inner_runs.load(), 32);
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_EQ(parallel_width(4), 4u);
}

}  // namespace
