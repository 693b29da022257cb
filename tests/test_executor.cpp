#include "concurrent/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ppscan {
namespace {

/// Builds `count` unit ranges [i, i+1) — one task per index.
std::vector<TaskRange> unit_ranges(VertexId count) {
  std::vector<TaskRange> tasks;
  tasks.reserve(count);
  for (VertexId i = 0; i < count; ++i) tasks.push_back({i, i + 1});
  return tasks;
}

TEST(Executor, RejectsNonPositiveThreadCount) {
  EXPECT_THROW(Executor(0), std::invalid_argument);
  EXPECT_THROW(Executor(-3), std::invalid_argument);
}

TEST(Executor, FlatRunCoversEveryRangeExactlyOnce) {
  constexpr VertexId n = 20000;
  Executor executor(4);
  std::vector<std::atomic<int>> visited(n);
  for (auto& v : visited) v.store(0);
  const auto tasks = unit_ranges(n);
  executor.run(tasks.data(), tasks.size(), [&](VertexId beg, VertexId end) {
    for (VertexId u = beg; u < end; ++u) visited[u].fetch_add(1);
  });
  for (VertexId u = 0; u < n; ++u) {
    ASSERT_EQ(visited[u].load(), 1) << "vertex " << u;
  }
  EXPECT_EQ(executor.stats().tasks_executed, static_cast<std::uint64_t>(n));
}

TEST(Executor, EmptyRunReturnsImmediately) {
  Executor executor(2);
  executor.run(nullptr, 0, [](VertexId, VertexId) {
    FAIL() << "no range should execute";
  });
}

TEST(Executor, RawFunctionPointerApi) {
  Executor executor(2);
  std::atomic<std::uint64_t> sum{0};
  const auto tasks = unit_ranges(100);
  executor.run(
      tasks.data(), tasks.size(),
      [](void* ctx, VertexId beg, VertexId end) {
        for (VertexId u = beg; u < end; ++u) {
          static_cast<std::atomic<std::uint64_t>*>(ctx)->fetch_add(u);
        }
      },
      &sum);
  EXPECT_EQ(sum.load(), 99ull * 100 / 2);
}

TEST(Executor, ReusableAcrossManyPhases) {
  Executor executor(4);
  constexpr int kPhases = 50;
  constexpr VertexId n = 512;
  const auto tasks = unit_ranges(n);
  std::atomic<std::uint64_t> total{0};
  for (int p = 0; p < kPhases; ++p) {
    executor.run(tasks.data(), tasks.size(), [&](VertexId beg, VertexId end) {
      total.fetch_add(end - beg);
    });
    // The barrier makes per-phase totals exact, not just eventually
    // consistent.
    ASSERT_EQ(total.load(), static_cast<std::uint64_t>(n) * (p + 1));
  }
}

TEST(Executor, CurrentWorkerIdentifiesWorkers) {
  Executor executor(3);
  EXPECT_EQ(executor.current_worker(), -1);  // master thread
  std::atomic<int> bad{0};
  const auto tasks = unit_ranges(1000);
  executor.run(tasks.data(), tasks.size(), [&](VertexId, VertexId) {
    const int w = executor.current_worker();
    if (w < 0 || w >= 3) bad.fetch_add(1);
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(executor.current_worker(), -1);
}

TEST(Executor, TwoExecutorsDoNotConfuseWorkerIds) {
  Executor a(2);
  Executor b(2);
  std::atomic<int> bad{0};
  const auto tasks = unit_ranges(200);
  a.run(tasks.data(), tasks.size(), [&](VertexId, VertexId) {
    // Inside an `a` worker, `b` must disown the thread.
    if (b.current_worker() != -1) bad.fetch_add(1);
    if (a.current_worker() < 0) bad.fetch_add(1);
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(Executor, StatsCountTasksExactly) {
  Executor executor(4);
  constexpr VertexId n = 3000;
  const auto tasks = unit_ranges(n);
  executor.run(tasks.data(), tasks.size(), [](VertexId, VertexId) {});
  executor.run(tasks.data(), tasks.size(), [](VertexId, VertexId) {});
  const auto stats = executor.stats();
  EXPECT_EQ(stats.tasks_executed, 2ull * n);
  EXPECT_GE(stats.busy_seconds, 0.0);
  EXPECT_GE(stats.idle_seconds, 0.0);
}

TEST(Executor, SkewedLoadProducesSteals) {
  // Worker 0's segment starts with a long task; while it sleeps there, the
  // other workers drain their segments and must steal the remainder of
  // worker 0's. (Whoever claims the long task first, its remaining segment
  // is drained by non-owners.)
  Executor executor(4);
  constexpr VertexId n = 64;
  const auto tasks = unit_ranges(n);
  executor.run(tasks.data(), tasks.size(), [&](VertexId beg, VertexId) {
    if (beg == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  EXPECT_GT(executor.stats().steals, 0u);
  EXPECT_EQ(executor.stats().tasks_executed, n);
}

TEST(Executor, StealsNeverExceedTasksExecuted) {
  // Every steal is one claimed range, and every claimed range of a clean
  // run executes: across phases, steals <= tasks_executed.
  constexpr VertexId n = 50000;
  Executor executor(4);
  const auto tasks = unit_ranges(n);
  for (int round = 0; round < 3; ++round) {
    executor.run(tasks.data(), tasks.size(), [](VertexId, VertexId) {});
  }
  const ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.tasks_executed, 3ull * n);
  EXPECT_LE(stats.steals, stats.tasks_executed);
  EXPECT_EQ(stats.tasks_skipped, 0u);
  EXPECT_EQ(stats.tasks_failed, 0u);
}

TEST(Executor, SingleThreadExecutesEverything) {
  Executor executor(1);
  constexpr VertexId n = 4096;
  std::vector<std::atomic<int>> visited(n);
  for (auto& v : visited) v.store(0);
  const auto tasks = unit_ranges(n);
  executor.run(tasks.data(), tasks.size(), [&](VertexId beg, VertexId end) {
    for (VertexId u = beg; u < end; ++u) visited[u].fetch_add(1);
  });
  for (VertexId u = 0; u < n; ++u) ASSERT_EQ(visited[u].load(), 1);
  EXPECT_EQ(executor.stats().steals, 0u);
}

}  // namespace
}  // namespace ppscan
