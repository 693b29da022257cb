#include "concurrent/task_scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

namespace ppscan {
namespace {

struct Harness {
  explicit Harness(VertexId n) : visited(n) {
    for (auto& v : visited) v.store(0);
  }
  std::vector<std::atomic<int>> visited;
};

TEST(TaskScheduler, VisitsEveryVertexExactlyOnce) {
  constexpr VertexId n = 10000;
  Executor executor(4);
  Harness h(n);
  for (const auto kind : {SchedulerKind::DegreeSum, SchedulerKind::StaticRange,
                          SchedulerKind::FixedChunk}) {
    for (auto& v : h.visited) v.store(0);
    SchedulerOptions options;
    options.kind = kind;
    options.degree_threshold = 100;
    schedule_vertex_tasks(
        executor, n, [](VertexId) { return 10; },
        [](VertexId) { return true; },
        [&](VertexId u) { h.visited[u].fetch_add(1); }, options);
    for (VertexId u = 0; u < n; ++u) {
      ASSERT_EQ(h.visited[u].load(), 1)
          << "vertex " << u << " kind " << to_string(kind);
    }
  }
}

TEST(TaskScheduler, SkipsVerticesNotNeedingWork) {
  constexpr VertexId n = 1000;
  Executor executor(2);
  Harness h(n);
  schedule_vertex_tasks(
      executor, n, [](VertexId) { return 1; },
      [](VertexId u) { return u % 3 == 0; },
      [&](VertexId u) { h.visited[u].fetch_add(1); });
  for (VertexId u = 0; u < n; ++u) {
    EXPECT_EQ(h.visited[u].load(), u % 3 == 0 ? 1 : 0);
  }
}

TEST(TaskScheduler, DegreeThresholdControlsTaskCount) {
  constexpr VertexId n = 1024;
  Executor executor(2);
  SchedulerOptions options;
  options.kind = SchedulerKind::DegreeSum;
  options.degree_threshold = 100;
  Harness h(n);
  const auto stats = schedule_vertex_tasks(
      executor, n, [](VertexId) { return 10; }, [](VertexId) { return true; },
      [&](VertexId u) { h.visited[u].fetch_add(1); }, options);
  // 1024 vertices of degree 10 → a task every ~11 vertices.
  EXPECT_GE(stats.tasks_submitted, 80u);
  EXPECT_LE(stats.tasks_submitted, 110u);
}

TEST(TaskScheduler, HighDegreeVertexGetsItsOwnTask) {
  // One huge-degree vertex must immediately flush a task.
  constexpr VertexId n = 10;
  Executor executor(2);
  SchedulerOptions options;
  options.degree_threshold = 100;
  std::atomic<std::uint64_t> count{0};
  const auto stats = schedule_vertex_tasks(
      executor, n, [](VertexId u) { return u == 5 ? 1000u : 1u; },
      [](VertexId) { return true; }, [&](VertexId) { count.fetch_add(1); },
      options);
  EXPECT_EQ(count.load(), n);
  EXPECT_GE(stats.tasks_submitted, 2u);
}

TEST(TaskScheduler, StaticRangePolicyCoversAllVertices) {
  constexpr VertexId n = 997;  // prime, to catch off-by-one in range math
  Executor executor(4);
  SchedulerOptions options;
  options.kind = SchedulerKind::StaticRange;
  Harness h(n);
  const auto stats = schedule_vertex_tasks(
      executor, n, [](VertexId) { return 1; }, [](VertexId) { return true; },
      [&](VertexId u) { h.visited[u].fetch_add(1); }, options);
  for (VertexId u = 0; u < n; ++u) EXPECT_EQ(h.visited[u].load(), 1);
  EXPECT_EQ(stats.tasks_submitted, 4u);
}

TEST(TaskScheduler, FixedChunkPolicyCoversAllVertices) {
  constexpr VertexId n = 1000;
  Executor executor(4);
  SchedulerOptions options;
  options.kind = SchedulerKind::FixedChunk;
  options.chunk_size = 64;
  Harness h(n);
  const auto stats = schedule_vertex_tasks(
      executor, n, [](VertexId) { return 1; }, [](VertexId) { return true; },
      [&](VertexId u) { h.visited[u].fetch_add(1); }, options);
  for (VertexId u = 0; u < n; ++u) EXPECT_EQ(h.visited[u].load(), 1);
  EXPECT_EQ(stats.tasks_submitted, (n + 63) / 64);
}

TEST(TaskScheduler, EmptyVertexRange) {
  Executor executor(2);
  const auto stats = schedule_vertex_tasks(
      executor, 0, [](VertexId) { return 1; }, [](VertexId) { return true; },
      [](VertexId) { FAIL() << "no vertex should be visited"; });
  EXPECT_EQ(stats.tasks_submitted, 0u);
}

TEST(TaskScheduler, NothingNeedsWork) {
  Executor executor(2);
  std::atomic<int> visits{0};
  schedule_vertex_tasks(
      executor, 100, [](VertexId) { return 1; }, [](VertexId) { return false; },
      [&](VertexId) { visits.fetch_add(1); });
  EXPECT_EQ(visits.load(), 0);
}

TEST(TaskScheduler, PredicateReTestedInsideTask) {
  // A vertex whose predicate flips between bundling and execution is
  // skipped by the worker-side re-test (vertices settled by other tasks).
  constexpr VertexId n = 100;
  Executor executor(1);
  std::vector<std::atomic<bool>> todo(n);
  for (auto& t : todo) t.store(true);
  std::atomic<int> visits{0};
  schedule_vertex_tasks(
      executor, n, [](VertexId) { return 1; },
      [&](VertexId u) { return todo[u].load(); },
      [&](VertexId u) {
        visits.fetch_add(1);
        // Settle the next 5 vertices, emulating role propagation.
        for (VertexId v = u + 1; v < std::min<VertexId>(u + 6, n); ++v) {
          todo[v].store(false);
        }
      });
  // The whole range is one task on one worker, so it runs in order: only
  // every sixth vertex is still pending when reached (0, 6, ..., 96).
  EXPECT_EQ(visits.load(), 17);
}

TEST(TaskScheduler, DeadlineCutsAOneTaskPhaseMidRange) {
  // The whole phase is one range, so no claim boundary comes after the
  // first: only the strided deadline poll inside the range can stop it.
  // Each vertex spins for kPerVertex of wall-clock time, so the range has
  // run for at least (visited x kPerVertex) when it polls.
  using std::chrono::microseconds;
  using std::chrono::milliseconds;
  using std::chrono::steady_clock;
  constexpr VertexId n = 4096;  // 4096 x 20 us ~ 82 ms >> the 5 ms deadline
  constexpr microseconds kPerVertex{20};
  constexpr milliseconds kDeadline{5};
  Executor executor(4);
  RunLimits limits;
  limits.deadline = kDeadline;
  RunGovernor governor(limits);
  executor.install_governor(&governor);  // as the algorithms install it
  SchedulerOptions options;
  options.kind = SchedulerKind::FixedChunk;
  options.chunk_size = n;
  options.governor = &governor;
  std::atomic<VertexId> visited{0};
  const auto stats = schedule_vertex_tasks(
      executor, n, [](VertexId) { return 1; }, [](VertexId) { return true; },
      [&](VertexId) {
        const auto until = steady_clock::now() + kPerVertex;
        while (steady_clock::now() < until) {
        }
        visited.fetch_add(1, std::memory_order_relaxed);
      },
      options);
  EXPECT_EQ(stats.tasks_submitted, 1u);
  EXPECT_EQ(governor.abort_info().reason, AbortReason::DeadlineExpired);
  const VertexId bound =
      static_cast<VertexId>(kDeadline / kPerVertex) + 2 * kGovernorPollStride;
  EXPECT_LE(visited.load(), bound);
  executor.install_governor(nullptr);
}

TEST(TaskScheduler, ReusesScratch) {
  constexpr VertexId n = 5000;
  Executor executor(4);
  std::vector<TaskRange> scratch;
  Harness h(n);
  for (int round = 0; round < 3; ++round) {
    for (auto& v : h.visited) v.store(0);
    SchedulerOptions options;
    options.degree_threshold = 50;
    const auto stats = schedule_vertex_tasks(
        executor, n, [](VertexId) { return 5; },
        [](VertexId) { return true; },
        [&](VertexId u) { h.visited[u].fetch_add(1); }, options, &scratch);
    EXPECT_GT(stats.tasks_submitted, 1u);
    EXPECT_EQ(scratch.size(), stats.tasks_submitted);
    for (VertexId u = 0; u < n; ++u) ASSERT_EQ(h.visited[u].load(), 1);
  }
}

TEST(TaskScheduler, StaticRangeEmptyVertexRange) {
  // n == 0 must produce no tasks and no zero-width ranges (the static
  // split's prefix math is where the division/stride hazards live; see
  // bundle_ranges).
  SchedulerOptions options;
  options.kind = SchedulerKind::StaticRange;
  Executor executor(4);
  const auto stats = schedule_vertex_tasks(
      executor, 0, [](VertexId) { return 1; }, [](VertexId) { return true; },
      [](VertexId) { FAIL() << "no vertex should be visited"; }, options);
  EXPECT_EQ(stats.tasks_submitted, 0u);
}

TEST(TaskScheduler, StaticRangeFewerVerticesThanThreads) {
  // n < num_threads: every unit-degree vertex crosses its own share of the
  // degree sum, giving n unit tasks — every vertex covered exactly once, no
  // zero-width ranges.
  constexpr VertexId n = 3;
  SchedulerOptions options;
  options.kind = SchedulerKind::StaticRange;
  Executor executor(8);
  Harness h(n);
  const auto stats = schedule_vertex_tasks(
      executor, n, [](VertexId) { return 1; }, [](VertexId) { return true; },
      [&](VertexId u) { h.visited[u].fetch_add(1); }, options);
  for (VertexId u = 0; u < n; ++u) EXPECT_EQ(h.visited[u].load(), 1);
  EXPECT_EQ(stats.tasks_submitted, n);
}

}  // namespace
}  // namespace ppscan
