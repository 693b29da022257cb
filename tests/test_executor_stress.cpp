// Stress tests for the work-stealing executor, sized for ThreadSanitizer:
// they run in the `tsan` CI job, so iteration counts are chosen to finish
// in seconds under TSan's ~10x slowdown while still exercising thousands of
// claim/steal/park transitions.
#include "concurrent/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

namespace ppscan {
namespace {

TEST(ExecutorStress, ManyTinyTasksAcrossManyPhases) {
  Executor executor(4);
  constexpr int kPhases = 300;
  constexpr VertexId kTasks = 128;
  std::vector<TaskRange> tasks;
  for (VertexId i = 0; i < kTasks; ++i) tasks.push_back({i, i + 1});
  std::atomic<std::uint64_t> sum{0};
  for (int p = 0; p < kPhases; ++p) {
    executor.run(tasks.data(), tasks.size(),
                 [&](VertexId beg, VertexId) { sum.fetch_add(beg); });
  }
  constexpr std::uint64_t per_phase =
      static_cast<std::uint64_t>(kTasks - 1) * kTasks / 2;
  EXPECT_EQ(sum.load(), per_phase * kPhases);
  EXPECT_EQ(executor.stats().tasks_executed,
            static_cast<std::uint64_t>(kPhases) * kTasks);
}

TEST(ExecutorStress, WaitIdleReuseWithStreamingSubmits) {
  Executor executor(4);
  constexpr int kPhases = 200;
  constexpr VertexId kTasks = 64;
  std::atomic<std::uint64_t> executed{0};
  auto body = [&](VertexId, VertexId) { executed.fetch_add(1); };
  using B = decltype(body);
  for (int p = 0; p < kPhases; ++p) {
    executor.begin_phase(
        [](void* ctx, VertexId beg, VertexId end) {
          (*static_cast<B*>(ctx))(beg, end);
        },
        &body);
    for (VertexId u = 0; u < kTasks; ++u) executor.submit({u, u + 1});
    executor.wait_idle();
    ASSERT_EQ(executed.load(),
              static_cast<std::uint64_t>(p + 1) * kTasks);
  }
}

TEST(ExecutorStress, AlternatingFlatAndStreamingPhases) {
  // Flat-array claiming and deque submits share phase/pending state; making
  // them alternate catches cross-phase tag bugs (a stale segment cursor
  // must never validate against a later phase's state).
  Executor executor(4);
  constexpr int kRounds = 150;
  constexpr VertexId kTasks = 96;
  std::vector<TaskRange> tasks;
  for (VertexId i = 0; i < kTasks; ++i) tasks.push_back({i, i + 1});
  std::atomic<std::uint64_t> executed{0};
  auto body = [&](VertexId, VertexId) { executed.fetch_add(1); };
  using B = decltype(body);
  const RangeFn trampoline = [](void* ctx, VertexId beg, VertexId end) {
    (*static_cast<B*>(ctx))(beg, end);
  };
  for (int r = 0; r < kRounds; ++r) {
    executor.run(tasks.data(), tasks.size(), trampoline, &body);
    executor.begin_phase(trampoline, &body);
    for (VertexId u = 0; u < kTasks; ++u) executor.submit({u, u + 1});
    executor.wait_idle();
    ASSERT_EQ(executed.load(),
              static_cast<std::uint64_t>(r + 1) * kTasks * 2);
  }
}

TEST(ExecutorStress, NestedSubmitFanOut) {
  // Each seed task fans out into unit submits from inside workers,
  // exercising concurrent owner-push/thief-steal on the Chase-Lev deques.
  Executor executor(4);
  constexpr int kRounds = 50;
  constexpr VertexId kLeaves = 512;
  std::atomic<std::uint64_t> leaves{0};
  auto body = [&](VertexId beg, VertexId end) {
    if (end - beg > 1) {
      const VertexId mid = beg + (end - beg) / 2;
      executor.submit({beg, mid});
      executor.submit({mid, end});
      return;
    }
    leaves.fetch_add(1);
  };
  for (int r = 0; r < kRounds; ++r) {
    const TaskRange root{0, kLeaves};
    executor.run(&root, 1, body);
    ASSERT_EQ(leaves.load(), static_cast<std::uint64_t>(r + 1) * kLeaves);
  }
}

TEST(ExecutorStress, SteadyStealPressure) {
  // Repeated dense phases on more workers than cores keep every cursor
  // contended (fast workers finish their segment and raid the laggards'),
  // verifying the claim CAS and exactly-once delivery under steal pressure.
  Executor executor(4);
  constexpr int kRounds = 100;
  constexpr VertexId kTasks = 256;
  std::vector<TaskRange> tasks;
  for (VertexId i = 0; i < kTasks; ++i) tasks.push_back({i, i + 1});
  std::vector<std::atomic<std::uint8_t>> visited(kTasks);
  for (int r = 0; r < kRounds; ++r) {
    for (auto& v : visited) v.store(0);
    executor.run(tasks.data(), tasks.size(), [&](VertexId beg, VertexId) {
      visited[beg].fetch_add(1);
    });
    for (VertexId i = 0; i < kTasks; ++i) {
      ASSERT_EQ(visited[i].load(), 1) << "round " << r << " task " << i;
    }
  }
}

}  // namespace
}  // namespace ppscan
