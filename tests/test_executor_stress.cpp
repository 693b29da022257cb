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

TEST(ExecutorStress, AlternatingPhaseSizes) {
  // Cycling the phase size leaves stale cursors of a larger phase in place
  // while a smaller one runs (size 0 and 1 touch no or one segment, size
  // workers - 1 leaves one segment empty): a stale cursor must never
  // validate against a later phase's segment end (the cross-phase claim
  // race the phase tags guard), so every task runs exactly once.
  constexpr int kWorkers = 4;
  Executor executor(kWorkers);
  constexpr int kRounds = 150;
  constexpr VertexId kSizes[] = {0, 1, kWorkers - 1, 4 * kWorkers + 3};
  constexpr VertexId kMaxTasks = 4 * kWorkers + 3;
  std::vector<TaskRange> tasks;
  for (VertexId i = 0; i < kMaxTasks; ++i) tasks.push_back({i, i + 1});
  std::vector<std::atomic<std::uint32_t>> visited(kMaxTasks);
  std::uint64_t expected = 0;
  for (int r = 0; r < kRounds; ++r) {
    for (const VertexId size : kSizes) {
      for (auto& v : visited) v.store(0);
      executor.run(tasks.data(), size, [&](VertexId beg, VertexId) {
        visited[beg].fetch_add(1);
      });
      for (VertexId i = 0; i < kMaxTasks; ++i) {
        ASSERT_EQ(visited[i].load(), i < size ? 1u : 0u)
            << "round " << r << " size " << size << " task " << i;
      }
      expected += size;
      ASSERT_EQ(executor.stats().tasks_executed, expected);
    }
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
