// Cancellation and deadline tests for the work-stealing executor, sized for
// ThreadSanitizer like test_executor_stress: they run in the `tsan` CI job,
// and the asan-ubsan job runs them too (the cancellation drain touches
// every synchronization edge the executor has).
#include "concurrent/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "concurrent/run_governor.hpp"
#include "support/fault_injection.hpp"

namespace ppscan {
namespace {

using std::chrono::milliseconds;

std::vector<TaskRange> unit_tasks(VertexId count) {
  std::vector<TaskRange> tasks;
  tasks.reserve(count);
  for (VertexId i = 0; i < count; ++i) tasks.push_back({i, i + 1});
  return tasks;
}

TEST(ExecutorCancel, TripMidPhaseStressExactlyOnceAccounting) {
  // The TSan centerpiece: a task body trips the token mid-phase, 1000
  // times, with the trigger task rotating so the trip lands at a different
  // point of the claim/steal/park state machine each round. Every claimed
  // range must be counted exactly once — executed before the trip is
  // visible, skipped after — and the executor must stay reusable.
  Executor executor(4);
  constexpr int kRounds = 1000;
  constexpr VertexId kTasks = 128;
  const std::vector<TaskRange> tasks = unit_tasks(kTasks);
  std::atomic<std::uint64_t> body_runs{0};
  for (int round = 0; round < kRounds; ++round) {
    RunGovernor governor;
    executor.install_governor(&governor);
    const VertexId trigger = static_cast<VertexId>(round) % kTasks;
    executor.run(tasks.data(), tasks.size(), [&](VertexId beg, VertexId) {
      body_runs.fetch_add(1, std::memory_order_relaxed);
      if (beg == trigger) governor.token().trip(AbortReason::UserCancelled);
    });
    ASSERT_TRUE(governor.should_stop());
    executor.install_governor(nullptr);
  }
  const ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.tasks_executed + stats.tasks_skipped,
            static_cast<std::uint64_t>(kRounds) * kTasks);
  EXPECT_EQ(stats.tasks_executed, body_runs.load());
  EXPECT_GE(stats.tasks_executed, static_cast<std::uint64_t>(kRounds));
}

TEST(ExecutorCancel, PreTrippedRunSkipsEverythingAndExecutorStaysUsable) {
  RunGovernor governor;
  Executor executor(4);
  executor.install_governor(&governor);
  governor.token().trip(AbortReason::UserCancelled);

  constexpr VertexId kTasks = 256;
  const std::vector<TaskRange> tasks = unit_tasks(kTasks);
  std::atomic<std::uint64_t> body_runs{0};
  executor.run(tasks.data(), tasks.size(),
               [&](VertexId, VertexId) { body_runs.fetch_add(1); });
  EXPECT_EQ(body_runs.load(), 0u);
  EXPECT_EQ(executor.stats().tasks_skipped, kTasks);

  // A fresh ungoverned phase on the same executor runs everything.
  executor.install_governor(nullptr);
  executor.run(tasks.data(), tasks.size(),
               [&](VertexId, VertexId) { body_runs.fetch_add(1); });
  EXPECT_EQ(body_runs.load(), kTasks);
}

TEST(ExecutorCancel, DeadlineLandsMidPhaseAndSkipsTheRemainder) {
  // SlowPhaseBody never polls, so only the claim-boundary deadline check
  // (the poll in execute()) can fire.
  RunLimits limits;
  limits.deadline = milliseconds(5);
  RunGovernor governor(limits);
  Executor executor(4);
  executor.install_governor(&governor);
  governor.enter_phase("SlowPhase");

  testing::SlowPhaseBody slow{std::chrono::microseconds(1000)};
  constexpr VertexId kTasks = 128;  // 128 x 1ms / 4 workers >> 5ms deadline
  const std::vector<TaskRange> tasks = unit_tasks(kTasks);
  executor.run(tasks.data(), tasks.size(),
               [&](VertexId beg, VertexId end) { slow(beg, end); });

  const RunAborted info = governor.abort_info();
  EXPECT_EQ(info.reason, AbortReason::DeadlineExpired);
  EXPECT_EQ(info.phase, "SlowPhase");
  const ExecutorStats stats = executor.stats();
  EXPECT_GT(stats.tasks_skipped, 0u);
  EXPECT_LT(slow.executed(), kTasks);
  EXPECT_EQ(stats.tasks_executed + stats.tasks_skipped, kTasks);
  executor.install_governor(nullptr);
}

TEST(ExecutorCancel, ShutdownAuditDestructorAfterTrippedRun) {
  // Destruction-order audit: the governor outlives the executor (declared
  // first), the last phase ended cancelled, workers are parked — the
  // destructor must drain and join without touching freed governor state.
  RunGovernor governor;
  {
    Executor executor(4);
    executor.install_governor(&governor);
    const std::vector<TaskRange> tasks = unit_tasks(64);
    executor.run(tasks.data(), tasks.size(), [&](VertexId beg, VertexId) {
      if (beg == 7) governor.token().trip(AbortReason::UserCancelled);
    });
    EXPECT_TRUE(governor.should_stop());
    // Executor destroyed here with the governor still installed.
  }
  EXPECT_EQ(governor.abort_info().reason, AbortReason::UserCancelled);
}

TEST(ExecutorCancel, InstallUninstallAcrossPhasesStress) {
  // Rapidly alternating governed and ungoverned phases: the governor
  // pointer is read per claim, so a stale read across the install barrier
  // would show up here (and under TSan as a race).
  Executor executor(4);
  constexpr int kRounds = 400;
  constexpr VertexId kTasks = 64;
  const std::vector<TaskRange> tasks = unit_tasks(kTasks);
  std::atomic<std::uint64_t> body_runs{0};
  for (int round = 0; round < kRounds; ++round) {
    RunGovernor governor;
    if (round % 2 == 0) executor.install_governor(&governor);
    executor.run(tasks.data(), tasks.size(),
                 [&](VertexId, VertexId) { body_runs.fetch_add(1); });
    executor.install_governor(nullptr);
  }
  EXPECT_EQ(body_runs.load(),
            static_cast<std::uint64_t>(kRounds) * kTasks);
}

}  // namespace
}  // namespace ppscan
