// Unit tests for the governance primitives: CancelToken trip semantics,
// RunGovernor deadline/budget/phase bookkeeping, and the abort taxonomy.
#include "concurrent/run_governor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace ppscan {
namespace {

using std::chrono::milliseconds;

TEST(CancelToken, FirstTripWinsAndLaterTripsAreIgnored) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), AbortReason::None);

  EXPECT_TRUE(token.trip(AbortReason::UserCancelled));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), AbortReason::UserCancelled);

  // A later deadline trip must not overwrite the root cause.
  EXPECT_FALSE(token.trip(AbortReason::DeadlineExpired));
  EXPECT_EQ(token.reason(), AbortReason::UserCancelled);

  token.reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.trip(AbortReason::DeadlineExpired));
  EXPECT_EQ(token.reason(), AbortReason::DeadlineExpired);
}

TEST(RunGovernor, UngovernedDefaultsNeverStop) {
  RunGovernor governor;
  EXPECT_FALSE(governor.should_stop());
  EXPECT_FALSE(governor.poll_deadline());
  for (int i = 0; i < 5000; ++i) EXPECT_FALSE(governor.checkpoint());
  // No budget: any charge succeeds but is still accounted.
  EXPECT_TRUE(governor.try_charge(1ull << 40, "huge"));
  EXPECT_EQ(governor.bytes_charged(), 1ull << 40);
  EXPECT_EQ(governor.peak_bytes(), 1ull << 40);
  EXPECT_EQ(governor.abort_info().reason, AbortReason::None);
}

TEST(RunGovernor, ExternalTokenIsSharedAndLabeledWithCurrentPhase) {
  CancelToken token;
  RunGovernor governor(RunLimits{}, &token);
  governor.enter_phase("CheckCore");
  EXPECT_FALSE(governor.should_stop());

  // External trip (the signal-handler path): the trip site cannot name a
  // phase, so abort_info falls back to the phase active at report time.
  token.trip(AbortReason::UserCancelled);
  EXPECT_TRUE(governor.should_stop());
  EXPECT_TRUE(governor.checkpoint());
  const RunAborted info = governor.abort_info();
  EXPECT_EQ(info.reason, AbortReason::UserCancelled);
  EXPECT_EQ(info.phase, "CheckCore");
}

TEST(RunGovernor, DeadlineTripsOnPoll) {
  RunLimits limits;
  limits.deadline = milliseconds(5);
  RunGovernor governor(limits);
  governor.enter_phase("PruneSim");
  EXPECT_FALSE(governor.poll_deadline());
  std::this_thread::sleep_for(milliseconds(10));
  EXPECT_TRUE(governor.poll_deadline());
  const RunAborted info = governor.abort_info();
  EXPECT_EQ(info.reason, AbortReason::DeadlineExpired);
  EXPECT_EQ(info.phase, "PruneSim");
  EXPECT_NE(info.describe().find("deadline-expired"), std::string::npos);
}

TEST(RunGovernor, ChargeAccountingTracksPeakAndUncharge) {
  RunLimits limits;
  limits.memory_budget_bytes = 1000;
  RunGovernor governor(limits);
  EXPECT_TRUE(governor.try_charge(600, "a"));
  EXPECT_TRUE(governor.try_charge(300, "b"));
  EXPECT_EQ(governor.bytes_charged(), 900u);
  governor.uncharge(600);
  EXPECT_EQ(governor.bytes_charged(), 300u);
  // Peak is high-water, not current.
  EXPECT_EQ(governor.peak_bytes(), 900u);
  // Room freed by the uncharge is usable again.
  EXPECT_TRUE(governor.try_charge(600, "c"));
  EXPECT_FALSE(governor.should_stop());
}

TEST(RunGovernor, OvershootTripsBudgetAndRollsBackTheCharge) {
  RunLimits limits;
  limits.memory_budget_bytes = 1000;
  RunGovernor governor(limits);
  governor.enter_phase("Alloc");
  EXPECT_TRUE(governor.try_charge(900, "fits"));
  EXPECT_FALSE(governor.try_charge(200, "overshoots"));
  EXPECT_TRUE(governor.should_stop());
  // The failed charge must not stay on the books.
  EXPECT_EQ(governor.bytes_charged(), 900u);
  const RunAborted info = governor.abort_info();
  EXPECT_EQ(info.reason, AbortReason::BudgetExceeded);
  EXPECT_EQ(info.bytes, 200u);
  EXPECT_EQ(info.phase, "Alloc");
  EXPECT_NE(info.describe().find("200 bytes requested"), std::string::npos);
}

TEST(RunGovernor, BadAllocRecordsBudgetTripWithoutAnExplicitBudget) {
  RunGovernor governor;  // no budget set
  governor.enter_phase("SimArray");
  governor.record_alloc_failure(1ull << 44, "sim array");
  EXPECT_TRUE(governor.should_stop());
  const RunAborted info = governor.abort_info();
  EXPECT_EQ(info.reason, AbortReason::BudgetExceeded);
  EXPECT_EQ(info.bytes, 1ull << 44);
  EXPECT_EQ(info.phase, "SimArray");
}

TEST(RunGovernor, PhaseBookkeepingCountsOnlyFinishedPhases) {
  RunGovernor governor;
  EXPECT_EQ(governor.phase_ordinal(), 0);
  EXPECT_STREQ(governor.current_phase(), "");
  governor.enter_phase("One");
  governor.finish_phase();
  governor.enter_phase("Two");
  EXPECT_EQ(governor.phase_ordinal(), 2);
  EXPECT_EQ(governor.phases_completed(), 1);
  EXPECT_STREQ(governor.current_phase(), "Two");
}

TEST(RunGovernor, CancelAtPhaseHookTripsOnEntry) {
  RunLimits limits;
  limits.cancel_at_phase = 2;
  EXPECT_TRUE(limits.any_set());
  RunGovernor governor(limits);

  governor.enter_phase("One");
  EXPECT_FALSE(governor.should_stop()) << "phases before the hook run";
  governor.finish_phase();

  governor.enter_phase("Two");
  EXPECT_TRUE(governor.should_stop()) << "hook trips on entering phase 2";
  const RunAborted info = governor.abort_info();
  EXPECT_EQ(info.reason, AbortReason::UserCancelled);
  EXPECT_EQ(info.phase, "Two");
  EXPECT_EQ(governor.phases_completed(), 1);
}

TEST(RunGovernor, DefaultLimitsGovernNothing) {
  RunLimits limits;
  EXPECT_FALSE(limits.any_set());
}

}  // namespace
}  // namespace ppscan
