// Cross-thread tests for the per-worker trace ring (obs/trace.hpp),
// written to put its single-writer protocol in front of ThreadSanitizer
// (this binary is in the CI tsan job's run list, like
// test_atomic_array_mt.cpp):
//
//   single-writer ring — each thread records only into its own
//     TraceCollector slot; thread join is the happens-before edge that
//     publishes the plain event payloads to the reader.
//   release-acquire handoff — a buffer handed from writer to reader via a
//     release store / acquire load of a flag; weakening that edge (or
//     snapshotting concurrently with record()) is a TSan-reported race.
//   phase-label handoff — set_phase's release store pairs with
//     phase_name's acquire load across threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace ppscan {
namespace {

using obs::TraceBuffer;
using obs::TraceCollector;
using obs::TraceEvent;
using obs::TraceEventKind;

TEST(TraceBufferMt, ConcurrentWritersOwnDistinctSlots) {
  if (!obs::kTraceEnabled) {
    GTEST_SKIP() << "tracing compiled out (PPSCAN_TRACE=OFF)";
  }
  constexpr int kWorkers = 8;
  constexpr std::uint64_t kEventsPerWorker = 5000;
  TraceCollector collector(kWorkers, 1 << 14);

  std::vector<std::thread> threads;
  threads.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      TraceBuffer& mine = collector.buffer(w);
      for (std::uint64_t i = 0; i < kEventsPerWorker; ++i) {
        mine.record(TraceEventKind::Mark, "tick", collector.now_ns(), 0,
                    (static_cast<std::uint64_t>(w) << 32) | i);
      }
    });
  }
  // The master slot has its own single writer: this thread.
  collector.emit(collector.master_slot(), TraceEventKind::PhaseBegin,
                 "phase");
  for (auto& t : threads) t.join();

  // join() above is the publication edge snapshot() requires.
  for (int w = 0; w < kWorkers; ++w) {
    const TraceBuffer& buf = collector.buffer(w);
    EXPECT_EQ(buf.recorded(), kEventsPerWorker);
    const auto events = buf.snapshot();
    ASSERT_EQ(events.size(), kEventsPerWorker);
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].arg,
                (static_cast<std::uint64_t>(w) << 32) | i);
      EXPECT_STREQ(events[i].name, "tick");
    }
  }
  EXPECT_EQ(collector.buffer(collector.master_slot()).recorded(), 1u);
  EXPECT_EQ(collector.num_slots(), kWorkers + 1);
}

TEST(TraceBufferMt, WrapAroundKeepsNewestEventsOldestFirst) {
  if (!obs::kTraceEnabled) {
    GTEST_SKIP() << "tracing compiled out (PPSCAN_TRACE=OFF)";
  }
  TraceBuffer buf(64);  // minimum capacity, exact power of two
  ASSERT_EQ(buf.capacity(), 64u);
  constexpr std::uint64_t kTotal = 1000;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    buf.record(TraceEventKind::Mark, "seq", i, 0, i);
  }
  EXPECT_EQ(buf.recorded(), kTotal);
  const auto events = buf.snapshot();
  ASSERT_EQ(events.size(), 64u);
  // The retained window is the newest capacity() events, oldest first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, kTotal - 64 + i);
  }
}

TEST(TraceBufferMt, CapacityRoundsUpToPowerOfTwoMinimum64) {
  if (!obs::kTraceEnabled) {
    GTEST_SKIP() << "tracing compiled out (PPSCAN_TRACE=OFF)";
  }
  EXPECT_EQ(TraceBuffer(1).capacity(), 64u);
  EXPECT_EQ(TraceBuffer(64).capacity(), 64u);
  EXPECT_EQ(TraceBuffer(65).capacity(), 128u);
  EXPECT_EQ(TraceBuffer(100).capacity(), 128u);
}

TEST(TraceBufferMt, ReleaseAcquireHandoffPublishesBufferToReader) {
  if (!obs::kTraceEnabled) {
    GTEST_SKIP() << "tracing compiled out (PPSCAN_TRACE=OFF)";
  }
  constexpr std::uint64_t kEvents = 2000;
  TraceBuffer buf(1 << 12);
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      buf.record(TraceEventKind::TaskRun, "task", i, 1, i);
    }
    // Publication edge: pairs with the acquire load below. Without it the
    // reader's snapshot of the plain payload stores is a race TSan reports.
    done.store(true, std::memory_order_release);
  });

  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  const auto events = buf.snapshot();
  ASSERT_EQ(events.size(), kEvents);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, i);
    EXPECT_EQ(events[i].kind, TraceEventKind::TaskRun);
  }
  writer.join();
}

TEST(TraceBufferMt, PhaseLabelHandoffAcrossThreads) {
  constexpr int kReaders = 4;
  TraceCollector collector(kReaders, 64);
  EXPECT_STREQ(collector.phase_name(), "(no phase)");
  collector.set_phase("PruneSim");

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      // Acquire load pairs with the release store in set_phase.
      EXPECT_STREQ(collector.phase_name(), "PruneSim");
    });
  }
  for (auto& t : readers) t.join();
}

TEST(TraceBufferMt, CompiledOutBuffersStayEmpty) {
  if (obs::kTraceEnabled) {
    GTEST_SKIP() << "tracing compiled in; the OFF branch is covered by the "
                    "PPSCAN_TRACE=OFF CI build";
  }
  TraceBuffer buf(1 << 10);
  buf.record(TraceEventKind::Mark, "ignored", 1, 2, 3);
  EXPECT_EQ(buf.recorded(), 0u);
  EXPECT_EQ(buf.capacity(), 0u);
  EXPECT_TRUE(buf.snapshot().empty());
}

}  // namespace
}  // namespace ppscan
