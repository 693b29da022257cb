// Cross-thread tests for AtomicArray, written to put its memory-ordering
// contract in front of ThreadSanitizer (this binary is in the CI tsan
// job's run list). Three protocols from docs/memory_model.md are driven
// end to end:
//
//   release-acquire — a non-atomic payload published via a release store
//     of a per-slot flag and consumed after an acquire load; under TSan a
//     missing edge here is a reported race, not a flaky read.
//   cancel-token / CAS claim — each slot claimed by exactly one thread via
//     compare_exchange, the claim ordering the claimant's write.
//   relaxed-counter — contended fetch_add whose total must be exact.
//
// A fourth test drives the fill-free allocation the way ppSCAN does: owner
// threads write every slot of an unwritten array, a barrier, then every
// thread reads and overwrites slots it does not own.
#include <gtest/gtest.h>

#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/atomic_array.hpp"

namespace ppscan {
namespace {

TEST(AtomicArrayMt, ReleaseStorePublishesPayloadToAcquireLoad) {
  constexpr std::size_t kSlots = 1024;
  constexpr int kProducers = 4;

  std::vector<std::uint64_t> payload(kSlots, 0);  // non-atomic on purpose
  AtomicArray<std::uint32_t> ready(kSlots, 0);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = static_cast<std::size_t>(p); i < kSlots;
           i += kProducers) {
        payload[i] = 1000 + i;  // plain store, published by the flag below
        ready.store(i, 1, std::memory_order_release);
      }
    });
  }

  std::thread consumer([&] {
    for (std::size_t i = 0; i < kSlots; ++i) {
      while (ready.load(i, std::memory_order_acquire) == 0) {
        std::this_thread::yield();
      }
      // The acquire load of the flag orders the payload read after the
      // producer's plain store — TSan verifies the edge exists.
      EXPECT_EQ(payload[i], 1000 + i);
    }
  });

  for (auto& t : producers) t.join();
  consumer.join();
}

TEST(AtomicArrayMt, CompareExchangeClaimsEachSlotExactlyOnce) {
  constexpr std::size_t kSlots = 512;
  constexpr int kThreads = 8;

  AtomicArray<std::int32_t> owner(kSlots, -1);
  std::vector<std::uint64_t> claims(kThreads, 0);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kSlots; ++i) {
        std::int32_t expected = -1;
        if (owner.compare_exchange(i, expected, t,
                                   std::memory_order_acq_rel)) {
          ++claims[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  std::uint64_t total = 0;
  for (const auto c : claims) total += c;
  EXPECT_EQ(total, kSlots);  // every slot claimed exactly once
  for (std::size_t i = 0; i < kSlots; ++i) {
    const auto winner = owner.load(i);
    EXPECT_GE(winner, 0);
    EXPECT_LT(winner, kThreads);
  }
}

TEST(AtomicArrayMt, RelaxedFetchAddTotalsAreExactUnderContention) {
  constexpr std::size_t kCounters = 16;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 20000;

  AtomicArray<std::uint64_t> counters(kCounters, 0);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Deterministic per-thread stride keeps every counter contended.
      std::size_t i = static_cast<std::size_t>(t) % kCounters;
      for (std::uint64_t n = 0; n < kAddsPerThread; ++n) {
        counters.fetch_add(i, 1, std::memory_order_relaxed);
        i = (i + 1) % kCounters;
      }
    });
  }
  for (auto& t : threads) t.join();

  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kCounters; ++i) total += counters.load(i);
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(AtomicArrayMt, FillFreeSlotsFirstWrittenByTheirOwners) {
  constexpr std::size_t kSlots = 1 << 16;
  constexpr int kThreads = 4;
  AtomicArray<std::int32_t> sim;
  sim.assign_for_overwrite(kSlots);
  ASSERT_EQ(sim.size(), kSlots);

  // Phase 1: thread t owns the slots i % kThreads == t and stores each
  // first (PruneSim's contract). Phase 2, after the barrier: every thread
  // reads the whole array and mirrors a flag into slots of other owners,
  // all writers agreeing on the value (the benign same-value race).
  std::barrier phase_end(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < kSlots;
           i += kThreads) {
        sim.store(i, static_cast<std::int32_t>(i % 3) - 2);
      }
      phase_end.arrive_and_wait();
      for (std::size_t i = 0; i < kSlots; ++i) {
        const std::int32_t value = sim.load(i);
        const std::int32_t first = static_cast<std::int32_t>(i % 3) - 2;
        ASSERT_TRUE(value == first || value == -1) << "slot " << i;
        if (value == 0) sim.store(i, -1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t i = 0; i < kSlots; ++i) {
    const std::int32_t first = static_cast<std::int32_t>(i % 3) - 2;
    EXPECT_EQ(sim.load(i), first == 0 ? -1 : first) << "slot " << i;
  }
}

TEST(AtomicArrayMt, AdjacentBytesWrittenByDifferentThreadsDoNotRace) {
  // ppSCAN's byte-wide sim_: neighboring arcs usually belong to different
  // writers. Each byte is its own memory location, so thread t's stores to
  // the bytes i % kThreads == t never race with the stores next to them.
  constexpr std::size_t kSlots = 1 << 14;
  constexpr int kThreads = 4;
  AtomicArray<std::uint8_t> sim;
  sim.assign_for_overwrite(kSlots);
  std::barrier phase_end(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Owner-exclusive first writes through the plain pointer (PruneSim),
      // then relaxed atomic rewrites of the same bytes after the barrier.
      std::uint8_t* first_write = sim.exclusive_data();
      for (std::size_t i = static_cast<std::size_t>(t); i < kSlots;
           i += kThreads) {
        first_write[i] = 1;
      }
      phase_end.arrive_and_wait();
      for (int round = 0; round < 8; ++round) {
        for (std::size_t i = static_cast<std::size_t>(t); i < kSlots;
             i += kThreads) {
          sim.store(i, static_cast<std::uint8_t>(2 + (i + round) % 2));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t i = 0; i < kSlots; ++i) {
    EXPECT_EQ(sim.load(i), 2 + (i + 7) % 2) << "slot " << i;
  }
}

}  // namespace
}  // namespace ppscan
