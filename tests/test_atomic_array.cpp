#include "util/atomic_array.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <thread>
#include <vector>

namespace ppscan {
namespace {

TEST(AtomicArray, InitializesToGivenValue) {
  AtomicArray<int> arr(16, 7);
  ASSERT_EQ(arr.size(), 16u);
  for (std::size_t i = 0; i < arr.size(); ++i) {
    EXPECT_EQ(arr.load(i), 7);
  }
}

TEST(AtomicArray, DefaultConstructedIsEmpty) {
  AtomicArray<int> arr;
  EXPECT_TRUE(arr.empty());
  EXPECT_EQ(arr.size(), 0u);
}

TEST(AtomicArray, StoreLoadRoundTrip) {
  AtomicArray<std::uint32_t> arr(4);
  arr.store(2, 99);
  EXPECT_EQ(arr.load(2), 99u);
  EXPECT_EQ(arr.load(1), 0u);
}

TEST(AtomicArray, CompareExchangeSemantics) {
  AtomicArray<int> arr(1, 5);
  int expected = 4;
  EXPECT_FALSE(arr.compare_exchange(0, expected, 9));
  EXPECT_EQ(expected, 5);  // failure loads the live value
  EXPECT_TRUE(arr.compare_exchange(0, expected, 9));
  EXPECT_EQ(arr.load(0), 9);
}

TEST(AtomicArray, FetchAddAccumulatesAcrossThreads) {
  AtomicArray<std::uint64_t> arr(1, 0);
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) arr.fetch_add(0, 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(arr.load(0), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(AtomicArray, AssignReplacesContents) {
  AtomicArray<int> arr(4, 1);
  arr.assign(2, 3);
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr.load(0), 3);
  EXPECT_EQ(arr.load(1), 3);
}

TEST(AtomicArray, AssignForOverwriteKeepsWhatIsStored) {
  AtomicArray<std::uint8_t> arr;
  arr.assign_for_overwrite(300);
  ASSERT_EQ(arr.size(), 300u);
  for (std::size_t i = 0; i < arr.size(); ++i) {
    arr.store(i, static_cast<std::uint8_t>(i));
  }
  for (std::size_t i = 0; i < arr.size(); ++i) {
    EXPECT_EQ(arr.load(i), static_cast<std::uint8_t>(i));
  }
}

// Resident set size in bytes, from /proc/self/statm; 0 if unavailable.
std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  std::uint64_t resident = 0;
  if (!(statm >> pages >> resident)) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(AtomicArray, AssignForOverwriteTouchesNoPage) {
  // The fill-free allocation leaves the pages to their first writer: a
  // large array adds (almost) nothing to the resident set until stored to.
  constexpr std::size_t kElems = std::size_t{16} << 20;  // 64 MiB of int32
  if (resident_bytes() == 0) GTEST_SKIP() << "no /proc/self/statm";
  const std::uint64_t before = resident_bytes();
  AtomicArray<std::int32_t> arr;
  arr.assign_for_overwrite(kElems);
  const std::uint64_t after = resident_bytes();
  EXPECT_LT(after, before + kElems * sizeof(std::int32_t) / 8)
      << "assign_for_overwrite wrote the storage";
  arr.store(0, 1);
  arr.store(kElems - 1, 2);
  EXPECT_EQ(arr.load(0) + arr.load(kElems - 1), 3);
}

}  // namespace
}  // namespace ppscan
