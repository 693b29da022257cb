#include "setops/intersect.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ppscan {
namespace {

std::vector<VertexId> random_sorted_set(Rng& rng, std::size_t size,
                                        VertexId universe) {
  std::set<VertexId> s;
  while (s.size() < size) {
    s.insert(static_cast<VertexId>(rng.next_below(universe)));
  }
  return {s.begin(), s.end()};
}

/// Ground-truth decision: |A ∩ B| + 2 >= min_cn.
bool naive_similar(const std::vector<VertexId>& a,
                   const std::vector<VertexId>& b, std::uint32_t min_cn) {
  std::vector<VertexId> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(common));
  return common.size() + 2 >= min_cn;
}

/// {start, start + stride, ...}, `len` elements.
std::vector<VertexId> arith(std::size_t len, VertexId start, VertexId stride) {
  std::vector<VertexId> out(len);
  for (std::size_t k = 0; k < len; ++k) {
    out[k] = start + static_cast<VertexId>(k) * stride;
  }
  return out;
}

/// List pairs around the 16-lane block edges of the AVX-512 block kernels:
/// lengths just below, at and above one, two and three blocks, each pair
/// with matches on both sides of a block edge, in both orders. The stride
/// patterns make either side's blocks end first, so the block loop exits
/// with uncounted matches on u's side for some pairs and on v's side for
/// others.
std::vector<std::pair<std::vector<VertexId>, std::vector<VertexId>>>
block_edge_shapes() {
  struct Pattern {
    VertexId start_a, stride_a, start_b, stride_b;
  };
  constexpr Pattern kPatterns[] = {
      {0, 2, 0, 1},  // a's blocks span twice b's range: a's side pends
      {0, 2, 0, 3},  // matches every 6, straddling both sides' edges
      {0, 1, 8, 1},  // b shifted half a block
      {0, 1, 0, 1},  // shared prefix
      {1, 3, 1, 2},  // matches 1, 7, 13, ...
  };
  std::vector<std::pair<std::vector<VertexId>, std::vector<VertexId>>> out;
  for (const std::size_t len_a : {15, 16, 17, 31, 32, 33, 48}) {
    for (const std::size_t len_b : {15, 16, 17, 31, 32, 33, 48}) {
      for (const Pattern& p : kPatterns) {
        auto a = arith(len_a, p.start_a, p.stride_a);
        auto b = arith(len_b, p.start_b, p.stride_b);
        out.emplace_back(a, b);
        out.emplace_back(std::move(b), std::move(a));
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Exact counting kernels.

TEST(IntersectCount, MergeOnKnownSets) {
  const std::vector<VertexId> a{1, 3, 5, 7, 9};
  const std::vector<VertexId> b{2, 3, 4, 7, 10};
  EXPECT_EQ(intersect_count_merge(a, b), 2u);
}

TEST(IntersectCount, MergeDisjointAndEmpty) {
  const std::vector<VertexId> a{1, 2, 3};
  const std::vector<VertexId> b{4, 5, 6};
  const std::vector<VertexId> empty;
  EXPECT_EQ(intersect_count_merge(a, b), 0u);
  EXPECT_EQ(intersect_count_merge(a, empty), 0u);
  EXPECT_EQ(intersect_count_merge(empty, empty), 0u);
}

TEST(IntersectCount, GallopingMatchesMergeRandomized) {
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    const auto a = random_sorted_set(rng, 1 + rng.next_below(200), 1000);
    const auto b = random_sorted_set(rng, 1 + rng.next_below(200), 1000);
    EXPECT_EQ(intersect_count_galloping(a, b), intersect_count_merge(a, b));
  }
}

TEST(IntersectCount, GallopingOnHighlySkewedSizes) {
  Rng rng(19);
  const auto small = random_sorted_set(rng, 5, 100000);
  const auto large = random_sorted_set(rng, 5000, 100000);
  EXPECT_EQ(intersect_count_galloping(small, large),
            intersect_count_merge(small, large));
  EXPECT_EQ(intersect_count_galloping(large, small),
            intersect_count_merge(large, small));
}

TEST(IntersectCount, IdenticalSets) {
  Rng rng(23);
  const auto a = random_sorted_set(rng, 64, 1000);
  EXPECT_EQ(intersect_count_merge(a, a), a.size());
  EXPECT_EQ(intersect_count_galloping(a, a), a.size());
}

TEST(IntersectCountSimd, Avx2MatchesMergeRandomized) {
  if (!kernel_supported(IntersectKind::PivotAvx2)) {
    GTEST_SKIP() << "no AVX2";
  }
  Rng rng(71);
  for (int trial = 0; trial < 400; ++trial) {
    const auto a = random_sorted_set(rng, 1 + rng.next_below(400), 2000);
    const auto b = random_sorted_set(rng, 1 + rng.next_below(400), 2000);
    EXPECT_EQ(intersect_count_avx2(a, b), intersect_count_merge(a, b));
  }
}

TEST(IntersectCountSimd, Avx512MatchesMergeRandomized) {
  if (!kernel_supported(IntersectKind::PivotAvx512)) {
    GTEST_SKIP() << "no AVX512";
  }
  Rng rng(73);
  for (int trial = 0; trial < 400; ++trial) {
    const auto a = random_sorted_set(rng, 1 + rng.next_below(400), 2000);
    const auto b = random_sorted_set(rng, 1 + rng.next_below(400), 2000);
    EXPECT_EQ(intersect_count_avx512(a, b), intersect_count_merge(a, b));
  }
  for (const auto& [a, b] : block_edge_shapes()) {
    EXPECT_EQ(intersect_count_avx512(a, b), intersect_count_merge(a, b))
        << "|a|=" << a.size() << " |b|=" << b.size();
  }
}

TEST(IntersectCountSimd, TinyAndEmptyInputs) {
  const std::vector<VertexId> empty;
  const std::vector<VertexId> tiny{3, 9};
  for (const auto kind :
       {IntersectKind::PivotAvx2, IntersectKind::PivotAvx512}) {
    if (!kernel_supported(kind)) continue;
    const auto fn = count_fn(kind);
    EXPECT_EQ(fn(empty, tiny), 0u);
    EXPECT_EQ(fn(tiny, tiny), 2u);
  }
}

TEST(IntersectCountSimd, DenseRunsAndFullOverlap) {
  std::vector<VertexId> a, b;
  for (VertexId i = 0; i < 100; ++i) a.push_back(2 * i);
  for (VertexId i = 0; i < 100; ++i) b.push_back(4 * i);
  for (const auto kind :
       {IntersectKind::PivotAvx2, IntersectKind::PivotAvx512}) {
    if (!kernel_supported(kind)) continue;
    const auto fn = count_fn(kind);
    EXPECT_EQ(fn(a, b), intersect_count_merge(a, b));
    EXPECT_EQ(fn(a, a), a.size());
  }
}

TEST(IntersectCountSimd, BlockedMergeMatchesMergeRandomized) {
  if (!kernel_supported(IntersectKind::PivotAvx2)) {
    GTEST_SKIP() << "no AVX2";
  }
  Rng rng(79);
  for (int trial = 0; trial < 400; ++trial) {
    const auto a = random_sorted_set(rng, 1 + rng.next_below(300), 1500);
    const auto b = random_sorted_set(rng, 1 + rng.next_below(300), 1500);
    EXPECT_EQ(intersect_count_blocked_simd(a, b),
              intersect_count_merge(a, b));
  }
}

TEST(IntersectCountSimd, BlockedMergeEdgeCases) {
  if (!kernel_supported(IntersectKind::PivotAvx2)) {
    GTEST_SKIP() << "no AVX2";
  }
  const std::vector<VertexId> empty;
  const std::vector<VertexId> tiny{1, 5, 9};
  const std::vector<VertexId> run{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(intersect_count_blocked_simd(empty, run), 0u);
  EXPECT_EQ(intersect_count_blocked_simd(tiny, run), 3u);
  EXPECT_EQ(intersect_count_blocked_simd(run, run), run.size());
}

TEST(IntersectDispatch, CountFnMapsScalarKindsToMerge) {
  EXPECT_EQ(count_fn(IntersectKind::MergeEarlyStop), &intersect_count_merge);
  EXPECT_EQ(count_fn(IntersectKind::PivotScalar), &intersect_count_merge);
}

// ---------------------------------------------------------------------------
// Similarity kernels — all must agree with the naive decision.

struct KernelCase {
  IntersectKind kind;
};

class SimilarKernelTest : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    if (!kernel_supported(GetParam().kind)) {
      GTEST_SKIP() << "kernel not supported on this CPU";
    }
    fn_ = similar_fn(GetParam().kind);
  }
  SimilarFn fn_ = nullptr;
};

TEST_P(SimilarKernelTest, TrivialThresholds) {
  const std::vector<VertexId> a{1, 2, 3};
  const std::vector<VertexId> b{4, 5, 6};
  // min_cn <= 2 is always satisfied by adjacency itself.
  EXPECT_TRUE(fn_(a, b, 0));
  EXPECT_TRUE(fn_(a, b, 2));
  // min_cn above min(|a|,|b|)+2 can never be reached.
  EXPECT_FALSE(fn_(a, b, 6));
}

TEST_P(SimilarKernelTest, EmptyNeighborLists) {
  const std::vector<VertexId> empty;
  const std::vector<VertexId> a{1, 2, 3};
  EXPECT_TRUE(fn_(empty, a, 2));
  EXPECT_FALSE(fn_(empty, a, 3));
  EXPECT_FALSE(fn_(empty, empty, 3));
}

TEST_P(SimilarKernelTest, ExactBoundaryDecision) {
  // |A ∩ B| = 3, so cn = 5: similar iff min_cn <= 5.
  const std::vector<VertexId> a{1, 2, 3, 10, 20};
  const std::vector<VertexId> b{2, 3, 10, 30, 40};
  EXPECT_TRUE(fn_(a, b, 5));
  EXPECT_FALSE(fn_(a, b, 6));
}

TEST_P(SimilarKernelTest, RandomizedAgainstNaive) {
  Rng rng(41 + static_cast<std::uint64_t>(GetParam().kind));
  for (int trial = 0; trial < 1500; ++trial) {
    const std::size_t size_a = 1 + rng.next_below(120);
    const std::size_t size_b = 1 + rng.next_below(120);
    // Universe size controls overlap density; sweep it.
    const VertexId universe = 10 + static_cast<VertexId>(rng.next_below(400));
    const auto a = random_sorted_set(
        rng, std::min<std::size_t>(size_a, universe), universe);
    const auto b = random_sorted_set(
        rng, std::min<std::size_t>(size_b, universe), universe);
    const auto min_cn =
        static_cast<std::uint32_t>(rng.next_below(a.size() + b.size() + 4));
    EXPECT_EQ(fn_(a, b, min_cn), naive_similar(a, b, min_cn))
        << "kind=" << to_string(GetParam().kind) << " |a|=" << a.size()
        << " |b|=" << b.size() << " min_cn=" << min_cn;
  }
}

TEST_P(SimilarKernelTest, LongListsExerciseVectorPath) {
  Rng rng(53);
  for (int trial = 0; trial < 100; ++trial) {
    const auto a = random_sorted_set(rng, 200 + rng.next_below(300), 4000);
    const auto b = random_sorted_set(rng, 200 + rng.next_below(300), 4000);
    for (const std::uint32_t min_cn : {3u, 10u, 50u, 150u, 400u}) {
      EXPECT_EQ(fn_(a, b, min_cn), naive_similar(a, b, min_cn));
    }
  }
}

TEST_P(SimilarKernelTest, SkewedSizesExerciseGallopingBehavior) {
  Rng rng(59);
  const auto small = random_sorted_set(rng, 10, 10000);
  const auto large = random_sorted_set(rng, 3000, 10000);
  for (const std::uint32_t min_cn : {3u, 5u, 8u, 12u}) {
    EXPECT_EQ(fn_(small, large, min_cn), naive_similar(small, large, min_cn));
    EXPECT_EQ(fn_(large, small, min_cn), naive_similar(large, small, min_cn));
  }
}

TEST_P(SimilarKernelTest, IdenticalListsAreMaximallySimilar) {
  Rng rng(61);
  const auto a = random_sorted_set(rng, 100, 1000);
  EXPECT_TRUE(fn_(a, a, static_cast<std::uint32_t>(a.size() + 2)));
  EXPECT_FALSE(fn_(a, a, static_cast<std::uint32_t>(a.size() + 3)));
}

TEST_P(SimilarKernelTest, ConsecutiveRunsExerciseFullVectorSkips) {
  // Dense consecutive ranges with a controlled overlap: the vector loop
  // takes whole-width skips (bit_cnt == lane count) repeatedly.
  std::vector<VertexId> a, b;
  for (VertexId i = 0; i < 200; ++i) a.push_back(i);
  for (VertexId i = 150; i < 350; ++i) b.push_back(i);
  // Overlap = 50 → cn = 52.
  EXPECT_TRUE(fn_(a, b, 52));
  EXPECT_FALSE(fn_(a, b, 53));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, SimilarKernelTest,
    ::testing::Values(KernelCase{IntersectKind::MergeEarlyStop},
                      KernelCase{IntersectKind::PivotScalar},
                      KernelCase{IntersectKind::PivotAvx2},
                      KernelCase{IntersectKind::PivotAvx512},
                      KernelCase{IntersectKind::BlockAvx512},
                      KernelCase{IntersectKind::GallopEarlyStop}),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      return to_string(info.param.kind);
    });

// ---------------------------------------------------------------------------
// Block kernel: retirement at block edges and the exit settlement.

TEST(SimilarBlockAvx512, EveryThresholdAroundBlockEdges) {
  if (!kernel_supported(IntersectKind::BlockAvx512)) {
    GTEST_SKIP() << "no AVX512";
  }
  for (const auto& [a, b] : block_edge_shapes()) {
    const auto top = static_cast<std::uint32_t>(std::min(a.size(), b.size()));
    for (std::uint32_t min_cn = 0; min_cn <= top + 3; ++min_cn) {
      EXPECT_EQ(similar_block_avx512(a, b, min_cn), naive_similar(a, b, min_cn))
          << "|a|=" << a.size() << " a[1]=" << a[1] << " |b|=" << b.size()
          << " b[1]=" << b[1] << " min_cn=" << min_cn;
    }
  }
}

TEST(SimilarBlockAvx512, SettlesThePendingBlockAtLoopExit) {
  if (!kernel_supported(IntersectKind::BlockAvx512)) {
    GTEST_SKIP() << "no AVX512";
  }
  // x = {0, 2, ..., 30, 40, 42, ..., 68}, y = {0, 2, ..., 28, 31, 40, ...,
  // 68}. x's first block ends at 30 and y's at 31, so x's block retires,
  // and the loop exits (x has 15 elements left) with y's head block holding
  // 15 matches y's bound has not seen. All but 30 and 31 match: cn = 32,
  // the most the lengths allow, so a matched element charged as a mismatch
  // turns Sim into NSim.
  auto x = arith(16, 0, 2);
  auto y = arith(15, 0, 2);
  y.push_back(31);
  for (const VertexId id : arith(15, 40, 2)) {
    x.push_back(id);
    y.push_back(id);
  }
  ASSERT_EQ(intersect_count_merge(x, y), 30u);
  for (const std::uint32_t min_cn : {31u, 32u, 33u}) {
    // Pending on v's side, then on u's side.
    EXPECT_EQ(similar_block_avx512(x, y, min_cn), min_cn <= 32) << min_cn;
    EXPECT_EQ(similar_block_avx512(y, x, min_cn), min_cn <= 32) << min_cn;
  }
  // {0, 2, ..., 32} against {0, ..., 15}: the second list's only block
  // retires first, so the pending block is settled against an exhausted
  // list. 8 matches, cn = 10.
  const auto evens = arith(17, 0, 2);
  const auto run = arith(16, 0, 1);
  for (const std::uint32_t min_cn : {9u, 10u, 11u}) {
    EXPECT_EQ(similar_block_avx512(evens, run, min_cn), min_cn <= 10);
    EXPECT_EQ(similar_block_avx512(run, evens, min_cn), min_cn <= 10);
  }
}

// ---------------------------------------------------------------------------
// Dispatch.

TEST(IntersectDispatch, ParseRoundTrip) {
  for (const auto kind :
       {IntersectKind::MergeEarlyStop, IntersectKind::PivotScalar,
        IntersectKind::PivotAvx2, IntersectKind::PivotAvx512,
        IntersectKind::BlockAvx512, IntersectKind::GallopEarlyStop,
        IntersectKind::Auto}) {
    EXPECT_EQ(parse_intersect_kind(to_string(kind)), kind);
  }
  EXPECT_THROW(parse_intersect_kind("bogus"), std::invalid_argument);
}

TEST(IntersectDispatch, GallopCountFnAndAlwaysSupported) {
  EXPECT_TRUE(kernel_supported(IntersectKind::GallopEarlyStop));
  EXPECT_EQ(count_fn(IntersectKind::GallopEarlyStop),
            &intersect_count_galloping);
  EXPECT_EQ(similar_fn(IntersectKind::GallopEarlyStop), &similar_gallop);
}

TEST(IntersectDispatch, AutoAgreesWithNaiveOnSkewedPairs) {
  // Above the default skew threshold (64x) the Auto dispatcher takes the
  // galloping path; it must still decide identically to the ground truth.
  Rng rng(67);
  const auto fn = similar_fn(IntersectKind::Auto);
  for (int trial = 0; trial < 50; ++trial) {
    const auto small = random_sorted_set(rng, 1 + rng.next_below(6), 100000);
    const auto large = random_sorted_set(rng, 2000, 100000);
    for (const std::uint32_t min_cn : {2u, 3u, 5u, 9u}) {
      EXPECT_EQ(fn(small, large, min_cn), naive_similar(small, large, min_cn));
      EXPECT_EQ(fn(large, small, min_cn), naive_similar(large, small, min_cn));
    }
  }
}

TEST(IntersectDispatch, AutoCountMatchesMergeOnSkewedAndBalancedPairs) {
  // Auto counts gallop past the skew threshold (64x by default) and use the
  // best vector count below it; both must equal the merge count.
  EXPECT_EQ(count_fn(IntersectKind::Auto), &intersect_count_auto);
  Rng rng(71);
  for (int trial = 0; trial < 100; ++trial) {
    const auto small = random_sorted_set(rng, 1 + rng.next_below(6), 100000);
    const auto large = random_sorted_set(rng, 2000, 100000);
    EXPECT_EQ(intersect_count_auto(small, large),
              intersect_count_merge(small, large));
    EXPECT_EQ(intersect_count_auto(large, small),
              intersect_count_merge(large, small));
    const auto a = random_sorted_set(rng, 1 + rng.next_below(400), 2000);
    const auto b = random_sorted_set(rng, 1 + rng.next_below(400), 2000);
    EXPECT_EQ(intersect_count_auto(a, b), intersect_count_merge(a, b));
  }
  const std::vector<VertexId> empty;
  const std::vector<VertexId> tiny{3, 9};
  EXPECT_EQ(intersect_count_auto(empty, tiny), 0u);
  EXPECT_EQ(intersect_count_auto(tiny, empty), 0u);
}

TEST(IntersectDispatch, AutoResolvesToSupportedKernel) {
  const auto resolved = resolve_kernel(IntersectKind::Auto);
  EXPECT_NE(resolved, IntersectKind::Auto);
  EXPECT_TRUE(kernel_supported(resolved));
}

TEST(IntersectDispatch, ScalarKernelsAlwaysSupported) {
  EXPECT_TRUE(kernel_supported(IntersectKind::MergeEarlyStop));
  EXPECT_TRUE(kernel_supported(IntersectKind::PivotScalar));
}

TEST(IntersectDispatch, SimilarFnReturnsWorkingFunction) {
  const auto fn = similar_fn(IntersectKind::Auto);
  const std::vector<VertexId> a{1, 2, 3, 4};
  const std::vector<VertexId> b{2, 3, 4, 5};
  EXPECT_TRUE(fn(a, b, 5));   // cn = 3 + 2
  EXPECT_FALSE(fn(a, b, 6));
}

}  // namespace
}  // namespace ppscan
