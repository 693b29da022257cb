#include "setops/similarity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace ppscan {
namespace {

TEST(EpsRational, ParsesPlainDecimal) {
  const auto e = EpsRational::parse("0.2");
  EXPECT_EQ(e.num, 1u);
  EXPECT_EQ(e.den, 5u);
}

TEST(EpsRational, ParsesWithoutLeadingZero) {
  const auto e = EpsRational::parse(".5");
  EXPECT_EQ(e.num, 1u);
  EXPECT_EQ(e.den, 2u);
}

TEST(EpsRational, ParsesOne) {
  const auto e = EpsRational::parse("1");
  EXPECT_EQ(e.num, 1u);
  EXPECT_EQ(e.den, 1u);
}

TEST(EpsRational, ParsesLongDecimal) {
  const auto e = EpsRational::parse("0.35");
  EXPECT_EQ(e.num, 7u);
  EXPECT_EQ(e.den, 20u);
}

TEST(EpsRational, RejectsOutOfRange) {
  EXPECT_THROW(EpsRational::parse("0"), std::invalid_argument);
  EXPECT_THROW(EpsRational::parse("0.0"), std::invalid_argument);
  EXPECT_THROW(EpsRational::parse("1.5"), std::invalid_argument);
}

TEST(EpsRational, RejectsMalformed) {
  EXPECT_THROW(EpsRational::parse(""), std::invalid_argument);
  EXPECT_THROW(EpsRational::parse("0..5"), std::invalid_argument);
  EXPECT_THROW(EpsRational::parse("0.x"), std::invalid_argument);
  EXPECT_THROW(EpsRational::parse("0.1234567890123"), std::invalid_argument);
}

TEST(EpsRational, RejectsIntegerOverflowInsteadOfWrapping) {
  // num = num * 10 + d wraps at 20 digits; a wrapped value could land in
  // (0, den] and sneak past the range check as a bogus ε.
  EXPECT_THROW(EpsRational::parse("18446744073709551616"),  // 2^64
               std::invalid_argument);
  EXPECT_THROW(EpsRational::parse("99999999999999999999999999"),
               std::invalid_argument);
  // 2^64 + 1 written with a decimal point: wraps to num=1, den=10 ⇒ 0.1.
  EXPECT_THROW(EpsRational::parse("1844674407370955161.6"),
               std::invalid_argument);
}

TEST(EpsRational, FromDoubleApproximates) {
  const auto e = EpsRational::from_double(0.25);
  EXPECT_DOUBLE_EQ(e.to_double(), 0.25);
  EXPECT_THROW(EpsRational::from_double(0.0), std::invalid_argument);
  EXPECT_THROW(EpsRational::from_double(1.1), std::invalid_argument);
}

TEST(Similarity, MatchesDefinitionOnSmallCases) {
  // d_u = d_v = 3: threshold ε·√16 = 4ε. With ε = 0.5 → need cn ≥ 2.
  const auto eps = EpsRational::parse("0.5");
  EXPECT_TRUE(similarity_holds(eps, 2, 3, 3));
  EXPECT_FALSE(similarity_holds(eps, 1, 3, 3));
}

TEST(Similarity, BoundaryIsInclusive) {
  // ε = 0.5, d_u = d_v = 7: threshold = 0.5·√64 = 4 exactly; cn = 4 is Sim.
  const auto eps = EpsRational::parse("0.5");
  EXPECT_TRUE(similarity_holds(eps, 4, 7, 7));
  EXPECT_FALSE(similarity_holds(eps, 3, 7, 7));
}

TEST(MinCommonNeighbors, IsTheSmallestSatisfyingCount) {
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto du = static_cast<VertexId>(rng.next_below(500));
    const auto dv = static_cast<VertexId>(rng.next_below(500));
    EpsRational eps{1 + rng.next_below(99), 100};
    const std::uint32_t need = min_common_neighbors(eps, du, dv);
    EXPECT_TRUE(similarity_holds(eps, need, du, dv));
    if (need > 0) {
      EXPECT_FALSE(similarity_holds(eps, need - 1, du, dv));
    }
  }
}

TEST(MinCommonNeighbors, AgreesWithCeilFormulaAwayFromTies) {
  Rng rng(123);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto du = static_cast<VertexId>(rng.next_below(2000));
    const auto dv = static_cast<VertexId>(rng.next_below(2000));
    EpsRational eps{1 + rng.next_below(9), 10};
    const double exact = eps.to_double() *
                         std::sqrt(static_cast<double>(du + 1) *
                                   static_cast<double>(dv + 1));
    const std::uint32_t need = min_common_neighbors(eps, du, dv);
    // min_cn is the ceiling of the exact threshold (ties resolve downward
    // because the predicate is >=).
    EXPECT_GE(static_cast<double>(need) + 1e-9, exact);
    EXPECT_LE(static_cast<double>(need) - 1.0 - 1e-9, exact);
  }
}

TEST(MinCommonNeighbors, ExactOnHugeDegrees) {
  // 128-bit arithmetic must survive degrees near the 32-bit limit.
  const EpsRational eps{999'999, 1'000'000};
  const VertexId big = 2'000'000'000;
  const std::uint32_t need = min_common_neighbors(eps, big, big);
  EXPECT_TRUE(similarity_holds(eps, need, big, big));
  EXPECT_FALSE(similarity_holds(eps, need - 1, big, big));
}

TEST(PruneThresholds, SimWhenThresholdAtMostTwo) {
  // Tiny degrees: ε·√((1+1)(1+1)) = 2ε ≤ 2 → adjacency alone suffices.
  EXPECT_EQ(PruneThresholds(EpsRational::parse("0.9"), 1).classify(1),
            PruneOutcome::Sim);
}

TEST(PruneThresholds, NSimWhenDegreeGapTooLarge) {
  // d_u = 1 caps the intersection at 2 < need for a high-degree partner,
  // whichever endpoint computes the thresholds.
  const EpsRational eps = EpsRational::parse("0.8");
  EXPECT_EQ(PruneThresholds(eps, 1).classify(1000), PruneOutcome::NSim);
  EXPECT_EQ(PruneThresholds(eps, 1000).classify(1), PruneOutcome::NSim);
}

TEST(PruneThresholds, UnknownInBetween) {
  EXPECT_EQ(PruneThresholds(EpsRational::parse("0.5"), 20).classify(20),
            PruneOutcome::Unknown);
}

// The outcome the pruning rules must give, from the per-pair bound: an
// edge's closed neighbourhoods share between 2 and min(d_u, d_v) + 1
// vertices.
PruneOutcome outcome_from_min_cn(const EpsRational& eps, VertexId du,
                                 VertexId dv) {
  const std::uint64_t need = min_common_neighbors(eps, du, dv);
  if (need <= 2) return PruneOutcome::Sim;
  if (need > std::uint64_t{std::min(du, dv)} + 1) return PruneOutcome::NSim;
  return PruneOutcome::Unknown;
}

constexpr EpsRational kThresholdEps[] = {
    {1, 5},         {2, 5},
    {3, 5},         {4, 5},
    {1, 2},         {7, 10},
    {1, 1},         {1, 1'000'000'000},
    {123'456'789, 1'000'000'000}, {999'999'999, 1'000'000'000}};

void expect_thresholds_agree(const EpsRational& eps,
                             const std::vector<VertexId>& degrees) {
  for (const VertexId du : degrees) {
    const PruneThresholds rules(eps, du);
    for (const VertexId dv : degrees) {
      ASSERT_EQ(rules.classify(dv), outcome_from_min_cn(eps, du, dv))
          << "eps=" << eps.num << "/" << eps.den << " d_u=" << du
          << " d_v=" << dv;
    }
  }
}

TEST(PruneThresholds, AgreeWithMinCommonNeighborsOnEverySmallDegreePair) {
  std::vector<VertexId> degrees(700);
  for (VertexId d = 0; d < 700; ++d) degrees[d] = d;
  for (const EpsRational& eps : kThresholdEps) {
    expect_thresholds_agree(eps, degrees);
  }
}

TEST(PruneThresholds, AgreeWithMinCommonNeighborsNearTheDegreeLimit) {
  // Vertex ids stop below kInvalidVertex, so 2^32 - 2 is the largest
  // degree a graph can hold. Pair the top degrees with each other and with
  // small and middle ones, where the NSim rules flip sides.
  std::vector<VertexId> degrees;
  for (VertexId d = 0; d < 64; ++d) {
    degrees.push_back(d);
    degrees.push_back(kInvalidVertex - 1 - d);
  }
  for (const VertexId d : {1u << 16, 1u << 31, (1u << 31) + 1, 3'000'000'000u}) {
    degrees.push_back(d);
  }
  for (const EpsRational& eps : kThresholdEps) {
    expect_thresholds_agree(eps, degrees);
  }
}

}  // namespace
}  // namespace ppscan
