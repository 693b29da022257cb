#include <gtest/gtest.h>

#include "graph/fixtures.hpp"
#include "graph/generators.hpp"
#include "graph/graph_builder.hpp"
#include "scan/anyscan_lite.hpp"
#include "scan/scanxp.hpp"
#include "support/random_graphs.hpp"
#include "support/reference_scan.hpp"

namespace ppscan {
namespace {

using testing::property_test_graphs;
using testing::reference_scan;

TEST(ScanXp, MatchesReferenceOnPropertySuite) {
  ScanXpOptions options;
  options.num_threads = 4;
  for (const auto& g : property_test_graphs(4001)) {
    for (const auto& params : testing::parameter_grid()) {
      const auto expected = reference_scan(g, params);
      const auto run = scanxp(g, params, options);
      EXPECT_TRUE(results_equivalent(expected, run.result))
          << "eps=" << params.eps.to_double() << " mu=" << params.mu << ": "
          << describe_result_difference(expected, run.result);
    }
  }
}

TEST(ScanXp, ExhaustiveIntersectsEveryEdgeOnce) {
  // SCAN-XP has no pruning: exactly |E| intersections, regardless of ε.
  const auto g = erdos_renyi(300, 1500, 12);
  for (const char* eps : {"0.2", "0.8"}) {
    const auto run = scanxp(g, ScanParams::make(eps, 5));
    EXPECT_EQ(run.stats.compsim_invocations, g.num_edges());
  }
}

TEST(ScanXp, CountKernelChoiceDoesNotChangeResult) {
  const auto g = erdos_renyi(250, 2000, 14);
  const auto params = ScanParams::make("0.45", 3);
  ScanXpOptions scalar;
  scalar.count_kernel = IntersectKind::PivotScalar;  // maps to merge count
  const auto baseline = scanxp(g, params, scalar);
  for (const auto kind : {IntersectKind::PivotAvx2,
                          IntersectKind::PivotAvx512, IntersectKind::Auto}) {
    if (!kernel_supported(kind)) continue;
    ScanXpOptions options;
    options.count_kernel = kind;
    options.num_threads = 2;
    const auto run = scanxp(g, params, options);
    EXPECT_TRUE(results_equivalent(baseline.result, run.result))
        << to_string(kind);
    EXPECT_EQ(run.stats.compsim_invocations, g.num_edges());
  }
}

TEST(ScanXp, ThreadCountDoesNotChangeResult) {
  const auto g = property_test_graphs(4002, 1).front();
  const auto params = ScanParams::make("0.5", 3);
  ScanXpOptions options;
  options.num_threads = 1;
  const auto one = scanxp(g, params, options);
  for (const int t : {2, 4, 8}) {
    options.num_threads = t;
    const auto many = scanxp(g, params, options);
    EXPECT_TRUE(results_equivalent(one.result, many.result));
  }
}

TEST(AnyScanLite, MatchesReferenceOnPropertySuite) {
  AnyScanLiteOptions options;
  options.num_threads = 4;
  options.block_size = 64;  // force several block iterations
  for (const auto& g : property_test_graphs(4003)) {
    for (const auto& params : testing::parameter_grid()) {
      const auto expected = reference_scan(g, params);
      const auto run = anyscan_lite(g, params, options);
      EXPECT_TRUE(results_equivalent(expected, run.result))
          << "eps=" << params.eps.to_double() << " mu=" << params.mu << ": "
          << describe_result_difference(expected, run.result);
    }
  }
}

TEST(AnyScanLite, RedundancyIsBounded) {
  // No cross-vertex reuse means up to 2 intersections per edge from role
  // computing plus completion work for cores — but never more than 2|E|.
  const auto g = erdos_renyi(400, 3000, 9);
  for (const char* eps : {"0.3", "0.6"}) {
    const auto run = anyscan_lite(g, ScanParams::make(eps, 4));
    EXPECT_LE(run.stats.compsim_invocations, 2 * g.num_edges());
  }
}

TEST(AnyScanLite, BlockSizeDoesNotChangeResult) {
  const auto g = property_test_graphs(4004, 1).front();
  const auto params = ScanParams::make("0.4", 2);
  AnyScanLiteOptions a;
  a.block_size = 16;
  AnyScanLiteOptions b;
  b.block_size = 100000;
  const auto run_a = anyscan_lite(g, params, a);
  const auto run_b = anyscan_lite(g, params, b);
  EXPECT_TRUE(results_equivalent(run_a.result, run_b.result));
}

TEST(ParallelBaselines, AgreeWithEachOtherOnCommunityGraph) {
  LfrParams p;
  p.n = 1200;
  p.avg_degree = 18;
  p.mixing = 0.25;
  const auto g = lfr_like(p, 31);
  const auto params = ScanParams::make("0.55", 4);
  ScanXpOptions xp_options;
  xp_options.num_threads = 4;
  const auto xp = scanxp(g, params, xp_options);
  AnyScanLiteOptions al;
  al.num_threads = 4;
  const auto any = anyscan_lite(g, params, al);
  EXPECT_TRUE(results_equivalent(xp.result, any.result))
      << describe_result_difference(xp.result, any.result);
}

}  // namespace
}  // namespace ppscan
