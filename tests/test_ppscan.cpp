#include "core/ppscan.hpp"

#include <gtest/gtest.h>

#include "graph/fixtures.hpp"
#include "graph/generators.hpp"
#include "graph/graph_builder.hpp"
#include "scan/pscan.hpp"
#include "support/random_graphs.hpp"
#include "support/reference_scan.hpp"

namespace ppscan {
namespace {

using testing::property_test_graphs;
using testing::reference_scan;

TEST(PpScan, MatchesReferenceSingleThreaded) {
  for (const auto& g : property_test_graphs(3001)) {
    for (const auto& params : testing::parameter_grid()) {
      const auto expected = reference_scan(g, params);
      const auto run = ppscan(g, params);
      EXPECT_TRUE(results_equivalent(expected, run.result))
          << "eps=" << params.eps.to_double() << " mu=" << params.mu << ": "
          << describe_result_difference(expected, run.result);
    }
  }
}

TEST(PpScan, MatchesReferenceMultiThreaded) {
  PpScanOptions options;
  options.num_threads = 4;
  for (const auto& g : property_test_graphs(3002, 2)) {
    for (const auto& params : testing::parameter_grid()) {
      const auto expected = reference_scan(g, params);
      const auto run = ppscan(g, params, options);
      EXPECT_TRUE(results_equivalent(expected, run.result))
          << "eps=" << params.eps.to_double() << " mu=" << params.mu << ": "
          << describe_result_difference(expected, run.result);
    }
  }
}

struct PpScanConfig {
  int threads;
  IntersectKind kernel;
  SchedulerKind scheduler;
};

class PpScanConfigTest : public ::testing::TestWithParam<PpScanConfig> {};

TEST_P(PpScanConfigTest, DeterministicAcrossConfigurations) {
  // The clustering result must be identical no matter the thread count,
  // kernel, or scheduling policy — the central determinism claim.
  const auto config = GetParam();
  if (!kernel_supported(config.kernel)) {
    GTEST_SKIP() << "kernel unsupported";
  }
  LfrParams p;
  p.n = 800;
  p.avg_degree = 14;
  p.mixing = 0.25;
  const auto g = lfr_like(p, 55);
  const auto params = ScanParams::make("0.5", 4);
  const auto expected = reference_scan(g, params);

  PpScanOptions options;
  options.num_threads = config.threads;
  options.kernel = config.kernel;
  options.scheduler.kind = config.scheduler;
  const auto run = ppscan(g, params, options);
  EXPECT_TRUE(results_equivalent(expected, run.result))
      << describe_result_difference(expected, run.result);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PpScanConfigTest,
    ::testing::Values(
        PpScanConfig{1, IntersectKind::MergeEarlyStop, SchedulerKind::DegreeSum},
        PpScanConfig{1, IntersectKind::PivotScalar, SchedulerKind::DegreeSum},
        PpScanConfig{1, IntersectKind::PivotAvx2, SchedulerKind::DegreeSum},
        PpScanConfig{1, IntersectKind::PivotAvx512, SchedulerKind::DegreeSum},
        PpScanConfig{1, IntersectKind::BlockAvx512, SchedulerKind::DegreeSum},
        PpScanConfig{2, IntersectKind::Auto, SchedulerKind::DegreeSum},
        PpScanConfig{4, IntersectKind::Auto, SchedulerKind::DegreeSum},
        PpScanConfig{8, IntersectKind::Auto, SchedulerKind::DegreeSum},
        PpScanConfig{4, IntersectKind::Auto, SchedulerKind::StaticRange},
        PpScanConfig{4, IntersectKind::Auto, SchedulerKind::FixedChunk},
        PpScanConfig{4, IntersectKind::PivotAvx512, SchedulerKind::StaticRange},
        PpScanConfig{4, IntersectKind::BlockAvx512, SchedulerKind::StaticRange},
        PpScanConfig{3, IntersectKind::PivotAvx2, SchedulerKind::FixedChunk}),
    [](const ::testing::TestParamInfo<PpScanConfig>& info) {
      // Appended piecewise: GCC 12's -O3 -Wrestrict misfires on
      // `"t" + std::to_string(...)`.
      std::string name = "t";
      name += std::to_string(info.param.threads);
      name += "_";
      name += to_string(info.param.kernel);
      name += "_";
      name += to_string(info.param.scheduler);
      return name;
    });

struct AblationConfig {
  bool predicate;
  bool minmax;
  bool unionfind;
};

class PpScanAblationTest : public ::testing::TestWithParam<AblationConfig> {};

TEST_P(PpScanAblationTest, PruningSwitchesNeverChangeTheResult) {
  const auto config = GetParam();
  PpScanOptions options;
  options.num_threads = 4;
  options.predicate_pruning = config.predicate;
  options.minmax_pruning = config.minmax;
  options.unionfind_pruning = config.unionfind;
  for (const auto& g : property_test_graphs(3003, 1)) {
    const auto params = ScanParams::make("0.4", 3);
    const auto expected = reference_scan(g, params);
    const auto run = ppscan(g, params, options);
    EXPECT_TRUE(results_equivalent(expected, run.result))
        << describe_result_difference(expected, run.result);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSwitchCombinations, PpScanAblationTest,
    ::testing::Values(AblationConfig{false, false, false},
                      AblationConfig{true, false, false},
                      AblationConfig{false, true, false},
                      AblationConfig{false, false, true},
                      AblationConfig{true, true, false},
                      AblationConfig{true, false, true},
                      AblationConfig{false, true, true},
                      AblationConfig{true, true, true}),
    [](const ::testing::TestParamInfo<AblationConfig>& info) {
      std::string name;
      name += info.param.predicate ? "P" : "p";
      name += info.param.minmax ? "M" : "m";
      name += info.param.unionfind ? "U" : "u";
      return name;
    });

TEST(PpScan, InvocationsNeverExceedEdgeCount) {
  // Theorem 4.1: each edge is intersected at most once.
  PpScanOptions options;
  options.num_threads = 4;
  for (const auto& g : property_test_graphs(3004, 1)) {
    for (const auto& params : testing::parameter_grid()) {
      const auto run = ppscan(g, params, options);
      EXPECT_LE(run.stats.compsim_invocations, g.num_edges());
    }
  }
}

TEST(PpScan, InvocationCountComparableToPscan) {
  // Figure 4's claim: ppSCAN does a similar amount of set-intersection work
  // as pSCAN (we allow a modest band).
  LfrParams p;
  p.n = 3000;
  p.avg_degree = 20;
  const auto g = lfr_like(p, 77);
  for (const char* eps : {"0.2", "0.5", "0.8"}) {
    const auto params = ScanParams::make(eps, 5);
    const auto pp = ppscan(g, params);
    const auto ps = pscan(g, params);
    EXPECT_LE(pp.stats.compsim_invocations,
              ps.stats.compsim_invocations * 3 / 2 + 100)
        << "eps=" << eps;
  }
}

TEST(PpScan, NoPruningIntersectsExactlyEveryEdge) {
  // With predicate and min-max pruning disabled nothing is settled early —
  // except the ed < µ degree rule that is structural in PruneSim, which
  // µ = 1 disarms for every non-isolated vertex. The core-checking phase
  // then computes each edge exactly once (u < v ownership) and nothing is
  // left for the later phases.
  PpScanOptions options;
  options.num_threads = 4;
  options.predicate_pruning = false;
  options.minmax_pruning = false;
  for (const auto& g : property_test_graphs(3007, 1)) {
    const auto run = ppscan(g, ScanParams::make("0.5", 1), options);
    EXPECT_EQ(run.stats.compsim_invocations, g.num_edges());
  }
}

TEST(PpScan, PruningOnlyEverReducesInvocations) {
  LfrParams p;
  p.n = 1500;
  p.avg_degree = 18;
  const auto g = lfr_like(p, 21);
  for (const char* eps : {"0.2", "0.5", "0.8"}) {
    const auto params = ScanParams::make(eps, 5);
    PpScanOptions off;
    off.predicate_pruning = false;
    off.minmax_pruning = false;
    off.unionfind_pruning = false;
    const auto baseline = ppscan(g, params, off);
    const auto pruned = ppscan(g, params);
    EXPECT_LE(pruned.stats.compsim_invocations,
              baseline.stats.compsim_invocations)
        << "eps=" << eps;
  }
}

TEST(PpScan, StageTimersPopulated) {
  LfrParams p;
  p.n = 1000;
  p.avg_degree = 16;
  const auto g = lfr_like(p, 5);
  const auto run = ppscan(g, ScanParams::make("0.3", 3));
  EXPECT_GT(run.stats.stage_prune_seconds, 0.0);
  EXPECT_GT(run.stats.stage_check_seconds, 0.0);
  EXPECT_GT(run.stats.stage_core_cluster_seconds, 0.0);
  EXPECT_GT(run.stats.stage_noncore_cluster_seconds, 0.0);
  EXPECT_GE(run.stats.total_seconds,
            run.stats.stage_prune_seconds + run.stats.stage_check_seconds);
  EXPECT_GT(run.stats.tasks_submitted, 0u);
}

TEST(PpScan, RunToRunDeterminism) {
  PpScanOptions options;
  options.num_threads = 8;
  const auto g = erdos_renyi(500, 3000, 42);
  const auto params = ScanParams::make("0.5", 3);
  const auto first = ppscan(g, params, options);
  for (int i = 0; i < 5; ++i) {
    const auto again = ppscan(g, params, options);
    EXPECT_TRUE(results_equivalent(first.result, again.result));
  }
}

TEST(PpScan, EmptyGraphAndIsolatedVertices) {
  const auto g = GraphBuilder::from_edges({{0, 1}}, 6);
  const auto run = ppscan(g, ScanParams::make("0.5", 1));
  for (VertexId u = 2; u < 6; ++u) {
    EXPECT_EQ(run.result.roles[u], Role::NonCore);
  }
  EXPECT_EQ(run.result.num_clusters(), 1u);  // the twin-leaf edge pair
}

TEST(PpScan, MuLargerThanAnyDegreeYieldsNoCores) {
  const auto g = make_clique(8);
  const auto run = ppscan(g, ScanParams::make("0.5", 20));
  EXPECT_EQ(run.result.num_cores(), 0u);
  EXPECT_EQ(run.result.num_clusters(), 0u);
  // Everything was settled by PruneSim's ed < µ rule — zero intersections.
  EXPECT_EQ(run.stats.compsim_invocations, 0u);
}

TEST(PpScan, EpsilonOneOnlyAcceptsTwins) {
  // ε = 1 requires Γ(u) = Γ(v); in a clique every pair qualifies.
  const auto g = make_clique(5);
  const auto run = ppscan(g, ScanParams::make("1", 2));
  EXPECT_EQ(run.result.num_clusters(), 1u);
  // In a path, no adjacent pair has identical closed neighborhoods.
  const auto path = make_path(6);
  const auto path_run = ppscan(path, ScanParams::make("1", 1));
  EXPECT_EQ(path_run.result.num_clusters(), 0u);
}

}  // namespace
}  // namespace ppscan
