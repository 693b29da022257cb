// The pruning-funnel counters (obs/counters.hpp) across all five
// algorithms and the GS*-Index build, on known small graphs. The anchor
// invariant, enforced per algorithm:
//
//   arcs_predicate_pruned + sims_computed + sims_reused == arcs_touched
//
// plus exact totals where the algorithm's structure pins them: an
// exhaustive run decides every directed arc (touched == 2|E|), and every
// u < v mirroring scheme computes and reuses in lockstep
// (sims_computed == sims_reused).
#include <gtest/gtest.h>

#include "core/ppscan.hpp"
#include "graph/generators.hpp"
#include "index/gs_index.hpp"
#include "scan/anyscan_lite.hpp"
#include "scan/pscan.hpp"
#include "scan/scan_original.hpp"
#include "scan/scanxp.hpp"

namespace ppscan {
namespace {

void expect_funnel_invariant(const obs::AlgoCounters& c,
                             const std::string& label) {
  EXPECT_EQ(c.arcs_predicate_pruned + c.sims_computed + c.sims_reused,
            c.arcs_touched)
      << label << ": pruned=" << c.arcs_predicate_pruned
      << " computed=" << c.sims_computed << " reused=" << c.sims_reused
      << " touched=" << c.arcs_touched;
}

TEST(AlgoCounters, PpScanExhaustiveTouchesEveryArcExactlyOnce) {
  const auto g = erdos_renyi(400, 2400, 21);
  const auto params = ScanParams::make("0.5", 4);
  PpScanOptions options;
  options.num_threads = 1;
  options.minmax_pruning = false;    // no early exit in CheckCore
  options.unionfind_pruning = false;  // no same-set skip in clustering
  const auto run = ppscan(g, params, options);

  const auto& c = run.stats.counters;
  expect_funnel_invariant(c, "ppSCAN exhaustive");
  // With the early exits disabled every directed arc gets decided exactly
  // once: by the degree predicate or by an intersection mirrored via the
  // u < v ownership rule.
  EXPECT_EQ(c.arcs_touched, 2 * g.num_edges());
  EXPECT_EQ(c.sims_computed, c.sims_reused);
  EXPECT_EQ(c.sims_computed, run.stats.compsim_invocations);
  EXPECT_EQ(c.core_early_exits, 0u);
}

TEST(AlgoCounters, PpScanPrunedRunKeepsInvariantAndMergesAcrossThreads) {
  const auto g = erdos_renyi(500, 4000, 22);
  const auto params = ScanParams::make("0.4", 3);
  PpScanOptions serial;
  serial.num_threads = 1;
  const auto base = ppscan(g, params, serial);
  expect_funnel_invariant(base.stats.counters, "ppSCAN serial");
  EXPECT_EQ(base.stats.counters.sims_computed, base.stats.compsim_invocations);
  // Pruning can only shrink the funnel, never decide an arc twice.
  EXPECT_LE(base.stats.counters.arcs_touched, 2 * g.num_edges());
  EXPECT_GT(base.stats.counters.arcs_touched, 0u);

  PpScanOptions parallel;
  parallel.num_threads = 4;
  const auto mt = ppscan(g, params, parallel);
  expect_funnel_invariant(mt.stats.counters, "ppSCAN mt");
  // The per-worker slots must merge to a complete funnel — every arc the
  // run decided shows up exactly once regardless of which worker did it.
  EXPECT_EQ(mt.stats.counters.sims_computed, mt.stats.compsim_invocations);
  EXPECT_EQ(mt.stats.counters.sims_computed,
            mt.stats.counters.sims_reused);
}

TEST(AlgoCounters, PscanFunnelMatchesItsInvocations) {
  const auto g = erdos_renyi(400, 2400, 23);
  const auto run = pscan(g, ScanParams::make("0.5", 4));
  const auto& c = run.stats.counters;
  expect_funnel_invariant(c, "pSCAN");
  EXPECT_EQ(c.sims_computed, run.stats.compsim_invocations);
  EXPECT_EQ(c.sims_computed, c.sims_reused);  // every decision is mirrored
  EXPECT_LE(c.arcs_touched, 2 * g.num_edges());
  EXPECT_EQ(run.stats.runtime_kind, "serial");
}

TEST(AlgoCounters, ScanOriginalComputesEveryTouchedArc) {
  const auto g = erdos_renyi(300, 1500, 24);
  const auto run = scan_original(g, ScanParams::make("0.5", 4));
  const auto& c = run.stats.counters;
  expect_funnel_invariant(c, "SCAN");
  // No pruning, no mirroring: the funnel is all intersections.
  EXPECT_EQ(c.arcs_predicate_pruned, 0u);
  EXPECT_EQ(c.sims_reused, 0u);
  EXPECT_EQ(c.sims_computed, c.arcs_touched);
  EXPECT_EQ(c.sims_computed, run.stats.compsim_invocations);
}

TEST(AlgoCounters, ScanXpIntersectsEachEdgeOnceAndMirrors) {
  const auto g = erdos_renyi(300, 1500, 25);
  ScanXpOptions options;
  options.num_threads = 4;
  const auto run = scanxp(g, ScanParams::make("0.5", 4), options);
  const auto& c = run.stats.counters;
  expect_funnel_invariant(c, "SCAN-XP");
  EXPECT_EQ(c.arcs_touched, 2 * g.num_edges());
  EXPECT_EQ(c.sims_computed, g.num_edges());
  EXPECT_EQ(c.sims_reused, g.num_edges());
  EXPECT_EQ(c.arcs_predicate_pruned, 0u);
  EXPECT_EQ(run.stats.runtime_kind, "worksteal");
}

TEST(AlgoCounters, AnyScanLiteCountsEachDirectionItEvaluates) {
  const auto g = erdos_renyi(300, 1500, 26);
  AnyScanLiteOptions options;
  options.num_threads = 4;
  const auto run = anyscan_lite(g, ScanParams::make("0.5", 4), options);
  const auto& c = run.stats.counters;
  expect_funnel_invariant(c, "anySCAN");
  // Per-direction evaluation without mirroring: no reuse, and the role
  // phase's min-max break means not every arc need be touched.
  EXPECT_EQ(c.sims_reused, 0u);
  EXPECT_EQ(c.sims_computed, run.stats.compsim_invocations);
  EXPECT_LE(c.arcs_touched, 2 * g.num_edges());
}

TEST(AlgoCounters, GsIndexBuildIsExhaustiveOverEdges) {
  const auto g = erdos_renyi(300, 1500, 27);
  GsIndex::BuildOptions options;
  options.num_threads = 4;
  const GsIndex index(g, options);
  ASSERT_TRUE(index.complete());
  const auto& c = index.build_stats().counters;
  expect_funnel_invariant(c, "GS-Index build");
  EXPECT_EQ(c.arcs_touched, 2 * g.num_edges());
  EXPECT_EQ(c.sims_computed, g.num_edges());
  EXPECT_EQ(c.sims_reused, g.num_edges());
  EXPECT_EQ(c.sims_computed, index.build_stats().intersections);
}

TEST(AlgoCounters, UnionFindCountersTrackClustering) {
  const auto g = erdos_renyi(400, 3200, 28);
  const auto params = ScanParams::make("0.3", 2);
  PpScanOptions options;
  options.num_threads = 2;
  const auto run = ppscan(g, params, options);
  // Each successful unite merges two sets; a clustering with k cores in
  // non-singleton sets performs at most cores-1 unions.
  const auto cores = run.result.num_cores();
  EXPECT_LE(run.stats.counters.uf_unions, cores);
  if (cores > 0) {
    // Phases 6/7 look up each core's root at least once.
    EXPECT_GE(run.stats.counters.uf_finds, cores);
  }
}

TEST(AlgoCounters, SlotsMergeSums) {
  obs::CounterSlots slots(3);
  slots.slot(0).arcs_touched = 5;
  slots.slot(1).arcs_touched = 7;
  slots.slot(2).sims_computed = 2;
  slots.slot(2).arcs_touched = 2;
  const auto merged = slots.merged();
  EXPECT_EQ(merged.arcs_touched, 14u);
  EXPECT_EQ(merged.sims_computed, 2u);
}

}  // namespace
}  // namespace ppscan
