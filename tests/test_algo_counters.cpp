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

#include <string>

#include "core/ppscan.hpp"
#include "graph/generators.hpp"
#include "index/gs_index.hpp"
#include "scan/anyscan_lite.hpp"
#include "scan/pscan.hpp"
#include "scan/scan_original.hpp"
#include "scan/scanxp.hpp"
#include "setops/count_sketch.hpp"

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

// The pruning funnel and the answers of the three pruning algorithms on the
// golden LFR-like and R-MAT graphs (test_golden_regression), pinned to the
// values the per-arc min_cn predicate produced before PruneThresholds
// replaced it. A change to the degree rules moves arcs_predicate_pruned; a
// change to the lazily computed kernel bound moves the digest or the
// CompSim count.
std::uint64_t result_digest(const ScanResult& r) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&h](std::uint64_t x) { h = (h ^ x) * 1099511628211ULL; };
  for (const Role role : r.roles) mix(static_cast<std::uint64_t>(role));
  for (const auto& cluster : r.canonical_clusters()) {
    mix(cluster.size());
    for (const VertexId v : cluster) mix(v);
  }
  return h;
}

enum FunnelGraph { kLfr, kRmat };

struct FunnelPin {
  FunnelGraph graph;
  const char* eps;
  std::uint32_t mu;
  std::uint64_t ppscan_pruned;
  std::uint64_t pscan_pruned;
  std::uint64_t anyscan_pruned;
  std::uint64_t digest;
  std::uint64_t ppscan_compsim_1t;
};

constexpr FunnelPin kFunnelPins[] = {
    {kLfr, "0.2", 2, 42, 36, 41, 8765203136447287093ULL, 6589},
    {kLfr, "0.2", 5, 42, 22, 26, 7449845661073136930ULL, 6700},
    {kLfr, "0.4", 2, 0, 0, 0, 8698806025705382271ULL, 7486},
    {kLfr, "0.4", 5, 0, 0, 0, 5203201968959923870ULL, 6242},
    {kLfr, "0.6", 2, 32, 30, 31, 1228728507489684686ULL, 7595},
    {kLfr, "0.6", 5, 32, 24, 21, 14301733915590811054ULL, 6250},
    {kLfr, "0.8", 2, 2164, 2118, 2011, 4739683022436723331ULL, 6543},
    {kLfr, "0.8", 5, 2164, 1802, 1587, 4739683022436723331ULL, 5167},
    {kRmat, "0.2", 2, 8180, 7146, 7791, 1217760460899968232ULL, 8425},
    {kRmat, "0.2", 5, 8180, 7612, 6304, 9524102561173229471ULL, 13233},
    {kRmat, "0.4", 2, 22758, 22534, 21375, 11188791035975939124ULL, 14851},
    {kRmat, "0.4", 5, 22758, 21710, 18546, 16281299290895564541ULL, 13524},
    {kRmat, "0.6", 2, 33276, 32738, 31411, 17657976070493897603ULL, 9631},
    {kRmat, "0.6", 5, 33276, 31052, 27624, 17657976070493897603ULL, 8390},
    {kRmat, "0.8", 2, 43960, 43132, 41834, 17657976070493897603ULL, 4354},
    {kRmat, "0.8", 5, 43960, 40628, 37237, 17657976070493897603ULL, 3388},
};

TEST(AlgoCounters, PruningFunnelAndResultsArePinned) {
  LfrParams lfr;
  lfr.n = 1000;
  lfr.avg_degree = 16;
  lfr.mixing = 0.2;
  RmatParams rmat_params;
  rmat_params.scale = 12;
  rmat_params.edge_factor = 8;
  const CsrGraph graphs[] = {lfr_like(lfr, 7), rmat(rmat_params, 5)};
  for (const FunnelPin& pin : kFunnelPins) {
    const CsrGraph& g = graphs[pin.graph];
    const ScanParams params = ScanParams::make(pin.eps, pin.mu);
    const std::string label = std::string(pin.graph == kLfr ? "lfr" : "rmat") +
                              " eps=" + pin.eps +
                              " mu=" + std::to_string(pin.mu);
    for (const int threads : {1, 4}) {
      for (const bool predicate : {true, false}) {
        PpScanOptions options;
        options.num_threads = threads;
        options.predicate_pruning = predicate;
        const auto run = ppscan(g, params, options);
        const std::string config = label + " threads=" +
                                   std::to_string(threads) +
                                   " predicate=" + std::to_string(predicate);
        EXPECT_EQ(run.stats.counters.arcs_predicate_pruned,
                  predicate ? pin.ppscan_pruned : 0)
            << "ppSCAN " << config;
        EXPECT_EQ(result_digest(run.result), pin.digest) << "ppSCAN " << config;
        if (threads == 1 && predicate) {
          EXPECT_EQ(run.stats.compsim_invocations, pin.ppscan_compsim_1t)
              << "ppSCAN " << config;
        }
        // The sketch bound's rejections are a subset of the CompSim tally.
        const obs::AlgoCounters& c = run.stats.counters;
        EXPECT_LE(c.sims_bound_rejected, c.sims_computed)
            << "ppSCAN " << config;
        if (std::string(pin.eps) >= "0.6") {
          EXPECT_GT(c.sims_bound_rejected, 0u) << "ppSCAN " << config;
        }
      }
      AnyScanLiteOptions any;
      any.num_threads = threads;
      const auto any_run = anyscan_lite(g, params, any);
      EXPECT_EQ(any_run.stats.counters.arcs_predicate_pruned,
                pin.anyscan_pruned)
          << "anySCAN " << label << " threads=" << threads;
      EXPECT_EQ(result_digest(any_run.result), pin.digest)
          << "anySCAN " << label << " threads=" << threads;
    }
    const auto pscan_run = pscan(g, params);
    EXPECT_EQ(pscan_run.stats.counters.arcs_predicate_pruned,
              pin.pscan_pruned)
        << "pSCAN " << label;
    EXPECT_EQ(result_digest(pscan_run.result), pin.digest) << "pSCAN " << label;
  }
}

TEST(AlgoCounters, SketchBoundIsOffWhereItsGateIsClosed) {
  // At K = 256 the per-vertex gate (a(d+1) − 2b)(K + d) > b·d² has no
  // solution for ε = 0.1, so no vertex is sketched and nothing is rejected.
  LfrParams lfr;
  lfr.n = 1000;
  lfr.avg_degree = 16;
  lfr.mixing = 0.2;
  const CsrGraph g = lfr_like(lfr, 7);
  for (VertexId d = 0; d < 4096; ++d) {
    ASSERT_FALSE(sketch_worth_building(EpsRational{1, 10}, d)) << d;
  }
  for (const int threads : {1, 4}) {
    PpScanOptions options;
    options.num_threads = threads;
    const auto run = ppscan(g, ScanParams::make("0.1", 2), options);
    EXPECT_EQ(run.stats.counters.sims_bound_rejected, 0u);
    EXPECT_GT(run.stats.counters.sims_computed, 0u);
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
